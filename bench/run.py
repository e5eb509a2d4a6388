#!/usr/bin/env python3
"""transvect benchmark: one workload of the corpus, timed end to end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`, nothing is installed.  One client runs the workload's entries in
this process, one after another with no threads (a closed loop: each entry
starts when the previous one has finished), in passes over the entry list
until `--seconds` have gone by (at least one pass).
Each entry is one in-process `transvect` CLI call, `cli.main([...,
"--out", FILE])`, or one public library call where the CLI has no route
(`stability_check`, `bidirectional_distance`).  Every output is checked
against the answer pinned in `bench/corpus.py` after the pass, outside the
timed region; a wrong answer, a nonzero exit code or an exception fails the
entry and is never skipped.

Workloads (entry lists in `bench/corpus.py`):

- `order-large`: five classifications of groups of order 4e4..4e5 plus
  one budget-limited SL3(8).  The exact-order cross-check in
  `classify.enumerate_group` dominates, one large enumeration per entry.
- `structure-small`: monomial classifications over GF(8) and GF(16),
  certificates and stability checks of small classical groups.  Many small
  enumerations, repeated by certify and stability, and extension-field
  arithmetic in the projective orbit scans (`Transvection.apply`)
  dominate.
- `cayley-search`: Cayley-graph diameters, transvection-length profiles, a
  shortest word and a meet-in-the-middle distance.  `cayley.bfs_explore`
  calling `linalg.Mat.mul` dominates.

With `--trace 0` the last line reports the end-to-end metrics that
BENCHMARK.json names: `wall_s`, the median over the run's passes of a
pass's wall time; `setup_s`, the median over seven set-ups (this process's
own and six in fresh interpreters) of the time to import the package,
build the corpus and write the generator files; `peak_rss_mb`, the
process's `ru_maxrss`.  The lines before it add, per command, the part of
`wall_s` spent in its entries (`classify_s`, `certify_s` for certify and
stability entries, `diameter_s` for the Cayley searches), on the
workloads that have such entries, and `ops_failed`, failed / attempted
entries.  Those stay out of the last line, which carries the same nonzero
metrics on every workload.

With `--trace 1` the run makes one untraced pass, then traced passes until
`--seconds` have gone by (see `bench/tracer.py`), then the kernel
microbenchmarks (`bench/micro.py`), and reports the per-layer metrics.
The spans go to `.bench_out/spans-WORKLOAD.tsv` and the run record (git
SHA, Python, platform, CPU count, seed, entries, every metric and the
entry times of each pass) to `.bench_out/run-WORKLOAD-SEED-traceT.json`.

ROADMAP baselines left out of every workload, because any one of them
would dominate a pass that each check of a change runs many times:
classify Sp6(2) (19.4 s), bfs_explore on the O6+(2) transvections
(45.6 s), and certify plus a 100-sample stability check on rep(8) (76 s).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 6
COMMANDS = ("classify", "certify", "diameter")
EXCLUDED = {
    "classify Sp6(2)": "19.4 s for one entry",
    "bfs_explore O6+(2) transvections": "45.6 s for one entry",
    "certify + 100-sample stability_check rep(8)": "76 s for one entry",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up seconds and exit")
    return p.parse_args(argv)


# -- set-up ---------------------------------------------------------------------


class Workload:
    """A workload's entries with their generator files written to `workdir`."""

    def __init__(self, name: str, seed: int, workdir: Path):
        import corpus
        from transvect import cli

        if name not in corpus.WORKLOADS:
            raise SystemExit(f"unknown workload {name!r}; choose from "
                             f"{', '.join(corpus.WORKLOADS)}")
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.cli = cli
        self.entries = corpus.WORKLOADS[name](seed)
        self.paths = {}
        for e in self.entries:
            path = workdir / f"{e.id}.json"
            F = e.gens[0].F
            path.write_text(json.dumps(cli.serialize_generators(F, e.gens)))
            self.paths[e.id] = path


def set_up(name: str, seed: int, workdir: Path) -> tuple[Workload, float]:
    """Import the package, build the corpus and write the generator files;
    returns the workload and the seconds it took."""
    t0 = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    wl = Workload(name, seed, workdir)
    return wl, time.perf_counter() - t0


def probe_setup(name: str, seed: int) -> list[float]:
    """Set-up seconds measured in fresh interpreters."""
    out = []
    for _ in range(SETUP_PROBES):
        res = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        out.append(float(res.stdout.split()[-1]))
    return out


# -- entries ---------------------------------------------------------------------


def run_entry(wl: Workload, entry, outputs: dict) -> tuple[float, object]:
    """Run one entry; returns (seconds, outcome).  The outcome is the parsed
    CLI report, or the library call's return value; an exit code other than
    0 comes back as {"exit": code}."""
    from transvect import Transvection, bidirectional_distance, stability_check

    if entry.kind == "stability":
        F = entry.gens[0].F
        src = outputs[entry.source]
        T0 = [Transvection.from_json(F, r) for r in src["result"]["T0"]]
        t0 = time.perf_counter()
        reports = stability_check(entry.gens, T0, samples=entry.samples,
                                  seed=wl.seed)
        dt = time.perf_counter() - t0
        return dt, [r.to_json() for r in reports]
    if entry.kind == "bidirectional":
        X = [t.matrix() for t in entry.gens]
        t0 = time.perf_counter()
        d = bidirectional_distance(X, entry.target)
        return time.perf_counter() - t0, d
    out = wl.workdir / f"{entry.id}.out.json"
    sub = "diameter" if entry.kind == "profile" else entry.kind
    argv = [sub, "--gens", str(wl.paths[entry.id]), *entry.args]
    if entry.kind == "decompose":
        argv += ["--target", json.dumps(entry.target.to_json())]
    argv += ["--out", str(out)]
    out.unlink(missing_ok=True)
    t0 = time.perf_counter()
    code = wl.cli.main(argv)
    dt = time.perf_counter() - t0
    if code != 0:
        return dt, {"exit": code}
    return dt, json.loads(out.read_text())


def run_pass(wl: Workload, tracer=None) -> dict:
    """One pass over the entries; checks run after the timed loop."""
    import corpus

    times, outcomes, errors = {}, {}, {}
    gc.collect()
    t0 = time.perf_counter()
    for e in wl.entries:
        if tracer is not None:
            tracer.set_entry(e.id)
        try:
            times[e.id], outcomes[e.id] = run_entry(wl, e, outcomes)
        except Exception:  # an entry that raises is a failed entry
            errors[e.id] = traceback.format_exc(limit=3)
    wall = time.perf_counter() - t0
    failures = dict(errors)
    for e in wl.entries:
        if e.id in outcomes:
            try:
                problem = corpus.check(e, outcomes[e.id])
            except Exception:  # a malformed outcome is a wrong answer
                problem = traceback.format_exc(limit=3)
            if problem:
                failures[e.id] = problem
    per_cmd = {c: 0.0 for c in COMMANDS}
    for e in wl.entries:
        per_cmd[e.command] += times.get(e.id, 0.0)
    return {"wall_s": wall, "per_command": per_cmd, "entry_s": times,
            "failures": failures, "outcomes": outcomes}


def run_passes(wl: Workload, seconds: float) -> list[dict]:
    """Passes until `seconds` have gone by (at least one)."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(wl))
        if time.perf_counter() - start >= seconds:
            return passes


# -- reporting -------------------------------------------------------------------


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def run_record(wl: Workload, args) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "workload": wl.name,
        "seed": wl.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "entries": [e.id for e in wl.entries],
        "excluded_baselines": EXCLUDED,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    med = statistics.median
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": metric(med(p["wall_s"] for p in passes), "s"),
        "setup_s": metric(med(setups), "s"),
        "peak_rss_mb": metric(rss_kib / 1024, "MiB"),
    }


def per_command(wl: Workload, passes: list[dict]) -> dict:
    """The per-command parts of wall_s, for the commands the workload has."""
    have = {e.command for e in wl.entries}
    return {f"{c}_s": metric(statistics.median(p["per_command"][c] for p in passes), "s")
            for c in COMMANDS if c in have}


def print_metrics(title: str, metrics: dict) -> None:
    print(f"# {title}")
    for name, m in metrics.items():
        print(f"{name:44s} {m['value']:>16.6g} {m['unit']}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "transvect" / "__init__.py").is_file():
        print(f"bench: no transvect sources under {SRC}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="work-", dir=OUT_DIR) as tmp:
        wl, setup0 = set_up(args.workload, args.seed, Path(tmp))
        if args.setup_only:
            print(setup0)
            return 0
        if args.trace:
            import tracer

            untraced = run_pass(wl)
            traced, tr = tracer.traced_passes(wl, run_pass, args.seconds)
            passes = [untraced] + traced
        else:
            passes = run_passes(wl, args.seconds)
    setups = [setup0] + probe_setup(args.workload, args.seed)

    attempted = sum(len(wl.entries) for _ in passes)
    failed = sum(len(p["failures"]) for p in passes)
    for i, p in enumerate(passes):
        for eid, why in p["failures"].items():
            print(f"FAILED pass {i} {eid}: {why}", file=sys.stderr)
    record = run_record(wl, args)
    record["passes"] = len(passes)
    print("# run", json.dumps(record))
    record["entry_s"] = [p["entry_s"] for p in passes]
    timed = [untraced] if args.trace else passes
    e2e = end_to_end(timed, setups)
    e2e.update(per_command(wl, timed))
    e2e["ops_failed"] = metric(failed / attempted, "fraction")
    print_metrics("end-to-end" + (" (the untraced pass)" if args.trace else ""), e2e)
    if args.trace:
        import micro

        layers = tracer.layer_metrics(untraced, traced)
        layers.update(micro.kernel_metrics(args.seed))
        print_metrics("per-layer (median over the traced passes)", layers)
        tracer.print_top(traced)
        path = tracer.write_spans(tr, OUT_DIR, wl.name, wl.seed)
        print(f"# spans written to {path.relative_to(ROOT)}")
        metrics = layers
    else:
        layers = {}
        metrics = {k: e2e[k] for k in ("wall_s", "setup_s", "peak_rss_mb")}
    record.update(end_to_end=e2e, per_layer=layers)
    path = OUT_DIR / f"run-{wl.name}-{wl.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
