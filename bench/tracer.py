"""Per-layer tracing for the benchmark, from outside the package.

`Tracer.install` wraps every public function of the package's modules in
every module namespace that binds it (so `transvect.tgraph.build_graph`
and `transvect.classify.build_graph` are the same wrapper) and patches
public methods on their classes; `uninstall` puts the originals back.
Nothing under `src/` is edited.

Each wrapped call records a span: name, start, end, parent span and the
corpus entry it ran under, kept in flat arrays in memory and written out
when the run ends.  A span's self time is its duration minus the time its
child spans cover.  Field arithmetic (`gf.Field.*`) runs tens of millions
of times a pass, where a span per call would cost far more than the call,
so those calls are only counted and their time stays in the caller's self
time.  A few calls also add counts taken from their results (cycles found,
elements enumerated, elements visited, report bytes).
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from array import array
from pathlib import Path

LAYERS = ("gf", "linalg", "transvections", "tgraph", "forms", "classify",
          "cayley", "cli")
COUNT_ONLY_LAYERS = ("gf",)


def _after_cycles(tr, args, result):
    tr.add("tgraph.cycles_found", len(result))


def _after_densify(tr, args, result):
    tr.add("tgraph.densify_witnesses", len(result[0]) - len(args[0]))


def _after_enumerate(tr, args, result):
    tr.add("classify.elements_enumerated", result.order)
    tr.distinct.add((result.F.q, result.n, result.order, hash(result.codes)))


def _after_bfs(tr, args, result):
    tr.add("cayley.elements_visited", result.order)
    tr.add("cayley.products", result.order * len(result.steps))


def _after_render(tr, args, result):
    tr.add("cli.report_bytes", len(result.encode()))


HOOKS = {
    "tgraph.cycles_up_to": _after_cycles,
    "tgraph.densify": _after_densify,
    "classify.enumerate_group": _after_enumerate,
    "cayley.bfs_explore": _after_bfs,
    "cli.render": _after_render,
}


class Tracer:
    """Spans and counters of the wrapped calls."""

    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.entry = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.entries: list[str] = []
        self.entry_index = -1
        self.calls: dict[str, list[int]] = {}
        self.counters: dict[str, float] = {}
        self.raised: dict[str, int] = {}
        self.distinct: set = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def add(self, name: str, n: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def set_entry(self, entry_id: str) -> None:
        self.entries.append(entry_id)
        self.entry_index = len(self.entries) - 1

    def _span(self, fn, name: str):
        sid = self.ids.setdefault(name, len(self.names))
        if sid == len(self.names):
            self.names.append(name)
        hook = HOOKS.get(name)
        span_name, parent, entry = self.span_name, self.parent, self.entry
        start, end, stack = self.start, self.end, self.stack
        clock = time.perf_counter
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(span_name)
            span_name.append(sid)
            parent.append(stack[-1] if stack else -1)
            entry.append(tr.entry_index)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[i] = clock()
                stack.pop()
                key = f"{name}:{type(exc).__name__}"
                tr.raised[key] = tr.raised.get(key, 0) + 1
                raise
            end[i] = clock()
            stack.pop()
            if hook is not None:
                hook(tr, args, result)
            return result

        return wrapper

    def _counter(self, fn, name: str):
        cell = self.calls.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        import transvect

        modules = {m: sys.modules[f"transvect.{m}"] for m in LAYERS}
        wrappers: dict[int, object] = {}
        for layer, mod in modules.items():
            make = self._counter if layer in COUNT_ONLY_LAYERS else self._span
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(val) and val.__module__ == mod.__name__:
                    if not inspect.isgeneratorfunction(val):
                        wrappers[id(val)] = make(val, f"{layer}.{attr}")
                elif inspect.isclass(val) and val.__module__ == mod.__name__:
                    self._patch_class(val, layer, make)
        namespaces = [transvect] + [m for n, m in sys.modules.items()
                                    if n.startswith("transvect.")]
        for ns in namespaces:
            for attr, val in list(vars(ns).items()):
                w = wrappers.get(id(val))
                if w is not None:
                    self._patches.append((ns, attr, val))
                    setattr(ns, attr, w)

    def _patch_class(self, cls, layer: str, make) -> None:
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(val, staticmethod):
                new = staticmethod(make(val.__func__, name))
            elif inspect.isfunction(val) and not inspect.isgeneratorfunction(val):
                new = make(val, name)
            else:
                continue
            self._patches.append((cls, attr, val))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for obj, attr, val in reversed(self._patches):
            setattr(obj, attr, val)
        self._patches.clear()

    # -- analysis -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Marks for splitting the recording into passes."""
        return {"span": len(self.span_name),
                "calls": {k: c[0] for k, c in self.calls.items()},
                "counters": dict(self.counters),
                "raised": dict(self.raised)}

    def pass_stats(self, a: dict, b: dict) -> dict:
        """Per span name: calls, total (inclusive) and self seconds of the
        spans recorded between snapshots a and b."""
        lo, hi = a["span"], b["span"]
        child = [0.0] * (hi - lo)
        start, end, parent = self.start, self.end, self.parent
        for i in range(lo, hi):
            p = parent[i]
            if p >= lo:
                child[p - lo] += end[i] - start[i]
        stats: dict[str, list[float]] = {}
        names, span_name = self.names, self.span_name
        for i in range(lo, hi):
            dur = end[i] - start[i]
            s = stats.setdefault(names[span_name[i]], [0, 0.0, 0.0])
            s[0] += 1
            s[1] += dur
            s[2] += dur - child[i - lo]
        return stats


def traced_passes(wl, run_pass, seconds: float):
    """Traced passes until `seconds` have gone by (at least one).
    Returns the passes, each with its span statistics and counter deltas,
    and the tracer."""
    tr = Tracer()
    tr.install()
    passes = []
    begin = time.perf_counter()
    try:
        while True:
            tr.distinct.clear()
            a = tr.snapshot()
            p = run_pass(wl, tr)
            b = tr.snapshot()
            p["spans"] = tr.pass_stats(a, b)
            p["delta"] = {
                kind: {k: b[kind][k] - a[kind].get(k, 0) for k in b[kind]}
                for kind in ("calls", "counters", "raised")}
            p["delta"]["distinct"] = len(tr.distinct)
            passes.append(p)
            if time.perf_counter() - begin >= seconds:
                return passes, tr
    finally:
        tr.uninstall()


def _pass_layer_metrics(p: dict) -> dict:
    spans, d = p["spans"], p["delta"]
    calls, counters, raised = d["calls"], d["counters"], d["raised"]

    def n(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    def ratio(a, b):
        return a / b if b else 0.0

    enum_calls = n("classify.enumerate_group")
    elements = counters.get("classify.elements_enumerated", 0)
    visited = counters.get("cayley.elements_visited", 0)
    products = counters.get("cayley.products", 0)
    s, c = "s", "count"
    return {
        "gf.add_calls": (calls.get("gf.Field.add", 0), c),
        "gf.mul_calls": (calls.get("gf.Field.mul", 0), c),
        "gf.inv_calls": (calls.get("gf.Field.inv", 0), c),
        "linalg.mat_mul_calls": (n("linalg.Mat.mul"), c),
        "linalg.mat_mul_s": (self_s("linalg.Mat.mul"), s),
        "linalg.rref_calls": (n("linalg.Mat.rref"), c),
        "linalg.rref_s": (self_s("linalg.Mat.rref"), s),
        "transvections.apply_calls": (n("transvections.Transvection.apply"), c),
        "transvections.apply_s": (self_s("transvections.Transvection.apply"), s),
        "tgraph.build_graph_calls": (n("tgraph.build_graph"), c),
        "tgraph.build_graph_s": (self_s("tgraph.build_graph"), s),
        "tgraph.cycles_up_to_calls": (n("tgraph.cycles_up_to"), c),
        "tgraph.cycles_up_to_s": (self_s("tgraph.cycles_up_to"), s),
        "tgraph.cycles_found": (counters.get("tgraph.cycles_found", 0), c),
        "tgraph.defining_field_s": (self_s("tgraph.defining_field"), s),
        "tgraph.densify_s": (self_s("tgraph.densify"), s),
        "tgraph.densify_witnesses": (counters.get("tgraph.densify_witnesses", 0), c),
        "tgraph.connect_up_s": (self_s("tgraph.connect_up"), s),
        "tgraph.winkle_s": (self_s("tgraph.winkle"), s),
        "forms.detect_invariant_form_calls": (n("forms.detect_invariant_form"), c),
        "forms.detect_invariant_form_s": (self_s("forms.detect_invariant_form"), s),
        "forms.recover_quadratic_s": (self_s("forms.recover_quadratic"), s),
        "classify.classify_calls": (n("classify.classify"), c),
        "classify.enumerate_group_calls": (enum_calls, c),
        "classify.enumerate_group_s": (self_s("classify.enumerate_group"), s),
        "classify.elements_enumerated": (elements, c),
        "classify.elements_per_s": (ratio(elements, total("classify.enumerate_group")), "1/s"),
        "classify.enumerate_distinct_ratio": (ratio(d["distinct"], enum_calls), "ratio"),
        "classify.enumerate_capped_calls": (raised.get("classify.enumerate_group:CapExceeded", 0), c),
        "classify.detect_monomial_structure_s": (self_s("classify.detect_monomial_structure"), s),
        "classify.detect_symmetric_type_s": (self_s("classify.detect_symmetric_type"), s),
        "classify.sample_supersets_s": (self_s("classify.sample_supersets"), s),
        "cayley.bfs_explore_calls": (n("cayley.bfs_explore"), c),
        "cayley.bfs_explore_s": (self_s("cayley.bfs_explore"), s),
        "cayley.elements_visited": (visited, c),
        "cayley.products": (products, c),
        "cayley.new_ratio": (ratio(visited - n("cayley.bfs_explore"), products), "ratio"),
        "cayley.elements_per_s": (ratio(visited, total("cayley.bfs_explore")), "1/s"),
        "cayley.bidirectional_distance_s": (self_s("cayley.bidirectional_distance"), s),
        "cayley.transvection_length_profile_s": (self_s("cayley.transvection_length_profile"), s),
        "cli.parse_input_s": (self_s("cli.parse_input"), s),
        "cli.render_s": (self_s("cli.render"), s),
        "cli.report_bytes": (counters.get("cli.report_bytes", 0), "bytes"),
        "trace.wall_s": (p["wall_s"], s),
    }


def layer_metrics(untraced: dict, traced: list[dict]) -> dict:
    """Per-layer metrics: the median over the traced passes, plus the
    tracing overhead (traced minus untraced wall time of a pass)."""
    per_pass = [_pass_layer_metrics(p) for p in traced]
    out = {}
    for name, (_, unit) in per_pass[0].items():
        out[name] = {"value": statistics.median(m[name][0] for m in per_pass),
                     "unit": unit}
    out["trace.overhead_s"] = {"value": out["trace.wall_s"]["value"] - untraced["wall_s"],
                               "unit": "s"}
    out["trace.spans"] = {"value": statistics.median(
        sum(v[0] for v in p["spans"].values()) for p in traced), "unit": "count"}
    return out


def print_top(traced: list[dict], k: int = 12) -> None:
    """The k span names with the most self time in the first traced pass,
    with their shares of that pass's traced wall time, then the traced time
    of each command."""
    p = traced[0]
    wall = p["wall_s"]
    print(f"# top self time, first traced pass ({wall:.3f} s traced wall)")
    top = sorted(p["spans"].items(), key=lambda kv: -kv[1][2])[:k]
    for name, (calls, total, self_s) in top:
        print(f"{name:44s} {self_s:10.3f} s self {100 * self_s / wall:6.1f}% "
              f"{calls:10d} calls")
    for cmd, secs in p["per_command"].items():
        if secs:
            print(f"# traced {cmd}_s = {secs:.3f} s")


def write_spans(tr: Tracer, out_dir: Path, workload: str, seed: int) -> Path:
    """All spans of the run as tab-separated lines: index, name, parent
    index (-1 for a root), entry id, start and end in seconds."""
    path = out_dir / f"spans-{workload}.tsv"
    names, entries = tr.names, tr.entries
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# " + json.dumps({"workload": workload, "seed": seed,
                                    "clock": "time.perf_counter"}) + "\n")
        fh.write("index\tname\tparent\tentry\tstart\tend\n")
        for i in range(len(tr.span_name)):
            e = tr.entry[i]
            fh.write(f"{i}\t{names[tr.span_name[i]]}\t{tr.parent[i]}\t"
                     f"{entries[e] if e >= 0 else ''}\t{tr.start[i]:.9f}\t"
                     f"{tr.end[i]:.9f}\n")
    return path
