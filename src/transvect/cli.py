"""Command-line front end: parse generator files, run analyses, emit reports.

One binary, subcommand style: analyze | classify | certify | diameter |
gen | decompose.  Reports are JSON (CSV is available for histograms) with
a meta block recording the tool version, field, budgets, seed, and wall
time.  Exit codes: 0 success, 1 input error, 2 budget exhaustion, 3 a
failed internal invariant check (a bug, reported with its message).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field as _field
from typing import Sequence

from . import __version__
from .cayley import (
    DEFAULT_CAP,
    bfs_explore,
    transvection_length_profile,
    word_recover,
)
from .classify import ELEMENT_BUDGET, certify, classify
from .classify import build_monomial_group, build_symmetric_rep
from .errors import (
    BadParameters,
    CapExceeded,
    InternalError,
    NotTransvection,
    ParseError,
    TransvectError,
)
from .forms import (
    QuadraticForm,
    SesquiForm,
    detect_invariant_form,
    recover_quadratic,
    transvective_split,
)
from .gf import Field, field_create
from .linalg import Mat
from .tgraph import (
    PROJECTIVE_BUDGET,
    WALK_BUDGET,
    build_graph,
    cycle_symplectic_defect,
    cycle_unitary_defect,
    defect,
    defining_field,
    is_dense,
    is_irreducible,
    scc,
)
from .transvections import Transvection, standard_full_field_set

COMMANDS = ("analyze", "classify", "certify", "diameter", "gen", "decompose")
GEN_KINDS = ("SL", "SP", "SU3", "O_char2", "monomial", "symmetric")
SPLIT_KINDS = ("linear", "symplectic", "unitary", "orthogonal")
BUDGET_ENV = "TRANSVECT_BUDGET_ELEMENTS"


def parse_field(spec: str) -> Field:
    """A field from its "p^f" spec (a bare "p" means degree 1)."""
    text = spec.strip()
    parts = text.split("^")
    try:
        if len(parts) == 1:
            p, f = int(parts[0]), 1
        elif len(parts) == 2:
            p, f = int(parts[0]), int(parts[1])
        else:
            raise ValueError(text)
    except ValueError:
        raise ParseError(f"bad field spec {spec!r}, expected \"p^f\"") from None
    return field_create(p, f)


def field_spec(F: Field) -> str:
    return f"{F.p}^{F.f}"


def parse_input(path: str) -> tuple[Field, list[Transvection]]:
    """Read a generator file {"field": "p^f", "generators": [...]}.

    Generator records are {"v": [...], "phi": [...]} or
    {"matrix": [[...]]}; matrices must be transvections.  Errors carry the
    line (for JSON syntax) or the generator index.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: invalid JSON at line {e.lineno}: {e.msg}",
                         line=e.lineno) from None
    if not isinstance(data, dict) or "field" not in data:
        raise ParseError(f"{path}: expected an object with a \"field\" key")
    F = parse_field(str(data["field"]))
    gens = data.get("generators")
    if not isinstance(gens, list):
        raise ParseError(f"{path}: expected a \"generators\" list")
    out = []
    for i, rec in enumerate(gens):
        if not isinstance(rec, dict):
            raise ParseError(f"{path}: generator {i} is not an object", index=i)
        try:
            out.append(Transvection.from_json(F, rec))
        except NotTransvection as e:
            raise NotTransvection(f"{path}: generator {i}: {e}", index=i) from None
        except TransvectError as e:
            raise ParseError(f"{path}: generator {i}: {e}", index=i) from None
        except (TypeError, ValueError) as e:
            raise ParseError(f"{path}: generator {i}: {e}", index=i) from None
    return F, out


def serialize_generators(F: Field, T: Sequence[Transvection]) -> dict:
    return {"field": field_spec(F), "generators": [t.to_json() for t in T]}


@dataclass(frozen=True)
class JobConfig:
    """One CLI invocation: the subcommand, its input, budget overrides,
    the output format, and the seed for randomized fallbacks (recorded in
    every report)."""

    command: str
    gens_path: str | None = None
    field: str | None = None
    budget_elements: int = ELEMENT_BUDGET
    budget_projective: int = PROJECTIVE_BUDGET
    budget_walks: int = WALK_BUDGET
    cap: int = DEFAULT_CAP
    out_format: str = "json"
    seed: int = 0
    options: dict = _field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.command not in COMMANDS:
            raise BadParameters(f"unknown subcommand {self.command!r}")
        for name in ("budget_elements", "budget_projective", "budget_walks", "cap"):
            if getattr(self, name) <= 0:
                raise BadParameters(f"{name} must be positive")
        if self.out_format not in ("json", "csv"):
            raise BadParameters("output format must be json or csv")

    def budgets(self) -> dict:
        return {
            "elements": self.budget_elements,
            "projective": self.budget_projective,
            "walks": self.budget_walks,
            "cap": self.cap,
        }


def _parse_matrix(F: Field, text: str) -> Mat:
    try:
        data = json.loads(text)
        return Mat.from_json(F, data)
    except (json.JSONDecodeError, TypeError, ValueError) as e:
        raise ParseError(f"bad matrix literal: {e}") from None


def _parse_vector(F: Field, text: str) -> tuple[int, ...]:
    try:
        data = json.loads(text)
        return tuple(F.check(a) for a in data)
    except (json.JSONDecodeError, TypeError, ValueError) as e:
        raise ParseError(f"bad vector literal: {e}") from None


def _run_analyze(job: JobConfig, F: Field, T: list[Transvection]) -> dict:
    G = build_graph(T)
    rep = is_irreducible(G)
    result: dict = {
        "n": G.n,
        "count": len(T),
        "scc_count": len(scc(G)),
        "irreducible": rep.irreducible,
        "failed_condition": rep.failed_condition,
        "defect": defect(G),
        "dense": is_dense(G, job.budget_projective)[0],
        "defining_field_degree": None,
        "cycles": [],
    }
    if rep.irreducible:
        dfr = defining_field(G, budget_walks=job.budget_walks)
        result["defining_field_degree"] = dfr.degree
        cycles = []
        for recw in dfr.witnesses:
            cyc = {
                "verts": list(recw.verts),
                "weight": recw.weight,
                "d_s": cycle_symplectic_defect(recw, G),
                "d_theta": (cycle_unitary_defect(recw, G)
                            if F.has_involution() else None),
            }
            cycles.append(cyc)
        result["cycles"] = cycles
        if job.options.get("forms"):
            result["forms"] = _analyze_forms(job, F, G)
    return result


def _analyze_forms(job: JobConfig, F: Field, G) -> dict:
    forms: dict = {}
    symp = detect_invariant_form(G, "identity", job.budget_walks)
    if isinstance(symp, SesquiForm):
        forms["symplectic"] = {"gram": symp.gram.to_json()}
    else:
        forms["symplectic"] = {"obstruction_cycle": list(symp.verts),
                               "defect": symp.defect}
    if F.has_involution():
        unit = detect_invariant_form(G, "theta", job.budget_walks)
        if isinstance(unit, SesquiForm):
            forms["unitary"] = {"gram": unit.gram.to_json()}
        else:
            forms["unitary"] = {"obstruction_cycle": list(unit.verts),
                                "defect": unit.defect}
    else:
        forms["unitary"] = None
    if isinstance(symp, SesquiForm) and F.p == 2:
        quad = recover_quadratic(G, symp)
        if isinstance(quad, QuadraticForm):
            forms["quadratic"] = {"coeffs": quad.coeffs.to_json()}
        else:
            forms["quadratic"] = {"violating_t": quad.index, "value": quad.value}
    else:
        forms["quadratic"] = None
    return forms


def _run_diameter(job: JobConfig, F: Field, T: list[Transvection]) -> dict:
    ex = bfs_explore([t.matrix() for t in T], job.cap)
    if job.options.get("profile", "full") == "transvections":
        T_all = ex.transvections()
        best, hist = transvection_length_profile(ex, T_all, job.cap)
        result = {"profile": "transvections", "order": ex.order,
                  "diameter": best, "histogram": list(hist),
                  "transvections": len(T_all)}
    else:
        result = {"profile": "full", "order": ex.order,
                  "diameter": ex.diameter, "histogram": list(ex.histogram)}
    target = job.options.get("witness")
    if target is not None:
        # witness words always index the input generator list
        M = _parse_matrix(F, target)
        word = word_recover(ex, M)
        result["witness"] = {"element": M.to_json(),
                             "word": [[i, e] for i, e in word],
                             "length": len(word)}
    return result


def _run_gen(job: JobConfig) -> dict:
    kind = job.options.get("kind")
    if kind not in GEN_KINDS:
        raise BadParameters(f"gen kind must be one of {', '.join(GEN_KINDS)}")
    if kind == "symmetric":
        m = job.options.get("m")
        if m is None:
            raise BadParameters("gen --kind symmetric needs --m")
        T = build_symmetric_rep(m)
        return serialize_generators(T[0].F, T)
    if job.field is None:
        raise BadParameters("gen needs --field p^f")
    F = parse_field(job.field)
    if kind == "monomial":
        n, a = job.options.get("n"), job.options.get("a")
        if n is None or a is None:
            raise BadParameters("gen --kind monomial needs --n and --a")
        return serialize_generators(F, build_monomial_group(n, a, F))
    n = job.options.get("n")
    if n is None:
        n = {"SL": 2, "SP": 2, "SU3": 3, "O_char2": 4}[kind]
    T = standard_full_field_set(kind, F, n, job.options.get("lam"))
    return serialize_generators(F, T)


def _run_decompose(job: JobConfig, F: Field, T: list[Transvection]) -> dict:
    target = job.options.get("target")
    vector = job.options.get("vector")
    if (target is None) == (vector is None):
        raise BadParameters("decompose needs exactly one of --target / --vector")
    if target is not None:
        M = _parse_matrix(F, target)
        ex = bfs_explore([t.matrix() for t in T], job.cap)
        word = word_recover(ex, M)
        return {"mode": "word", "target": M.to_json(),
                "word": [[i, e] for i, e in word], "length": len(word)}
    kind = job.options.get("kind")
    if kind not in SPLIT_KINDS:
        raise BadParameters(f"decompose --vector needs --kind from "
                            f"{', '.join(SPLIT_KINDS)}")
    v = _parse_vector(F, vector)
    n = len(v)
    G = build_graph(T)
    if G.n != n:
        raise BadParameters("vector length does not match the generators")
    form = None
    if kind == "unitary":
        form = detect_invariant_form(G, "theta", job.budget_walks)
        if not isinstance(form, SesquiForm):
            raise BadParameters("no invariant hermitian form to split against")
    elif kind == "orthogonal":
        symp = detect_invariant_form(G, "identity", job.budget_walks)
        if not isinstance(symp, SesquiForm):
            raise BadParameters("no invariant symplectic form on the input")
        form = recover_quadratic(G, symp)
        if not isinstance(form, QuadraticForm):
            raise BadParameters("no invariant quadratic form to split against")
    basis = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    parts = transvective_split(v, basis, kind, form, F)
    return {"mode": "split", "kind": kind, "vector": list(v),
            "parts": [list(p) for p in parts]}


def run(job: JobConfig) -> dict:
    """Execute one job and return the report (or, for gen, the generator
    file object)."""
    start = time.monotonic()
    field_text = job.field
    if job.command == "gen":
        return _run_gen(job)
    if job.gens_path is None:
        raise BadParameters(f"{job.command} needs --gens FILE")
    F, T = parse_input(job.gens_path)
    field_text = field_spec(F)
    if job.command == "analyze":
        result = _run_analyze(job, F, T)
    elif job.command == "classify":
        result = classify(T, job.budget_elements, job.budget_projective,
                          job.budget_walks).to_json()
    elif job.command == "certify":
        result = certify(T, job.budget_elements, job.budget_projective,
                         job.budget_walks, seed=job.seed).to_json()
    elif job.command == "diameter":
        result = _run_diameter(job, F, T)
    else:
        result = _run_decompose(job, F, T)
    wall_ms = int((time.monotonic() - start) * 1000)
    return {
        "command": job.command,
        "meta": {
            "tool": "transvect",
            "version": __version__,
            "field": field_text,
            "budgets": job.budgets(),
            "seed": job.seed,
            "wall_ms": wall_ms,
        },
        "result": result,
    }


def render(report: dict, out_format: str) -> str:
    """Serialize a report: canonical JSON, or CSV for histogram reports."""
    if out_format == "csv":
        result = report.get("result", report)
        if "histogram" not in result:
            raise BadParameters("csv output is restricted to histogram reports")
        lines = ["distance,count"]
        lines += [f"{d},{c}" for d, c in enumerate(result["histogram"])]
        return "\n".join(lines) + "\n"
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transvect",
        description="Recognize, certify, and measure groups generated by "
                    "transvections over finite fields.")
    parser.add_argument("--version", action="version",
                        version=f"transvect {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, gens: bool = True) -> None:
        if gens:
            p.add_argument("--gens", required=True, metavar="FILE",
                           help="generator file (JSON)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", metavar="FILE", help="write output here "
                       "instead of stdout")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("analyze", help="graph-level report: irreducibility, "
                       "density, defect, defining field, witness cycles")
    common(p)
    p.add_argument("--forms", action="store_true",
                   help="also detect invariant forms")
    p.add_argument("--budget-projective", type=int, default=PROJECTIVE_BUDGET)
    p.add_argument("--budget-walks", type=int, default=WALK_BUDGET)

    p = sub.add_parser("classify", help="classification report")
    common(p)
    p.add_argument("--budget-elements", type=int, default=None)
    p.add_argument("--budget-projective", type=int, default=PROJECTIVE_BUDGET)
    p.add_argument("--budget-walks", type=int, default=WALK_BUDGET)

    p = sub.add_parser("certify", help="certificate for a classical group")
    common(p)
    p.add_argument("--budget-elements", type=int, default=None)
    p.add_argument("--budget-projective", type=int, default=PROJECTIVE_BUDGET)
    p.add_argument("--budget-walks", type=int, default=WALK_BUDGET)

    p = sub.add_parser("diameter", help="Cayley-graph diameter by BFS")
    common(p)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--profile", choices=("full", "transvections"),
                   default="full")
    p.add_argument("--witness", metavar="MATRIX",
                   help="also emit a shortest word for this element "
                        "(JSON matrix literal)")

    p = sub.add_parser("gen", help="emit a standard generator file")
    common(p, gens=False)
    p.add_argument("--kind", required=True, choices=GEN_KINDS)
    p.add_argument("--field", metavar="p^f")
    p.add_argument("--n", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--lam", type=int)

    p = sub.add_parser("decompose", help="shortest word for an element, or "
                       "a transvective split of a vector")
    common(p)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--target", metavar="MATRIX", help="element to express "
                   "as a word in the generators (JSON matrix literal)")
    p.add_argument("--vector", metavar="VEC", help="vector to split (JSON "
                   "list literal)")
    p.add_argument("--kind", choices=SPLIT_KINDS, default="linear")

    return parser


def _env_budget() -> int | None:
    raw = os.environ.get(BUDGET_ENV)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise BadParameters(f"{BUDGET_ENV} must be an integer, got {raw!r}") from None


def job_from_args(args: argparse.Namespace) -> JobConfig:
    env_cap = _env_budget()
    options: dict = {}
    kwargs: dict = {
        "command": args.command,
        "out_format": args.format,
        "seed": args.seed,
    }
    if getattr(args, "gens", None) is not None:
        kwargs["gens_path"] = args.gens
    if getattr(args, "field", None) is not None:
        kwargs["field"] = args.field
    be = getattr(args, "budget_elements", None)
    if be is not None:
        kwargs["budget_elements"] = be
    elif env_cap is not None:
        kwargs["budget_elements"] = env_cap
    cap = getattr(args, "cap", None)
    if cap is not None:
        kwargs["cap"] = cap
    elif env_cap is not None:
        kwargs["cap"] = env_cap
    for name in ("budget_projective", "budget_walks"):
        val = getattr(args, name, None)
        if val is not None:
            kwargs[name] = val
    for name in ("forms", "profile", "witness", "kind", "n", "a", "m",
                 "lam", "target", "vector"):
        val = getattr(args, name, None)
        if val is not None:
            options[name] = val
    kwargs["options"] = options
    return JobConfig(**kwargs)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        job = job_from_args(args)
        report = run(job)
        text = render(report, job.out_format)
    except CapExceeded as e:
        print(f"transvect: budget exhausted: {e}", file=sys.stderr)
        return 2
    except InternalError as e:
        print(f"transvect: internal error: {e}", file=sys.stderr)
        return 3
    except (TransvectError, OSError) as e:
        print(f"transvect: error: {e}", file=sys.stderr)
        return 1
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
