"""Command-line front end: parse generator files, run analyses, emit reports.

One binary, subcommand style: analyze | classify | certify | diameter |
gen | decompose, each with only the flags it reads.  Reports are JSON
(`diameter --format csv` writes the histogram alone) with a meta block
recording the tool version, field, budgets, seed (the one `certify` draws
from, 0 elsewhere), and wall time.  The element budget and the search cap
are set by flags; the projective and walk budgets are the fixed
`tgraph.PROJECTIVE_BUDGET` and `tgraph.WALK_BUDGET`.  Exit codes: 0
success, 1 input or usage error (an unknown flag or a malformed value
among them), 2 budget exhaustion, 3 a failed internal invariant check (a
bug, reported with its message).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from typing import Sequence

from . import __version__, tgraph
from .cayley import (
    DEFAULT_CAP,
    bfs_explore,
    shortest_word,
    transvection_length_profile,
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
    is_transvective,
    recover_quadratic,
    transvective_split,
)
from .gf import Field, field_create
from .linalg import Mat, Subspace
from .tgraph import (
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

GEN_KINDS = ("SL", "SP", "SU3", "O_char2", "monomial", "symmetric")
SPLIT_KINDS = ("linear", "symplectic", "unitary", "orthogonal")


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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text: {e.reason}") from None
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


def _run_analyze(args: argparse.Namespace, F: Field,
                 T: list[Transvection]) -> dict:
    G = build_graph(T)
    rep = is_irreducible(G)
    try:
        dense = is_dense(G)[0]
    except CapExceeded:  # q^n past the projective budget: density unknown
        dense = None
    result: dict = {
        "n": G.n,
        "count": len(T),
        "scc_count": len(scc(G)),
        "irreducible": rep.irreducible,
        "failed_condition": rep.failed_condition,
        "defect": defect(G),
        "dense": dense,
        "defining_field_degree": None,
        "cycles": [],
    }
    if rep.irreducible:
        dfr = defining_field(G)
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
        if args.forms:
            result["forms"] = _analyze_forms(F, G)
    return result


def _analyze_forms(F: Field, G) -> dict:
    forms: dict = {}
    symp = detect_invariant_form(G, "identity")
    if isinstance(symp, SesquiForm):
        forms["symplectic"] = {"gram": symp.gram.to_json()}
    else:
        forms["symplectic"] = {"obstruction_cycle": list(symp.verts),
                               "defect": symp.defect}
    if F.has_involution():
        unit = detect_invariant_form(G, "theta")
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


def _run_diameter(args: argparse.Namespace, T: list[Transvection]) -> dict:
    ex = bfs_explore([t.matrix() for t in T], args.cap, words=False)
    if args.profile == "transvections":
        T_all = ex.transvections()
        best, hist = transvection_length_profile(ex, T_all, args.cap)
        return {"profile": "transvections", "order": ex.order,
                "diameter": best, "histogram": list(hist),
                "transvections": len(T_all)}
    return {"profile": "full", "order": ex.order,
            "diameter": ex.diameter, "histogram": list(ex.histogram)}


def _run_gen(args: argparse.Namespace) -> dict:
    kind = args.kind
    # the flags each kind reads; setting any other one is an input error
    reads = {"symmetric": ("m",), "monomial": ("field", "n", "a")}.get(
        kind, ("field", "n", "lam"))
    for name in ("field", "n", "a", "m", "lam"):
        if name not in reads and getattr(args, name) is not None:
            raise BadParameters(f"gen --kind {kind} does not read --{name}")
    if kind == "symmetric":
        if args.m is None:
            raise BadParameters("gen --kind symmetric needs --m")
        T = build_symmetric_rep(args.m)
        return serialize_generators(T[0].F, T)
    if args.field is None:
        raise BadParameters("gen needs --field p^f")
    F = parse_field(args.field)
    if kind == "monomial":
        if args.n is None or args.a is None:
            raise BadParameters("gen --kind monomial needs --n and --a")
        return serialize_generators(F, build_monomial_group(args.n, args.a, F))
    n = args.n
    if n is None:
        n = {"SL": 2, "SP": 2, "SU3": 3, "O_char2": 4}[kind]
    return serialize_generators(F, standard_full_field_set(kind, F, n, args.lam))


def _run_decompose(args: argparse.Namespace, F: Field,
                   T: list[Transvection]) -> dict:
    if (args.target is None) == (args.vector is None):
        raise BadParameters("decompose needs exactly one of --target / --vector")
    if args.target is not None:
        M = _parse_matrix(F, args.target)
        word = shortest_word([t.matrix() for t in T], M, args.cap)
        return {"mode": "word", "target": M.to_json(),
                "word": [[i, e] for i, e in word], "length": len(word)}
    kind = args.kind
    v = _parse_vector(F, args.vector)
    n = len(v)
    G = build_graph(T)
    if G.n != n:
        raise BadParameters("vector length does not match the generators")
    form = None
    if kind == "unitary":
        form = detect_invariant_form(G, "theta")
        if not isinstance(form, SesquiForm):
            raise BadParameters("no invariant hermitian form to split against")
    elif kind == "orthogonal":
        symp = detect_invariant_form(G, "identity")
        if not isinstance(symp, SesquiForm):
            raise BadParameters("no invariant symplectic form on the input")
        form = recover_quadratic(G, symp)
        if not isinstance(form, QuadraticForm):
            raise BadParameters("no invariant quadratic form to split against")
    basis = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    if not all(is_transvective(b, kind, form) for b in basis):
        basis = [T[i].v for i in Subspace.zero(F, n).extension(t.v for t in T)]
    parts = transvective_split(v, basis, kind, form, F)
    return {"mode": "split", "kind": kind, "vector": list(v),
            "parts": [list(p) for p in parts]}


def run(args: argparse.Namespace) -> dict:
    """Execute one parsed command line and return the report (or, for gen,
    the generator file object)."""
    start = time.monotonic()
    if args.command == "gen":
        return _run_gen(args)
    F, T = parse_input(args.gens)
    if args.command == "analyze":
        result = _run_analyze(args, F, T)
    elif args.command == "classify":
        result = classify(T, args.budget_elements).to_json()
    elif args.command == "certify":
        result = certify(T, args.budget_elements, seed=args.seed).to_json()
    elif args.command == "diameter":
        result = _run_diameter(args, T)
    else:
        result = _run_decompose(args, F, T)
    wall_ms = int((time.monotonic() - start) * 1000)
    return {
        "command": args.command,
        "meta": {
            "tool": "transvect",
            "version": __version__,
            "field": field_spec(F),
            "budgets": {
                "elements": args.budget_elements,
                "projective": tgraph.PROJECTIVE_BUDGET,
                "walks": tgraph.WALK_BUDGET,
                "cap": args.cap,
            },
            "seed": args.seed,
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


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 like other input errors, not argparse's 2, which
    here means an exhausted budget; subcommand parsers inherit this."""

    def error(self, message: str):
        self.exit(1, f"transvect: error: {message}\n{self.format_usage()}")


class _Positive(argparse.Action):
    """A positive integer option; zero or less is a usage error (argparse
    has already rejected a value that is not an integer)."""

    def __call__(self, parser, namespace, value, option_string=None):
        if value <= 0:
            parser.error(f"argument {option_string}: expected a positive "
                         f"integer, got {value}")
        setattr(namespace, self.dest, value)


@functools.cache  # parsing does not change the parser; build it once
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="transvect",
        description="Recognize, certify, and measure groups generated by "
                    "transvections over finite fields.")
    parser.add_argument("--version", action="version",
                        version=f"transvect {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str, gens: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        # meta records the seed and both budgets, main reads the format and
        # shows this usage for a stray flag; a flag below overrides its default
        p.set_defaults(seed=0, format="json", budget_elements=ELEMENT_BUDGET,
                       cap=DEFAULT_CAP, parser=p)
        if gens:
            p.add_argument("--gens", required=True, metavar="FILE",
                           help="generator file (JSON)")
        p.add_argument("--out", metavar="FILE", help="write output here "
                       "instead of stdout")
        return p

    p = command("analyze", "graph-level report: irreducibility, density, "
                "defect, defining field, witness cycles")
    p.add_argument("--forms", action="store_true",
                   help="also detect invariant forms")

    p = command("classify", "classification report")
    p.add_argument("--budget-elements", type=int, action=_Positive)

    p = command("certify", "certificate for a classical group")
    p.add_argument("--budget-elements", type=int, action=_Positive)
    p.add_argument("--seed", type=int, help="seed of the stability spot check")

    p = command("diameter", "Cayley-graph diameter by BFS")
    p.add_argument("--cap", type=int, action=_Positive)
    p.add_argument("--profile", choices=("full", "transvections"),
                   default="full")
    p.add_argument("--format", choices=("json", "csv"),
                   help="csv writes the histogram alone")

    p = command("gen", "emit a standard generator file", gens=False)
    p.add_argument("--kind", required=True, choices=GEN_KINDS, help="SL, SP "
                   "and SU3 are irreducible only at n = 2, 2 and 3, O_char2 never")
    p.add_argument("--field", metavar="p^f")
    p.add_argument("--n", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--lam", type=int)

    p = command("decompose", "shortest word for an element, or a "
                "transvective split of a vector")
    p.add_argument("--cap", type=int, action=_Positive)
    p.add_argument("--target", metavar="MATRIX", help="element to express "
                   "as a word in the generators (JSON matrix literal)")
    p.add_argument("--vector", metavar="VEC", help="vector to split (JSON "
                   "list literal)")
    p.add_argument("--kind", choices=SPLIT_KINDS, default="linear")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    if extra:
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        text = render(run(args), args.format)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except CapExceeded as e:
        print(f"transvect: budget exhausted: {e}", file=sys.stderr)
        return 2
    except InternalError as e:
        print(f"transvect: internal error: {e}", file=sys.stderr)
        return 3
    except (TransvectError, OSError) as e:
        print(f"transvect: error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
