"""Tests for the command-line front end: parsing, reports, exit codes."""

from __future__ import annotations

import itertools
import json

import pytest

from transvect import cayley
from transvect.cli import (
    _parse_vector,
    build_parser,
    field_spec,
    main,
    parse_field,
    parse_input,
    render,
    serialize_generators,
)
from transvect.errors import (
    BadParameters,
    FieldMismatch,
    InternalError,
    NotTransvection,
    ParseError,
)
from transvect.forms import detect_invariant_form, is_transvective, recover_quadratic
from transvect.gf import field_create
from transvect.linalg import Mat
from transvect.tgraph import build_graph, word_matrix
from transvect.transvections import Transvection, standard_full_field_set

F2 = field_create(2, 1)
F4 = field_create(2, 2)


def write_gens(path, field, gens):
    path.write_text(json.dumps({"field": field, "generators": gens}))
    return str(path)


def sl22_file(tmp_path):
    return write_gens(tmp_path / "sl22.json", "2^1", [
        {"v": [1, 0], "phi": [0, 1]},
        {"v": [0, 1], "phi": [1, 0]},
    ])


def sp42_file(tmp_path):
    rc = main(["gen", "--kind", "symmetric", "--m", "6",
               "--out", str(tmp_path / "sp42.json")])
    assert rc == 0
    return str(tmp_path / "sp42.json")


def run_json(tmp_path, argv):
    out = tmp_path / "out.json"
    rc = main(argv + ["--out", str(out)])
    assert rc == 0, argv
    return json.loads(out.read_text())


# -- field specs and input files -----------------------------------------------


def test_parse_field():
    F = parse_field("2^2")
    assert (F.p, F.f) == (2, 2)
    assert (parse_field("3").p, parse_field("3").f) == (3, 1)
    assert field_spec(F) == "2^2"
    with pytest.raises(ParseError):
        parse_field("2^2^2")
    with pytest.raises(ParseError):
        parse_field("banana")


def test_parse_input_round_trip(tmp_path):
    T = [Transvection(F4, (1, 0), (0, 2)), Transvection(F4, (0, 1), (1, 0))]
    blob = serialize_generators(F4, T)
    p = tmp_path / "g.json"
    p.write_text(json.dumps(blob))
    F, T2 = parse_input(str(p))
    assert F == F4 and T2 == T
    # serialize -> parse -> serialize is the identity on the JSON object
    assert serialize_generators(F, T2) == blob


def test_parse_input_accepts_matrix_records(tmp_path):
    t = Transvection(F2, (1, 0), (0, 1))
    path = write_gens(tmp_path / "m.json", "2^1", [
        {"matrix": t.matrix().to_json()},
        {"v": [0, 1], "phi": [1, 0]},
    ])
    F, T = parse_input(path)
    assert T[0] == t
    assert len(T) == 2


def test_parse_input_identity_rejected_with_index(tmp_path):
    path = write_gens(tmp_path / "i.json", "2^1", [
        {"matrix": [[1, 0], [0, 1]]},
    ])
    with pytest.raises(NotTransvection) as ei:
        parse_input(path)
    assert ei.value.index == 0


def test_parse_input_non_transvection_index(tmp_path):
    path = write_gens(tmp_path / "r.json", "2^1", [
        {"v": [1, 0], "phi": [0, 1]},
        {"matrix": [[0, 1], [1, 1]]},  # order 3, not unipotent
    ])
    with pytest.raises(NotTransvection) as ei:
        parse_input(path)
    assert ei.value.index == 1


def test_parse_input_syntax_and_shape_errors(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{\n  \"field\": \"2^1\",\n  oops\n}")
    with pytest.raises(ParseError) as ei:
        parse_input(str(p))
    assert ei.value.line == 3
    p.write_text(json.dumps(["no", "object"]))
    with pytest.raises(ParseError):
        parse_input(str(p))
    p.write_text(json.dumps({"field": "2^1", "generators": "nope"}))
    with pytest.raises(ParseError):
        parse_input(str(p))
    p.write_text(json.dumps({"field": "2^1", "generators": [{"v": [1, 0]}]}))
    with pytest.raises(ParseError) as ei:
        parse_input(str(p))
    assert ei.value.index == 0


def test_non_utf8_generator_file_is_a_parse_error(tmp_path, capsys):
    p = tmp_path / "latin1.json"
    p.write_bytes(b'{"field": "2^1", "generators": [], "note": "caf\xe9"}')
    with pytest.raises(ParseError, match="not UTF-8"):
        parse_input(str(p))
    assert main(["classify", "--gens", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("transvect: error:") and "not UTF-8" in err


def test_unwritable_out_path_is_an_error(tmp_path, capsys):
    out = tmp_path / "no-such-dir" / "report.json"
    assert main(["classify", "--gens", sl22_file(tmp_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("transvect: error:") and "report.json" in err
    assert not out.exists()
    out = tmp_path / "gens.json"
    out.mkdir()
    assert main(["gen", "--kind", "symmetric", "--m", "6", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("transvect: error:")


def usage_error(argv, capsys) -> str:
    """The usage error line of an invocation that argparse rejects."""
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1, argv
    err = capsys.readouterr().err
    assert err.startswith("transvect: error: "), argv
    return err.splitlines()[0]


def test_job_config_validation(capsys):
    # a job's settings are checked while parsing: an unknown subcommand, a
    # budget that is not positive and an unknown format are usage errors
    assert "invalid choice: 'dance'" in usage_error(["dance"], capsys)
    assert "expected a positive integer, got 0" in usage_error(
        ["classify", "--gens", "x", "--budget-elements", "0"], capsys)
    assert "invalid choice: 'xml'" in usage_error(
        ["diameter", "--gens", "x", "--format", "xml"], capsys)
    args = build_parser().parse_args(["certify", "--gens", "x", "--seed", "7"])
    assert args.seed == 7
    assert args.budget_elements > 0


# each subcommand takes only the flags it reads: --seed is certify's alone,
# --format diameter's alone, and a shortest word comes from decompose --target
REMOVED_FLAGS = [
    ("analyze", "--seed", "5"),
    ("analyze", "--format", "json"),
    ("classify", "--seed", "5"),
    ("classify", "--format", "csv"),
    ("certify", "--format", "json"),
    ("diameter", "--seed", "5"),
    ("diameter", "--witness", "[[1,0],[0,1]]"),
    ("gen", "--seed", "5"),
    ("gen", "--format", "json"),
    ("decompose", "--seed", "5"),
    ("decompose", "--format", "json"),
]


@pytest.mark.parametrize("sub,flag,value", REMOVED_FLAGS,
                         ids=[f"{sub} {flag}" for sub, flag, _ in REMOVED_FLAGS])
def test_flags_a_subcommand_does_not_read_are_usage_errors(
        tmp_path, capsys, sub, flag, value):
    if sub == "gen":
        argv = ["gen", "--kind", "symmetric", "--m", "6"]
    else:
        argv = [sub, "--gens", sl22_file(tmp_path)]
    assert f"unrecognized arguments: {flag}" in usage_error(
        argv + [flag, value, "--out", str(tmp_path / "x.json")], capsys)
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("argv,usage", [
    (["classify", "--seed", "5"], "usage: transvect classify [-h] --gens FILE"),
    (["diameter", "--witness", "[[1,0],[0,1]]"],
     "usage: transvect diameter [-h] --gens FILE"),
])
def test_a_stray_flag_shows_the_usage_of_its_subcommand(tmp_path, capsys, argv, usage):
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(argv[:1] + ["--gens", sl22_file(tmp_path)] + argv[1:])
    assert exc.value.code == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0] == f"transvect: error: unrecognized arguments: {' '.join(argv[1:])}"
    assert err[1].startswith(usage)


# -- subcommands -----------------------------------------------------------------


def test_gen_sl_weights_generate_field(tmp_path):
    rep = run_json(tmp_path, ["gen", "--kind", "SL", "--field", "2^2"])
    assert rep["field"] == "2^2"
    assert len(rep["generators"]) == 2
    F, T = parse_input(str(tmp_path / "out.json"))
    # the 2-cycle weight phi_t(v_s) * phi_s(v_t) generates GF(4)
    t01 = 0
    for a, b in zip(T[0].phi, T[1].v):
        t01 = F.add(t01, F.mul(a, b))
    t10 = 0
    for a, b in zip(T[1].phi, T[0].v):
        t10 = F.add(t10, F.mul(a, b))
    assert F.subfield_generated([F.mul(t01, t10)]) == 2


def test_gen_kinds(tmp_path):
    rep = run_json(tmp_path, ["gen", "--kind", "monomial", "--field", "2^2",
                              "--n", "3", "--a", "3"])
    assert len(rep["generators"]) == 9
    rep = run_json(tmp_path, ["gen", "--kind", "symmetric", "--m", "5"])
    assert rep["field"] == "2^1"
    assert len(rep["generators"]) == 4
    rep = run_json(tmp_path, ["gen", "--kind", "SU3", "--field", "3^2"])
    assert len(rep["generators"]) == 3


@pytest.mark.parametrize("kind,field,n,tag", [
    ("SL", "2^1", None, "Linear"),
    ("SL", "3^1", None, "Linear"),
    ("SL", "2^2", None, "OrthogonalMinus"),  # SL2(4) = O4-(2)
    ("SP", "2^1", None, "Linear"),
    ("SP", "3^1", None, "Linear"),
    ("SU3", "2^2", None, "Monomial(3)"),
    ("SU3", "3^2", None, "Unitary"),
    ("O_char2", "2^1", None, None),
    ("O_char2", "2^2", None, None),
    ("SL", "3^1", 3, None),
    ("SP", "3^1", 4, None),
    ("SU3", "3^2", 4, None),
])
def test_gen_field_witness_sets_are_irreducible_only_at_their_default_n(
        tmp_path, capsys, kind, field, n, tag):
    # the v's span a plane (SL, SP, O_char2) or a 3-space (SU3)
    path = str(tmp_path / "gens.json")
    argv = ["gen", "--kind", kind, "--field", field, "--out", path]
    assert main(argv + ([] if n is None else ["--n", str(n)])) == 0
    capsys.readouterr()
    if tag is None:
        assert main(["classify", "--gens", path]) == 1
        assert "needs an irreducible action" in capsys.readouterr().err
    else:
        assert run_json(tmp_path, ["classify", "--gens", path])["result"]["tag"] == tag


@pytest.mark.parametrize("kind,argv", [
    ("symmetric", ["--m", "6", "--field", "3^1"]),
    ("symmetric", ["--m", "6", "--n", "4"]),
    ("symmetric", ["--m", "6", "--a", "3"]),
    ("symmetric", ["--m", "6", "--lam", "1"]),
    ("SL", ["--field", "3^1", "--m", "9"]),
    ("SL", ["--field", "3^1", "--a", "5"]),
    ("SU3", ["--field", "3^2", "--a", "5"]),
    ("monomial", ["--field", "2^2", "--n", "3", "--a", "3", "--m", "6"]),
    ("monomial", ["--field", "2^2", "--n", "3", "--a", "3", "--lam", "1"]),
])
def test_gen_rejects_flags_its_kind_does_not_read(tmp_path, capsys, kind, argv):
    # the flag the kind does not read comes last, before its value
    out = tmp_path / "gens.json"
    assert main(["gen", "--kind", kind, *argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"transvect: error: gen --kind {kind} does not read {argv[-2]}\n")
    assert not out.exists()


def test_gen_missing_arguments():
    assert main(["gen", "--kind", "symmetric"]) == 1
    assert main(["gen", "--kind", "SL"]) == 1
    assert main(["gen", "--kind", "monomial", "--field", "2^2"]) == 1


@pytest.mark.parametrize("kind,field,n,lam", [
    ("SL", "2^1", 2, 7),
    ("SP", "3^1", 4, 3),
    ("SU3", "2^2", 3, 9),
    ("SU3", "2^2", 3, -2),
    ("SL", "2^2", 2, -1),
])
def test_gen_rejects_lam_outside_the_field(kind, field, n, lam, capsys):
    with pytest.raises(FieldMismatch):
        standard_full_field_set(kind, parse_field(field), n, lam)
    assert main(["gen", "--kind", kind, "--field", field, "--n", str(n),
                 "--lam", str(lam)]) == 1
    assert "is not an element of" in capsys.readouterr().err


def test_classify_sp42(tmp_path):
    path = sp42_file(tmp_path)
    rep = run_json(tmp_path, ["classify", "--gens", path])
    assert rep["command"] == "classify"
    assert rep["result"]["tag"] == "Symplectic"
    assert rep["result"]["order_enumerated"] == 720
    meta = rep["meta"]
    assert meta["tool"] == "transvect"
    assert meta["field"] == "2^1"
    assert meta["seed"] == 0
    assert "wall_ms" in meta
    assert meta["budgets"]["elements"] > 0


def test_walk_and_projective_budgets_are_not_flags(tmp_path, capsys):
    # both budgets are fixed in `tgraph`; a flag for either is a usage
    # error, which exits 1 like any input error, not 2 (budget exhausted)
    path = sp42_file(tmp_path)
    for sub in ("analyze", "classify", "certify"):
        for flag, val in (("--budget-projective", "8"), ("--budget-walks", "5")):
            with pytest.raises(SystemExit) as exc:
                main([sub, "--gens", path, flag, val])
            assert exc.value.code == 1
            err = capsys.readouterr().err
            assert err.startswith("transvect: error: unrecognized arguments")
            assert flag in err


def test_usage_errors_exit_1(tmp_path, capsys):
    path = sp42_file(tmp_path)
    for argv in (["classify", "--gens", path, "--budget-elements", "abc"],
                 ["classify", "--gens", path, "--no-such-flag"],
                 ["classify"],
                 ["no-such-command"],
                 [],
                 # out-of-range values are rejected while parsing too
                 ["classify", "--gens", path, "--budget-elements", "0"],
                 ["certify", "--gens", path, "--budget-elements", "-3"],
                 ["diameter", "--gens", path, "--cap", "-1"],
                 ["decompose", "--gens", path, "--cap", "0", "--vector", "[1,0]"],
                 ["diameter", "--gens", path, "--format", "xml"]):
        usage_error(argv, capsys)
    for argv in (["--help"], ["--version"], ["classify", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0, argv
    capsys.readouterr()


def test_default_budgets_in_every_report(tmp_path):
    path = sp42_file(tmp_path)
    want = {"elements": 10**7, "projective": 2**20, "walks": 10**6, "cap": 10**7}
    for sub in ("analyze", "classify", "certify", "diameter"):
        assert run_json(tmp_path, [sub, "--gens", path])["meta"]["budgets"] == want


def test_classify_reducible_input_is_error(tmp_path):
    path = write_gens(tmp_path / "red.json", "2^1",
                      [{"v": [1, 0], "phi": [0, 1]}])
    assert main(["classify", "--gens", path]) == 1


def test_certify_report(tmp_path):
    path = sp42_file(tmp_path)
    rep = run_json(tmp_path, ["certify", "--gens", path])
    res = rep["result"]
    kinds = [p["kind"] for p in res["properties"]]
    assert "field-witnesses" in kinds
    assert "symmetric-exclusion" in kinds
    assert len(res["T0"]) == len(res["words"])


def test_analyze_report_keys(tmp_path):
    path = sp42_file(tmp_path)
    rep = run_json(tmp_path, ["analyze", "--gens", path])
    res = rep["result"]
    for key in ("scc_count", "irreducible", "failed_condition", "defect",
                "defining_field_degree", "cycles", "dense"):
        assert key in res
    assert res["irreducible"] is True
    assert res["scc_count"] == 1
    assert "forms" not in res
    rep = run_json(tmp_path, ["analyze", "--gens", path, "--forms"])
    forms = rep["result"]["forms"]
    assert "gram" in forms["symplectic"]
    assert forms["unitary"] is None
    assert "violating_t" in forms["quadratic"]


def test_analyze_reports_density_unknown_past_the_projective_budget(tmp_path):
    # the SL12(4) root elements x_12(1), x_12(w), x_(i,i+1), x_(12,1):
    # q^n = 2^24 points are past the density scan's budget, and the rest of
    # the report does not depend on that scan
    n = 12

    def e(i, c=1):
        return tuple(c * (j == i) for j in range(n))

    T = ([Transvection(F4, e(0), e(1, c)) for c in (1, 2)]
         + [Transvection(F4, e(i), e((i + 1) % n)) for i in range(1, n)])
    path = tmp_path / "sl12-4.json"
    path.write_text(json.dumps(serialize_generators(F4, T)))
    res = run_json(tmp_path, ["analyze", "--gens", str(path)])["result"]
    assert res["dense"] is None
    assert res["irreducible"] is True
    assert res["defining_field_degree"] == 2


def test_analyze_cycles_have_defects(tmp_path):
    path = str(tmp_path / "sl24.json")
    assert main(["gen", "--kind", "SL", "--field", "2^2", "--out", path]) == 0
    rep = run_json(tmp_path, ["analyze", "--gens", path])
    cycles = rep["result"]["cycles"]
    assert cycles
    for c in cycles:
        assert set(c) == {"verts", "weight", "d_s", "d_theta"}
    assert rep["result"]["defining_field_degree"] == 2


def test_diameter_sl22(tmp_path):
    path = sl22_file(tmp_path)
    rep = run_json(tmp_path, ["diameter", "--gens", path])
    assert rep["result"] == {"profile": "full", "order": 6, "diameter": 3,
                             "histogram": [1, 2, 2, 1]}


def test_diameter_witness_word_evaluates(tmp_path):
    # a word from decompose --target evaluates to its element, and over all
    # of SL2(2) the word lengths are the diameter's histogram
    path = sl22_file(tmp_path)
    F, T = parse_input(path)
    lengths = []
    for a, b, c, d in itertools.product((0, 1), repeat=4):
        if (a * d - b * c) % 2 != 1:
            continue
        target = [[a, b], [c, d]]
        res = run_json(tmp_path, ["decompose", "--gens", path,
                                  "--target", json.dumps(target)])["result"]
        M = word_matrix(T, tuple((i, e) for i, e in res["word"]))
        assert M.to_json() == target
        assert res["length"] == len(res["word"])
        lengths.append(res["length"])
    hist = run_json(tmp_path, ["diameter", "--gens", path])["result"]["histogram"]
    assert [lengths.count(k) for k in range(len(hist))] == hist


def test_diameter_transvections_profile(tmp_path):
    path = sl22_file(tmp_path)
    rep = run_json(tmp_path, ["diameter", "--gens", path,
                              "--profile", "transvections"])
    res = rep["result"]
    assert res["order"] == 6
    assert res["transvections"] == 3
    assert res["diameter"] == 2


def sl3_triangle_file(tmp_path):
    return write_gens(tmp_path / "sl32.json", "2^1", [
        {"v": [1, 0, 0], "phi": [0, 1, 0]},
        {"v": [0, 1, 0], "phi": [0, 0, 1]},
        {"v": [0, 0, 1], "phi": [1, 0, 0]},
    ])


def sl2_root_file(tmp_path, field, lams):
    """x_12(lam) for each lam, then x_21(1)."""
    gens = [{"v": [1, 0], "phi": [0, lam]} for lam in lams]
    return write_gens(tmp_path / "sl2.json", field,
                      gens + [{"v": [0, 1], "phi": [1, 0]}])


# Reports of `diameter --profile transvections`, each with an element and
# its word over the input generators from `decompose --target`.
PROFILE_GOLDEN = {
    "SL2(3)": (lambda tmp: sl2_root_file(tmp, "3^1", [1]),
               {"order": 24, "diameter": 3, "histogram": [1, 8, 14, 1],
                "transvections": 8},
               [[0, 1], [2, 0]], [[0, 1], [1, -1], [0, 1]]),
    "SL2(9)": (lambda tmp: sl2_root_file(tmp, "3^2", [1, 4]),
               {"order": 720, "diameter": 3, "histogram": [1, 80, 638, 1],
                "transvections": 80},
               [[0, 1], [2, 0]], [[0, 1], [2, -1], [0, 1]]),
    "SL3(2)": (sl3_triangle_file,
               {"order": 168, "diameter": 3, "histogram": [1, 21, 98, 48],
                "transvections": 21},
               [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
               [[0, 1], [1, 1], [2, 1], [0, 1], [1, 1], [2, 1], [0, 1]]),
    "Sp4(2)": (sp42_file,
               {"order": 720, "diameter": 5,
                "histogram": [1, 15, 85, 225, 274, 120], "transvections": 15},
               [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
               [[0, 1], [2, 1]]),
}


@pytest.mark.parametrize("witness", [False, True])
@pytest.mark.parametrize("group", sorted(PROFILE_GOLDEN))
def test_diameter_profile_golden(tmp_path, group, witness):
    make, expected, element, word = PROFILE_GOLDEN[group]
    path = make(tmp_path)
    if witness:
        argv = ["decompose", "--gens", path, "--target", json.dumps(element)]
        assert run_json(tmp_path, argv)["result"] == {
            "mode": "word", "target": element, "word": word,
            "length": len(word)}
    else:
        argv = ["diameter", "--gens", path, "--profile", "transvections"]
        assert run_json(tmp_path, argv)["result"] == {
            "profile": "transvections", **expected}


def test_diameter_profile_past_the_vector_budget(tmp_path):
    # q^n = 2^18: the profile runs the same capped search as --profile full
    path = write_gens(tmp_path / "gf512.json", "2^9", [
        {"v": [1, 0], "phi": [0, 1]},
        {"v": [0, 1], "phi": [1, 0]},
    ])
    rep = run_json(tmp_path, ["diameter", "--gens", path,
                              "--profile", "transvections"])
    assert rep["result"] == {"profile": "transvections", "order": 6,
                             "diameter": 2, "histogram": [1, 3, 2],
                             "transvections": 3}


@pytest.mark.parametrize("profile", ["full", "transvections"])
def test_diameter_over_cap(tmp_path, capsys, profile):
    path = sp42_file(tmp_path)
    capsys.readouterr()
    assert main(["diameter", "--gens", path, "--profile", profile,
                 "--cap", "50"]) == 2
    err = capsys.readouterr().err
    assert err == "transvect: budget exhausted: exploration exceeded 50 elements\n"


def test_diameter_profile_runs_two_searches(tmp_path, monkeypatch):
    calls = []
    explore = cayley._Search.explore

    def counting(self, *args, **kwargs):
        calls.append(len(self.tables))
        return explore(self, *args, **kwargs)

    monkeypatch.setattr(cayley._Search, "explore", counting)
    run_json(tmp_path, ["diameter", "--gens", sl3_triangle_file(tmp_path),
                        "--profile", "transvections"])
    # one search over X (involutions, so their own inverses), one over the
    # 21 transvections of SL3(2)
    assert calls == [3, 21]


def test_decompose_target_of_another_size_is_an_input_error(tmp_path, capsys):
    # a 2 x 2 target for a 3 x 3 set is rejected as such, not reported as
    # an element the search did not reach
    path = sl3_triangle_file(tmp_path)
    assert main(["decompose", "--gens", path, "--target", "[[1,0],[0,1]]"]) == 1
    err = capsys.readouterr().err
    assert err == "transvect: error: element does not match the generators\n"


def test_diameter_csv(tmp_path):
    path = sl22_file(tmp_path)
    out = tmp_path / "hist.csv"
    rc = main(["diameter", "--gens", path, "--format", "csv",
               "--out", str(out)])
    assert rc == 0
    assert out.read_text() == "distance,count\n0,1\n1,2\n2,2\n3,1\n"


def test_csv_rejected_for_non_histogram(tmp_path, capsys):
    # only diameter reports a histogram, and only diameter takes --format
    path = sl22_file(tmp_path)
    usage_error(["classify", "--gens", path, "--format", "csv"], capsys)


def test_decompose_word(tmp_path):
    # the one command-line route to a shortest word
    path = sl22_file(tmp_path)
    rep = run_json(tmp_path, ["decompose", "--gens", path,
                              "--target", "[[0,1],[1,1]]"])
    res = rep["result"]
    assert res["mode"] == "word"
    assert res["length"] == 2
    F, T = parse_input(path)
    M = word_matrix(T, tuple((i, e) for i, e in res["word"]))
    assert M.to_json() == [[0, 1], [1, 1]]


def test_decompose_target_within_the_cap_of_a_larger_group(tmp_path, capsys):
    # the search ends with the target's layer: 1 + 5 + 14 elements of the
    # 720 of Sp4(2) reach a product of two generators
    path = sp42_file(tmp_path)
    F, T = parse_input(path)
    target = T[0].matrix().mul(T[1].matrix())
    argv = ["decompose", "--gens", path, "--target", json.dumps(target.to_json())]
    rep = run_json(tmp_path, argv + ["--cap", "20"])
    assert rep["result"]["word"] == run_json(tmp_path, argv)["result"]["word"]
    assert rep["result"]["length"] == 2
    assert word_matrix(T, tuple((i, e) for i, e in rep["result"]["word"])) == target
    capsys.readouterr()
    assert main(argv + ["--cap", "19"]) == 2
    assert capsys.readouterr().err == (
        "transvect: budget exhausted: exploration exceeded 19 elements\n")


def test_diameter_past_the_key_alphabet_is_a_budget(tmp_path, capsys):
    # 21 x 21 over GF(2): row codes up to 2^21 - 1 > sys.maxunicode
    n = 21
    path = write_gens(tmp_path / "wide.json", "2^1", [
        {"v": [int(j == 0) for j in range(n)], "phi": [int(j == 20) for j in range(n)]},
    ])
    capsys.readouterr()
    assert main(["diameter", "--gens", path]) == 2
    assert "q^n = 2097152 row codes" in capsys.readouterr().err


def test_decompose_split(tmp_path):
    path = sp42_file(tmp_path)
    rep = run_json(tmp_path, ["decompose", "--gens", path,
                              "--vector", "[1,0,1,0]", "--kind", "symplectic"])
    res = rep["result"]
    assert res["mode"] == "split"
    assert len(res["parts"]) == 4
    total = [0, 0, 0, 0]
    for part in res["parts"]:
        assert any(part)
        total = [F2.add(a, b) for a, b in zip(total, part)]
    assert total == [1, 0, 1, 0]


def check_splits(tmp_path, path, kind, form, q, n):
    """Every transvective vector of F^n splits through the CLI into four
    transvective parts that sum to it; returns how many there are."""
    F = form.F
    vectors = [v for v in itertools.product(range(q), repeat=n)
               if is_transvective(v, kind, form)]
    for v in vectors:
        res = run_json(tmp_path, ["decompose", "--gens", path, "--vector",
                                  json.dumps(list(v)), "--kind", kind])["result"]
        assert res["mode"] == "split" and len(res["parts"]) == 4
        total = (0,) * n
        for part in res["parts"]:
            assert is_transvective(part, kind, form)
            total = tuple(F.add(a, b) for a, b in zip(total, part))
        assert total == v
    return len(vectors)


def test_decompose_split_unitary_against_the_generators(tmp_path):
    # e3 is anisotropic for the hermitian form of `gen --kind SU3`, so the
    # split runs against a basis of the generators' v's
    path = str(tmp_path / "su3-9.json")
    assert main(["gen", "--kind", "SU3", "--field", "3^2", "--out", path]) == 0
    _, T = parse_input(path)
    form = detect_invariant_form(build_graph(T), "theta")
    assert not is_transvective((0, 0, 1), "unitary", form)
    assert check_splits(tmp_path, path, "unitary", form, 9, 3) == 224


def test_decompose_split_orthogonal_against_the_generators(tmp_path):
    # the 28 transvections of O6+(2), Q = x0 x1 + x2 x3 + x4 x5: every e_i
    # is singular, so the split runs against a basis of the v's
    def polar(v):
        return [v[1], v[0], v[3], v[2], v[5], v[4]]

    gens = [{"v": list(v), "phi": polar(v)}
            for v in itertools.product(range(2), repeat=6)
            if v[0] & v[1] ^ v[2] & v[3] ^ v[4] & v[5]]
    assert len(gens) == 28
    path = write_gens(tmp_path / "o6plus.json", "2^1", gens)
    _, T = parse_input(path)
    G = build_graph(T)
    form = recover_quadratic(G, detect_invariant_form(G, "identity"))
    assert not any(is_transvective(e, "orthogonal", form)
                   for e in itertools.permutations((1, 0, 0, 0, 0, 0)))
    assert check_splits(tmp_path, path, "orthogonal", form, 2, 6) == 28


def test_decompose_rejects_target_entries_outside_the_field(tmp_path, capsys):
    path = sl22_file(tmp_path)
    assert main(["decompose", "--gens", path, "--target", "[[1,5],[0,1]]"]) == 1
    assert "5 is not an element of GF(2)" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [1.0, 1.5, 1.6, "1", True])
@pytest.mark.parametrize("entry", ["generator", "matrix", "vector"])
def test_non_integer_entries_are_rejected(tmp_path, capsys, entry, bad):
    # a float, string or boolean entry is not a field element, even when
    # int() would turn it into one
    if entry == "generator":
        with pytest.raises(FieldMismatch):
            Transvection.from_json(F2, {"v": [bad, 0], "phi": [0, 1]})
        path = write_gens(tmp_path / "g.json", "2^1", [
            {"v": [0, 1], "phi": [1, 0]},
            {"v": [bad, 0], "phi": [0, 1]},
        ])
        with pytest.raises(ParseError, match="generator 1"):
            parse_input(path)
        argv = ["classify", "--gens", path]
    elif entry == "matrix":
        with pytest.raises(FieldMismatch):
            Mat.from_json(F2, [[bad, 0], [0, 1]])
        argv = ["decompose", "--gens", sl22_file(tmp_path),
                "--target", json.dumps([[bad, 0], [0, 1]])]
    else:
        with pytest.raises(FieldMismatch):
            _parse_vector(F2, json.dumps([bad, 0]))
        argv = ["decompose", "--gens", sl22_file(tmp_path),
                "--vector", json.dumps([bad, 0]), "--kind", "linear"]
    assert main(argv + ["--out", str(tmp_path / "x.json")]) == 1
    err = capsys.readouterr().err
    assert f"{bad!r} is not an element of GF(2)" in err
    if entry == "generator":
        assert "generator 1" in err


def test_decompose_flag_validation(tmp_path):
    path = sl22_file(tmp_path)
    assert main(["decompose", "--gens", path]) == 1
    assert main(["decompose", "--gens", path, "--target", "[[1,0],[0,1]]",
                 "--vector", "[1,0]"]) == 1


# -- exit codes and determinism --------------------------------------------------


def test_exit_codes(tmp_path):
    assert main(["classify", "--gens", str(tmp_path / "missing.json")]) == 1
    path = write_gens(tmp_path / "i.json", "2^1",
                      [{"matrix": [[1, 0], [0, 1]]}])
    assert main(["classify", "--gens", path]) == 1
    sp42 = sp42_file(tmp_path)
    assert main(["diameter", "--gens", sp42, "--cap", "10",
                 "--out", str(tmp_path / "x.json")]) == 2


def test_internal_error_exit_code(tmp_path, monkeypatch, capsys):
    import transvect.cli as cli_mod

    def broken(*args):
        raise InternalError("an invariant failed")

    monkeypatch.setattr(cli_mod, "classify", broken)
    assert main(["classify", "--gens", sl22_file(tmp_path)]) == 3
    assert "internal error: an invariant failed" in capsys.readouterr().err


def test_budget_elements_flag(tmp_path):
    # a chain stopped at 10 elements leaves the order unknown; Sp4(2) = S6
    # is the classical guess itself, so the tag stands
    path = sp42_file(tmp_path)
    rep = run_json(tmp_path, ["classify", "--gens", path, "--budget-elements", "10"])
    assert rep["meta"]["budgets"]["elements"] == 10
    assert rep["result"]["order_enumerated"] is None
    assert rep["result"]["tag"] == "Symplectic"


def test_reports_byte_identical_up_to_wall_time(tmp_path):
    path = sp42_file(tmp_path)
    texts = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        rc = main(["certify", "--gens", path, "--seed", "3",
                   "--out", str(out)])
        assert rc == 0
        blob = json.loads(out.read_text())
        blob["meta"]["wall_ms"] = 0
        texts.append(json.dumps(blob, sort_keys=True))
    assert texts[0] == texts[1]


def test_render_deterministic():
    report = {"command": "x", "meta": {"seed": 0}, "result": {"z": 1, "a": 2}}
    assert render(report, "json") == render(report, "json")
    assert render(report, "json").startswith("{")
    with pytest.raises(BadParameters):
        render(report, "csv")


def test_run_requires_gens(capsys):
    # every subcommand but gen reads a generator file
    for sub in ("analyze", "classify", "certify", "diameter", "decompose"):
        assert "the following arguments are required: --gens" in usage_error(
            [sub], capsys)


def test_parser_is_built_once_per_process():
    import transvect.cli as cli_mod

    assert cli_mod.build_parser() is cli_mod.build_parser()


def test_classify_leaves_rep18_undetermined_at_the_default_budget(tmp_path):
    # S18 on GF(2)^16 has no structural witness, and the chain stops at the
    # element budget, far below 18!: the symplectic guess stays unconfirmed
    path = tmp_path / "rep18.json"
    assert main(["gen", "--kind", "symmetric", "--m", "18",
                 "--out", str(path)]) == 0
    rep = run_json(tmp_path, ["classify", "--gens", str(path)])
    assert rep["result"]["tag"] == "Undetermined"
    assert rep["result"]["notes"][-1] == ("classical guess Symplectic not "
                                          "confirmed: SymmetricEven not ruled out")
