"""Tests for the command-line front end: parsing, reports, exit codes."""

from __future__ import annotations

import json

import pytest

from transvect import cayley
from transvect.cli import (
    JobConfig,
    _parse_vector,
    field_spec,
    main,
    parse_field,
    parse_input,
    render,
    run,
    serialize_generators,
)
from transvect.errors import (
    BadParameters,
    FieldMismatch,
    InternalError,
    NotTransvection,
    ParseError,
)
from transvect.gf import field_create
from transvect.linalg import Mat
from transvect.tgraph import word_matrix
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


# -- JobConfig -------------------------------------------------------------------


def test_job_config_validation():
    with pytest.raises(BadParameters):
        JobConfig("dance")
    with pytest.raises(BadParameters):
        JobConfig("classify", budget_elements=0)
    with pytest.raises(BadParameters):
        JobConfig("classify", out_format="xml")
    job = JobConfig("classify", gens_path="x", seed=7)
    assert job.budgets()["elements"] > 0


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
    path = sl22_file(tmp_path)
    target = [[0, 1], [1, 1]]
    rep = run_json(tmp_path, ["diameter", "--gens", path,
                              "--witness", json.dumps(target)])
    wit = rep["result"]["witness"]
    F, T = parse_input(path)
    M = word_matrix(T, tuple((i, e) for i, e in wit["word"]))
    assert M.to_json() == target
    assert wit["length"] == len(wit["word"]) == 2


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


# Reports of `diameter --profile transvections`, each with the witness
# element and its word over the input generators.
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
    argv = ["diameter", "--gens", make(tmp_path), "--profile", "transvections"]
    expected = {"profile": "transvections", **expected}
    if witness:
        argv += ["--witness", json.dumps(element)]
        expected["witness"] = {"element": element, "word": word,
                               "length": len(word)}
    assert run_json(tmp_path, argv)["result"] == expected


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


def test_diameter_profile_witness_runs_two_searches(tmp_path, monkeypatch):
    calls = []
    explore = cayley._Search.explore

    def counting(self, *args, **kwargs):
        calls.append(len(self.tables))
        return explore(self, *args, **kwargs)

    monkeypatch.setattr(cayley._Search, "explore", counting)
    run_json(tmp_path, ["diameter", "--gens", sl3_triangle_file(tmp_path),
                        "--profile", "transvections",
                        "--witness", "[[0,1,0],[0,0,1],[1,0,0]]"])
    # one search over X (involutions, so their own inverses), one over the
    # 21 transvections of SL3(2)
    assert calls == [3, 21]


def test_diameter_csv(tmp_path):
    path = sl22_file(tmp_path)
    out = tmp_path / "hist.csv"
    rc = main(["diameter", "--gens", path, "--format", "csv",
               "--out", str(out)])
    assert rc == 0
    assert out.read_text() == "distance,count\n0,1\n1,2\n2,2\n3,1\n"


def test_csv_rejected_for_non_histogram(tmp_path):
    path = sl22_file(tmp_path)
    assert main(["classify", "--gens", path, "--format", "csv"]) == 1


def test_decompose_word(tmp_path):
    path = sl22_file(tmp_path)
    rep = run_json(tmp_path, ["decompose", "--gens", path,
                              "--target", "[[0,1],[1,1]]"])
    res = rep["result"]
    assert res["mode"] == "word"
    assert res["length"] == 2
    F, T = parse_input(path)
    M = word_matrix(T, tuple((i, e) for i, e in res["word"]))
    assert M.to_json() == [[0, 1], [1, 1]]


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


def test_env_budget_override(tmp_path, monkeypatch):
    path = sp42_file(tmp_path)
    monkeypatch.setenv("TRANSVECT_BUDGET_ELEMENTS", "10")
    rep = run_json(tmp_path, ["classify", "--gens", path])
    assert rep["meta"]["budgets"]["elements"] == 10
    assert rep["result"]["order_enumerated"] is None
    assert rep["result"]["tag"] == "Symplectic"
    monkeypatch.setenv("TRANSVECT_BUDGET_ELEMENTS", "nope")
    assert main(["classify", "--gens", path]) == 1


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


def test_run_requires_gens():
    with pytest.raises(BadParameters):
        run(JobConfig("classify"))
