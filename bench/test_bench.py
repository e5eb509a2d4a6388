"""Tests of the benchmark itself: smoke passes of each workload on a
reduced entry list, failure accounting, metric names and the permutation
oracles behind the pinned diameters.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import importlib
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import corpus  # noqa: E402
import micro  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SMOKE = {
    "order-large": ["classify-rep8", "classify-random-sl3-4",
                    "classify-random-sl3-8-budget"],
    "structure-small": ["classify-m3-5", "certify-sl2-9", "stability-sl2-9"],
    "cayley-search": ["diameter-sp4-2", "profile-sl3-2", "decompose-rep7",
                      "bidirectional-rep8"],
}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def smoke_workload(name: str, tmp_path: Path, seed: int = 3) -> run.Workload:
    wl, _ = run.set_up(name, seed, tmp_path)
    wl.entries = [e for e in wl.entries if e.id in SMOKE[name]]
    assert [e.id for e in wl.entries] == SMOKE[name]
    return wl


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_smoke_pass(name, tmp_path):
    p = run.run_pass(smoke_workload(name, tmp_path))
    assert p["failures"] == {}
    assert set(p["entry_s"]) == set(SMOKE[name])
    assert p["wall_s"] >= sum(p["per_command"].values()) > 0


def test_wrong_pinned_answer_counts_as_failed(tmp_path):
    wl = smoke_workload("structure-small", tmp_path)
    wl.entries[0].expect["tag"] = "Symplectic"
    p = run.run_pass(wl)
    assert list(p["failures"]) == ["classify-m3-5"]
    assert "Monomial(5)" in p["failures"]["classify-m3-5"]
    # the other entries still ran and passed
    assert set(p["entry_s"]) == set(SMOKE["structure-small"])


def test_wrong_digest_and_distance_count_as_failed(tmp_path):
    wl = smoke_workload("cayley-search", tmp_path)
    for e in wl.entries:
        if "digest" in e.expect:
            e.expect["digest"] = "0" * corpus.DIGEST_LEN
        if "distance" in e.expect:
            e.expect["distance"] += 1
    p = run.run_pass(wl)
    assert sorted(p["failures"]) == ["bidirectional-rep8", "diameter-sp4-2",
                                     "profile-sl3-2"]


def test_exit_code_and_exception_count_as_failed(tmp_path):
    wl = smoke_workload("structure-small", tmp_path)
    # a reducible set: classify exits with code 1
    F2 = corpus.F2
    reducible = [corpus.Transvection(F2, (1, 0, 0), (0, 1, 0))]
    wl.paths["classify-m3-5"].write_text(json.dumps(
        wl.cli.serialize_generators(F2, reducible)))
    # the stability entry raises when its certificate is missing
    wl.entries[2].source = "no-such-entry"
    p = run.run_pass(wl)
    assert p["failures"]["classify-m3-5"] == "exit code 1"
    assert "KeyError" in p["failures"]["stability-sl2-9"]
    assert "certify-sl2-9" not in p["failures"]


def test_malformed_output_counts_as_failed(tmp_path, monkeypatch):
    wl = smoke_workload("structure-small", tmp_path)
    real = run.run_entry

    def truncated(wl, entry, outputs):
        dt, outcome = real(wl, entry, outputs)
        if entry.kind == "classify":
            outcome = {"result": {}}
        return dt, outcome

    monkeypatch.setattr(run, "run_entry", truncated)
    p = run.run_pass(wl)
    assert list(p["failures"]) == ["classify-m3-5"]
    assert "KeyError" in p["failures"]["classify-m3-5"]


def test_budget_entry_accepts_only_the_budget_note(tmp_path):
    wl = smoke_workload("order-large", tmp_path)
    e = wl.entries[2]
    outcome = {"result": {"tag": "Linear", "field_degree": 3,
                          "order_predicted": corpus.order_sl(3, 8),
                          "order_enumerated": None, "notes": []}}
    assert "notes" in corpus.check(e, outcome)
    outcome["result"]["notes"] = ["enumeration exceeded the 200000-element budget"]
    assert corpus.check(e, outcome) is None
    outcome["result"]["order_enumerated"] = corpus.order_sl(3, 8)
    assert corpus.check(e, outcome) is None
    outcome["result"]["order_enumerated"] = 7
    assert "order_enumerated" in corpus.check(e, outcome)


def test_traced_pass_metrics_and_uninstall(tmp_path):
    import transvect

    classify_mod = importlib.import_module("transvect.classify")
    tgraph = importlib.import_module("transvect.tgraph")
    original = tgraph.build_graph
    wl = smoke_workload("cayley-search", tmp_path)
    untraced = run.run_pass(wl)
    traced, tr = tracer.traced_passes(wl, run.run_pass, 0.0)
    assert len(traced) == 1 and traced[0]["failures"] == {}
    assert tgraph.build_graph is classify_mod.build_graph is original
    assert transvect.build_graph is original
    layers = tracer.layer_metrics(untraced, traced)
    assert layers["cayley.bfs_explore_calls"]["value"] > 0
    assert layers["linalg.mat_mul_calls"]["value"] > 0
    assert 0 < layers["cayley.new_ratio"]["value"] <= 1
    out = tracer.write_spans(tr, tmp_path, wl.name, wl.seed)
    lines = out.read_text().splitlines()
    assert len(lines) == 2 + len(tr.span_name)


def test_wrappers_cover_every_binding():
    classify_mod = importlib.import_module("transvect.classify")
    tgraph = importlib.import_module("transvect.tgraph")
    linalg = importlib.import_module("transvect.linalg")
    tr = tracer.Tracer()
    tr.install()
    try:
        assert tgraph.build_graph is classify_mod.build_graph
        assert tgraph.build_graph.__wrapped__ is not None
        assert hasattr(linalg.Mat.mul, "__wrapped__")
    finally:
        tr.uninstall()
    assert not hasattr(linalg.Mat.mul, "__wrapped__")


def test_metric_names(tmp_path):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    wl = smoke_workload("order-large", tmp_path)
    untraced = run.run_pass(wl)
    traced, tr = tracer.traced_passes(wl, run.run_pass, 0.0)
    layers = tracer.layer_metrics(untraced, traced)
    layers.update(micro.kernel_metrics(1))
    e2e = run.end_to_end([untraced], [0.1])
    e2e.update(run.per_command(wl, [untraced]))
    for name in list(layers) + list(e2e):
        assert NAME.fullmatch(name), name
    assert set(layers) == {m["name"] for m in spec["per_layer"]}
    assert {m["name"] for m in spec["end_to_end"]} <= set(e2e)
    assert [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS)


# -- the permutation oracles behind the pinned diameters -----------------------


def permutation_bfs(m: int, gens: list[tuple[int, ...]]) -> dict:
    start = tuple(range(m))
    dist = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(p[g[i]] for i in range(m))
                if q not in dist:
                    dist[q] = dist[p] + 1
                    nxt.append(q)
        frontier = nxt
    return dist


def transposition(m: int, i: int, j: int) -> tuple[int, ...]:
    p = list(range(m))
    p[i], p[j] = p[j], p[i]
    return tuple(p)


def test_pinned_diameters_match_permutation_bfs():
    adj7 = permutation_bfs(7, [transposition(7, i, i + 1) for i in range(6)])
    assert max(adj7.values()) == 21 == corpus.inversions(tuple(reversed(range(7))))
    adj8 = permutation_bfs(8, [transposition(8, i, i + 1) for i in range(7)])
    w8 = (2, 1, 0, 7, 6, 5, 4, 3)
    assert adj8[w8] == corpus.inversions(w8) == 13
    # Sp4(2) = S6 with its 15 transvections the 15 transpositions
    all6 = permutation_bfs(6, [transposition(6, i, j)
                               for i in range(6) for j in range(i + 1, 6)])
    assert len(all6) == 720 and max(all6.values()) == 5


def test_pinned_values_in_the_corpus():
    by_id = {e.id: e for w in corpus.WORKLOADS.values() for e in w(0)}
    assert by_id["diameter-rep7"].expect["diameter"] == 21
    assert by_id["decompose-rep7"].expect["length"] == 21
    assert by_id["bidirectional-rep8"].expect["distance"] == 13
    assert by_id["diameter-sp4-2"].expect["diameter"] == 5
    assert by_id["profile-sp4-2"].expect["diameter"] == 5


@pytest.mark.parametrize("m", [6, 7, 8])
def test_symmetric_rep_matrix_matches_the_generators(m):
    T = corpus.build_symmetric_rep(m)
    for k, t in enumerate(T):
        assert corpus.symmetric_rep_matrix(transposition(m, k, k + 1)) == t.matrix()


def test_orders_from_formulas():
    assert corpus.order_sl(3, 5) == 372000
    assert corpus.order_sl(3, 2) == 168
    assert corpus.order_su(4, 2) == 25920
    assert corpus.order_sp(4, 2) == 720
    assert corpus.order_monomial(4, 5) == 3000
    assert len(corpus.sp4_transvections()) == 15
    assert len(corpus.o6plus_transvections()) == 28


def test_seed_fixes_the_inputs():
    a = [e.gens for e in corpus.order_large(5)]
    b = [e.gens for e in corpus.order_large(5)]
    c = [e.gens for e in corpus.order_large(6)]
    assert a == b and a != c
