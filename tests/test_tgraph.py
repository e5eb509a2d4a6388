"""Tests for the transvection graph module.

Independent oracles used here:
- irreducibility via cyclic-closure search over projective points,
- cycle enumeration via brute force over vertex tuples,
- cycle weights via the trace formula tr((t1-1)...(tk-1)),
- defining field via the trace field of the fully enumerated group.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest

from transvect.errors import (
    BadParameters,
    CapExceeded,
    DimensionMismatch,
    InternalError,
    NoInvolution,
    NotDense,
    NotIrreducible,
    NotStronglyConnected,
)
from transvect.classify import (
    Certificate,
    classify,
    detect_monomial_structure,
    detect_symmetric_type,
)
from transvect.forms import detect_invariant_form
from transvect.gf import field_create
from transvect.linalg import Mat, Subspace, dot
from transvect import tgraph
from transvect.transvections import Transvection, standard_full_field_set
from transvect.tgraph import (
    WALK_BUDGET,
    CycleRecord,
    build_graph,
    connect_up,
    cycle_symplectic_defect,
    cycle_unitary_defect,
    cycle_weight,
    defect,
    defining_field,
    densify,
    is_dense,
    is_irreducible,
    is_strongly_connected,
    restrict_to_section,
    scc,
    shorten_path,
    winkle,
    word_matrix,
)

from oracles import cycles_up_to, directed_diameter, projective_points


def e(n: int, i: int) -> tuple[int, ...]:
    return tuple(1 if j == i else 0 for j in range(n))


def random_transvection(F, n: int, rng: random.Random) -> Transvection:
    while True:
        v = tuple(rng.randrange(F.q) for _ in range(n))
        if any(v):
            break
    piv = next(i for i in range(n) if v[i])
    while True:
        phi = [rng.randrange(F.q) for i in range(n)]
        phi[piv] = 0
        acc = 0
        for i in range(n):
            acc = F.add(acc, F.mul(phi[i], v[i]))
        phi[piv] = F.div(F.neg(acc), v[piv])
        if any(phi):
            return Transvection(F, v, tuple(phi))


def random_set(F, n: int, size: int, rng: random.Random) -> list[Transvection]:
    return [random_transvection(F, n, rng) for _ in range(size)]


def trace_weight(ts: list[Transvection], verts: tuple[int, ...]) -> int:
    F = ts[0].F
    n = ts[0].n
    M = Mat.identity(F, n)
    for i in verts:
        t = ts[i]
        M = M.mul(t.matrix().sub(Mat.identity(F, n)))
    return M.trace()


def digit_filter_points(F, n: int) -> tuple[tuple[int, ...], ...]:
    """Oracle: unpack every nonzero code by a digit loop and keep the
    vectors whose first nonzero entry is 1, in code order."""
    out = []
    for code in range(1, F.q**n):
        digs = []
        r = code
        for _ in range(n):
            digs.append(r % F.q)
            r //= F.q
        if next(a for a in digs if a) == 1:
            out.append(tuple(digs))
    return tuple(out)


@pytest.mark.parametrize("p,f,n", [(2, 1, n) for n in range(1, 11)]
                         + [(3, 1, n) for n in range(1, 6)]
                         + [(2, 2, n) for n in range(1, 5)]
                         + [(5, 1, 3), (7, 1, 2), (2, 3, 3), (3, 2, 2), (2, 4, 2)])
def test_projective_points_matches_digit_filter(p, f, n):
    F = field_create(p, f)
    pts = projective_points(F, n)
    assert pts == digit_filter_points(F, n)
    assert len(pts) == (F.q**n - 1) // (F.q - 1)


def reducible_by_closure(F, gens: list[Mat], n: int) -> bool:
    """Oracle: a proper nonzero invariant subspace exists iff the invariant
    closure of some projective point is proper."""
    for v in projective_points(F, n):
        space = Subspace(F, n, [v])
        while True:
            grown = space
            for b in space.basis:
                for M in gens:
                    img = M.matvec(b)
                    if not grown.contains(img):
                        grown = grown.sum(Subspace(F, n, [img]))
            if grown.dim == space.dim:
                break
            space = grown
        if space.dim < n:
            return True
    return False


def enumerate_matrix_group(gens: list[Mat], cap: int = 10**6) -> list[Mat]:
    F = gens[0].F
    n = gens[0].nrows
    ident = Mat.identity(F, n)
    seen = {ident.rows: ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for M in frontier:
            for g in gens:
                P = M.mul(g)
                if P.rows not in seen:
                    if len(seen) >= cap:
                        raise AssertionError("group enumeration oracle cap hit")
                    seen[P.rows] = P
                    nxt.append(P)
        frontier = nxt
    return list(seen.values())


# -- construction and components -------------------------------------------


def test_build_graph_examples():
    F = field_create(2, 1)
    t = Transvection(F, (1, 0), (0, 1))
    s = Transvection(F, (0, 1), (1, 0))
    G = build_graph([t, s])
    assert G.succ == [[1], [0]]
    assert G.pair[0][1] == 1 and G.pair[1][0] == 1
    assert G.vspace.dim == 2 and G.dual_space.dim == 2

    G1 = build_graph([t])
    assert G1.succ == [[]]

    F4d = field_create(2, 1)
    a = Transvection(F4d, e(4, 0), e(4, 1))
    b = Transvection(F4d, e(4, 2), e(4, 3))
    G2 = build_graph([a, b])
    assert G2.succ == [[], []]

    with pytest.raises(BadParameters):
        build_graph([])
    F9 = field_create(3, 2)
    with pytest.raises(Exception):
        build_graph([t, Transvection(F9, (1, 0), (0, 1))])
    with pytest.raises(DimensionMismatch):
        build_graph([t, Transvection(F, (1, 0, 0), (0, 1, 0))])


def test_scc_examples():
    F = field_create(2, 1)
    t = Transvection(F, (1, 0), (0, 1))
    s = Transvection(F, (0, 1), (1, 0))
    assert scc(build_graph([t, s])) == [[0, 1]]
    assert is_strongly_connected(build_graph([t, s]))
    assert directed_diameter(build_graph([t, s])) == 1

    a = Transvection(F, e(4, 0), e(4, 1))
    b = Transvection(F, e(4, 2), e(4, 3))
    assert scc(build_graph([a, b])) == [[0], [1]]

    F3 = field_create(3, 1)
    path = [
        Transvection(F3, e(4, 0), e(4, 1)),
        Transvection(F3, e(4, 1), e(4, 2)),
        Transvection(F3, e(4, 2), e(4, 3)),
    ]
    Gp = build_graph(path)
    assert Gp.succ == [[1], [2], []]
    assert len(scc(Gp)) == 3
    with pytest.raises(NotStronglyConnected):
        directed_diameter(Gp)


def test_is_irreducible_examples():
    F = field_create(2, 1)
    t = Transvection(F, (1, 0), (0, 1))
    s = Transvection(F, (0, 1), (1, 0))
    rep = is_irreducible(build_graph([t, s]))
    assert rep.irreducible and rep.failed_condition is None
    assert not reducible_by_closure(F, [t.matrix(), s.matrix()], 2)

    rep1 = is_irreducible(build_graph([t]))
    assert not rep1.irreducible
    assert rep1.failed_condition == "v_span"
    assert rep1.witness.basis == ((1, 0),)

    t3 = Transvection(F, (1, 0, 0), (0, 1, 0))
    s3 = Transvection(F, (0, 1, 0), (1, 0, 0))
    rep2 = is_irreducible(build_graph([t3, s3]))
    assert not rep2.irreducible and rep2.failed_condition == "v_span"
    assert rep2.witness.dim == 2

    # dual-span failure: v's span, phi's do not
    u1 = Transvection(F, (1, 0, 0), (0, 1, 0))
    u2 = Transvection(F, (0, 1, 0), (1, 0, 0))
    u3 = Transvection(F, (0, 0, 1), (1, 0, 0))
    rep3 = is_irreducible(build_graph([u1, u2, u3]))
    assert not rep3.irreducible and rep3.failed_condition == "dual_span"
    # witness is fixed pointwise by every generator
    for g in (u1, u2, u3):
        for b in rep3.witness.basis:
            assert g.apply(b) == b

    # connectivity failure with full spans: two 2-cycles, one cross edge
    F3 = field_create(3, 1)
    two_comp = [
        Transvection(F3, e(4, 0), (0, 1, 1, 0)),
        Transvection(F3, e(4, 1), e(4, 0)),
        Transvection(F3, e(4, 2), e(4, 3)),
        Transvection(F3, e(4, 3), e(4, 2)),
    ]
    Gr = build_graph(two_comp)
    assert Gr.vspace.dim == 4 and Gr.dual_space.dim == 4
    repr_ = is_irreducible(Gr)
    assert not repr_.irreducible and repr_.failed_condition == "connectivity"
    W = repr_.witness
    assert W.basis == ((1, 0, 0, 0), (0, 1, 0, 0))
    for g in two_comp:
        for b in W.basis:
            assert W.contains(g.apply(b))


def _guard_cases():
    F = field_create(2, 1)
    F3 = field_create(3, 1)
    t = Transvection(F, (1, 0), (0, 1))
    line = [t]                                            # v_span
    dual = [Transvection(F, (1, 0, 0), (0, 1, 0)),        # dual_span
            Transvection(F, (0, 1, 0), (1, 0, 0)),
            Transvection(F, (0, 0, 1), (1, 0, 0))]
    plane = [Transvection(F, (1, 0, 0), (0, 1, 0)),       # v_span
             Transvection(F, (0, 1, 0), (1, 0, 0))]
    two_comp = [Transvection(F3, e(4, 0), (0, 1, 1, 0)),  # connectivity
                Transvection(F3, e(4, 1), e(4, 0)),
                Transvection(F3, e(4, 2), e(4, 3)),
                Transvection(F3, e(4, 3), e(4, 2))]
    return [
        ("classify", line, classify,
         "classification needs an irreducible action (v_span)", ((1, 0),)),
        ("monomial", dual, detect_monomial_structure,
         "monomial detection needs an irreducible action (dual_span)", ((0, 0, 1),)),
        ("symmetric", plane, detect_symmetric_type,
         "symmetric type detection needs an irreducible action (v_span)",
         ((1, 0, 0), (0, 1, 0))),
        ("forms", two_comp, lambda T: detect_invariant_form(build_graph(T)),
         "form detection needs irreducibility (connectivity)",
         ((1, 0, 0, 0), (0, 1, 0, 0))),
        ("shorten_path", line, lambda T: shorten_path(build_graph(T), (1, 0), (1, 0)),
         "action is reducible (v_span)", ((1, 0),)),
        ("densify", dual, densify,
         "action is reducible (dual_span)", ((0, 0, 1),)),
    ]


@pytest.mark.parametrize("case", _guard_cases(), ids=lambda c: c[0])
def test_irreducibility_guards_pin_message_and_witness(case):
    _, T, call, message, witness = case
    with pytest.raises(NotIrreducible) as info:
        call(T)
    assert str(info.value) == message
    assert info.value.witness.basis == witness
    assert info.value.witness == is_irreducible(build_graph(T)).witness


def test_irreducibility_oracle_fuzz():
    rng = random.Random(7)
    cases = [(2, 1, 2), (2, 1, 3), (2, 1, 4), (3, 1, 2), (3, 1, 3),
             (2, 2, 2), (2, 2, 3)]
    for p, f, n in cases:
        F = field_create(p, f)
        for _ in range(40):
            T = random_set(F, n, rng.randrange(1, n + 3), rng)
            G = build_graph(T)
            got = is_irreducible(G).irreducible
            want = not reducible_by_closure(F, [t.matrix() for t in T], n)
            assert got == want
            if not got:
                rep = is_irreducible(G)
                W = rep.witness
                assert 0 < W.dim < n
                for t in T:
                    for b in W.basis:
                        assert W.contains(t.apply(b))


# -- cycles -----------------------------------------------------------------


def test_cycles_examples(monkeypatch):
    F = field_create(2, 1)
    t = Transvection(F, (1, 0), (0, 1))
    s = Transvection(F, (0, 1), (1, 0))
    G = build_graph([t, s])
    recs = cycles_up_to(G, 2)
    assert all(len(r.verts) >= 2 for r in recs)
    assert recs == [CycleRecord((0, 1), 1)]

    F9 = field_create(3, 2)
    lam = F9.primitive_element()
    sl = standard_full_field_set("SL", F9, 2, lam)
    recs9 = cycles_up_to(build_graph(sl), 2)
    assert recs9 == [CycleRecord((0, 1), lam)]

    ring = [
        Transvection(F, e(3, 0), e(3, 1)),
        Transvection(F, e(3, 1), e(3, 2)),
        Transvection(F, e(3, 2), e(3, 0)),
    ]
    recs3 = cycles_up_to(build_graph(ring), 3)
    assert CycleRecord((0, 1, 2), 1) in recs3
    assert all(len(r.verts) == 3 for r in recs3)

    with pytest.raises(BadParameters):
        cycles_up_to(G, 9)
    monkeypatch.setattr(tgraph, "WALK_BUDGET", 3)
    with pytest.raises(CapExceeded):
        cycles_up_to(build_graph(sl), 8)


def brute_force_cycles(G, L):
    F = G.F
    N = len(G.verts)
    found = {}
    for k in range(2, L + 1):
        for tup in itertools.product(range(N), repeat=k):
            w = cycle_weight(G, tup)
            if w == 0:
                continue
            key = min(tup[i:] + tup[:i] for i in range(k))
            found.setdefault(key, w)
    return found


def test_cycles_up_to_rejects_a_bound_below_one():
    F = field_create(2, 1)
    G = build_graph([Transvection(F, (1, 0), (0, 1)), Transvection(F, (0, 1), (1, 0))])
    assert cycles_up_to(G, 1) == []
    for L in (0, -1):
        with pytest.raises(BadParameters, match="L >= 1"):
            cycles_up_to(G, L)


def test_cycles_oracle_bruteforce():
    rng = random.Random(11)
    for p, f in ((2, 1), (3, 1), (2, 2)):
        F = field_create(p, f)
        for _ in range(25):
            n = rng.choice((2, 3))
            T = random_set(F, n, rng.randrange(2, 5), rng)
            G = build_graph(T)
            recs = cycles_up_to(G, 5)
            assert {r.verts: r.weight for r in recs} == brute_force_cycles(G, 5)
            keys = [(len(r.verts), r.verts) for r in recs]
            assert keys == sorted(keys)


def rooted_paths(G, L):
    """Walks of 1..L vertices whose first vertex is their least, counted
    by a per-root dynamic programme over the adjacency matrix: the number of
    steps a closed-walk search up to length L takes."""
    N = len(G.verts)
    total = 0
    for s in range(N):
        ends = [0] * N
        ends[s] = 1
        total += 1
        for _ in range(L - 1):
            ends = [sum(ends[u] for u in range(N) if G.pair[u][t]) if t >= s else 0
                    for t in range(N)]
            total += sum(ends)
    return total


def under_walk_budget(monkeypatch, budget, fn, *args):
    """fn(*args) with `tgraph.WALK_BUDGET` set to budget for the call."""
    with monkeypatch.context() as m:
        m.setattr(tgraph, "WALK_BUDGET", budget)
        return fn(*args)


def least_passing_budget(monkeypatch, G):
    """The least walk budget under which `defining_field(G)` returns, by
    bisection: a read that stops early pays only for the paths made."""
    lo, hi = 0, WALK_BUDGET
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            under_walk_budget(monkeypatch, mid, defining_field, G)
            hi = mid
        except CapExceeded:
            lo = mid + 1
    return lo


def test_walk_budget_boundary_is_the_rooted_path_count(monkeypatch):
    rng = random.Random(23)
    for p, f in ((2, 1), (3, 1), (2, 2)):
        F = field_create(p, f)
        for _ in range(6):
            G = build_graph(random_set(F, rng.choice((2, 3)), rng.randrange(3, 7), rng))
            for L in range(2, 6):
                need = rooted_paths(G, L)
                assert (under_walk_budget(monkeypatch, need, cycles_up_to, G, L)
                        == cycles_up_to(G, L))
                with pytest.raises(CapExceeded):
                    under_walk_budget(monkeypatch, need - 1, cycles_up_to, G, L)
    # the witness read stops inside the level of its last witness, of L
    # vertices: every path of L - 1 vertices is made, and not every one of L
    checked = 0
    for p, f in ((2, 2), (2, 3), (3, 2)):
        F = field_create(p, f)
        while checked < 6 * (p + f):
            G = build_graph(random_set(F, rng.choice((2, 3)), rng.randrange(3, 7), rng))
            if not is_strongly_connected(G):
                continue
            rep = defining_field(G)
            if rep.degree == 1:
                assert least_passing_budget(monkeypatch, G) == 0
                continue
            L = len(rep.witnesses[-1].verts)
            need = least_passing_budget(monkeypatch, G)
            assert rooted_paths(G, L - 1) < need <= rooted_paths(G, L)
            assert under_walk_budget(monkeypatch, need, defining_field, G) == rep
            with pytest.raises(CapExceeded):
                under_walk_budget(monkeypatch, need - 1, defining_field, G)
            checked += 1


def test_weight_trace_rotation_conjugation_fuzz():
    rng = random.Random(13)
    for p, f in ((2, 1), (3, 1), (2, 2), (5, 1)):
        F = field_create(p, f)
        for _ in range(15):
            n = rng.choice((2, 3))
            T = random_set(F, n, rng.randrange(2, 5), rng)
            G = build_graph(T)
            for r in cycles_up_to(G, 5):
                assert r.weight == trace_weight(T, r.verts)
                k = len(r.verts)
                for i in range(k):
                    rot = r.verts[i:] + r.verts[:i]
                    assert cycle_weight(G, rot) == r.weight
            # conjugation preserves adjacency and every cycle weight
            while True:
                g = Mat(F, tuple(tuple(rng.randrange(F.q) for _ in range(n))
                                 for _ in range(n)))
                if g.det() != 0:
                    break
            Tg = [t.conjugate(g) for t in T]
            Gg = build_graph(Tg)
            assert Gg.succ == G.succ
            assert cycles_up_to(Gg, 5) == cycles_up_to(G, 5)


def test_defects():
    F = field_create(2, 1)
    # one-way ring: w(fwd) = 1, w(rev) = 0, k = 3
    ring = [
        Transvection(F, e(3, 0), e(3, 1)),
        Transvection(F, e(3, 1), e(3, 2)),
        Transvection(F, e(3, 2), e(3, 0)),
    ]
    G = build_graph(ring)
    assert cycle_symplectic_defect((0, 1, 2), G) == 1
    with pytest.raises(NoInvolution):
        cycle_unitary_defect((0, 1, 2), G)

    # 2-cycles always have d_s = 0
    rng = random.Random(17)
    for p, f in ((2, 1), (3, 1), (2, 2)):
        Fx = field_create(p, f)
        for _ in range(20):
            T = random_set(Fx, 3, 3, rng)
            Gx = build_graph(T)
            for r in cycles_up_to(Gx, 2):
                assert cycle_symplectic_defect(r, Gx) == 0

    # all 3-cycles among Sp4(2) transvections have d_s = 0
    F2 = field_create(2, 1)
    gram = Mat(F2, ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)))
    sp = []
    for v in projective_points(F2, 4):
        phi = tuple(gram.matvec(v))
        sp.append(Transvection(F2, v, phi))
    Gs = build_graph(sp)
    recs = cycles_up_to(Gs, 3)
    for r in recs:
        assert cycle_symplectic_defect(r, Gs) == 0

    # unitary defect with the GF(4) involution on a 2-cycle
    F4 = field_create(2, 2)
    om = F4.primitive_element()
    t = Transvection(F4, (1, 0), (0, om))
    s = Transvection(F4, (0, 1), (1, 0))
    G4 = build_graph([t, s])
    w = cycle_weight(G4, (0, 1))
    assert w == om
    d = cycle_unitary_defect((0, 1), G4)
    assert d == F4.sub(w, F4.involution(w))
    assert d != 0  # omega is not fixed by the involution


# -- defining field ----------------------------------------------------------


def test_defining_field_examples(monkeypatch):
    F4 = field_create(2, 2)
    om = F4.primitive_element()
    sl = standard_full_field_set("SL", F4, 2, om)
    rep = defining_field(build_graph(sl))
    assert rep.degree == 2
    assert rep.witnesses and F4.subfield_generated(
        [r.weight for r in rep.witnesses]) == 2

    # all pairings in the prime field -> degree 1, with no walk read
    ones = standard_full_field_set("SL", F4, 2, 1)
    monkeypatch.setattr(tgraph, "WALK_BUDGET", 0)
    rep1 = defining_field(build_graph(ones))
    assert rep1.degree == 1 and rep1.witnesses == ()

    # with no edge there is no return path to rescale along
    apart = [Transvection(F4, (1, 0), (0, 1)), Transvection(F4, (1, 0), (0, om))]
    with pytest.raises(NotStronglyConnected):
        defining_field(build_graph(apart))


def test_defining_field_trace_oracle():
    rng = random.Random(19)
    F9 = field_create(3, 2)
    for _ in range(6):
        lam = rng.choice([x for x in F9.nonzero()])
        T = standard_full_field_set("SL", F9, 2, lam)
        m = Mat(F9, ((1, rng.randrange(1, F9.q)), (0, 1)))
        T = T + [t.conjugate(m) for t in T]
        G = build_graph(T)
        assert is_irreducible(G).irreducible
        dense_T, _ = densify(T)
        gens = [t.matrix() for t in T]
        group = enumerate_matrix_group(gens)
        trace_deg = F9.subfield_generated([g.trace() for g in group])
        assert defining_field(build_graph(dense_T)).degree == trace_deg
        assert defining_field(G).degree == trace_deg


def dense_field_oracle(G):
    """The dense read as a full enumeration: every record of length <= 5,
    the subfield their weights generate, and the first records that raise
    the degree until it is reached."""
    F = G.F
    records = cycles_up_to(G, 5)
    deg = F.subfield_generated([r.weight for r in records])
    witnesses = []
    d = 1
    for r in records:
        if d == deg:
            break
        if math.lcm(d, F.element_degree(r.weight)) > d:
            d = math.lcm(d, F.element_degree(r.weight))
            witnesses.append(r)
    return deg, tuple(witnesses)


def subfield_conjugate(F, e, n, rng):
    """A seeded irreducible set with entries in the degree-e subfield of F,
    conjugated by a random invertible matrix over F."""
    sub = [x for x in range(F.q) if F.pow(x, F.p**e) == x]
    while True:
        T, size = [], rng.randrange(n, n + 3)
        while len(T) < size:
            v = tuple(rng.choice(sub) for _ in range(n))
            phi = tuple(rng.choice(sub) for _ in range(n))
            if any(v) and any(phi) and dot(F, phi, v) == 0:
                T.append(Transvection(F, v, phi))
        if is_irreducible(build_graph(T)).irreducible:
            break
    while True:
        g = Mat(F, tuple(tuple(rng.randrange(F.q) for _ in range(n))
                         for _ in range(n)))
        if g.det() != 0:
            return [t.conjugate(g) for t in T]


def test_dense_defining_field_matches_the_full_enumeration():
    # on a dense set the walks of at most 5 vertices generate the field,
    # so the read stops at the witnesses of the full enumeration; sets with
    # prime-field weights (conjugated out of the prime field) have a
    # proper subfield
    rng = random.Random(41)
    proper = full = 0
    for p, f, ns in ((2, 2, (2, 3)), (2, 3, (2, 3)), (3, 2, (2, 3)), (2, 4, (2,))):
        F = field_create(p, f)
        for i in range(9):
            n = ns[i % len(ns)]
            if i < 2:
                T = subfield_conjugate(F, 1, n, rng)
            else:
                while True:
                    T = random_set(F, n, rng.randrange(n, n + 3), rng)
                    if is_irreducible(build_graph(T)).irreducible:
                        break
            Gd, _ = densify(T)
            rep = defining_field(Gd)
            assert (rep.degree, rep.witnesses) == dense_field_oracle(Gd)
            proper += rep.degree < f
            full += rep.degree == f
    assert proper and full


def test_tree_degree_matches_the_dense_oracle():
    # the degree of an irreducible set, read off its own graph, equals the
    # one the full enumeration reads off its dense extension; the seeded
    # sets include subfield conjugates over every proper subfield
    rng = random.Random(43)
    cases = []
    for p, f, n in ((2, 2, 3), (2, 3, 3), (3, 2, 3), (2, 4, 2), (2, 6, 2)):
        F = field_create(p, f)
        for e in (d for d in range(1, f) if f % d == 0):
            cases += [subfield_conjugate(F, e, n, rng) for _ in range(3)]
        for _ in range(3):
            while True:
                T = random_set(F, n, rng.randrange(n, n + 3), rng)
                if is_irreducible(build_graph(T)).irreducible:
                    cases.append(T)
                    break
    degrees = set()
    for T in cases:
        G = build_graph(T)
        rep = defining_field(G)
        assert rep.degree == dense_field_oracle(densify(G)[0])[0]
        assert G.F.subfield_generated([r.weight for r in rep.witnesses]) == rep.degree
        degrees.add((G.F.f, rep.degree))
    assert {(4, 2), (6, 2), (6, 3), (6, 1)} <= degrees


# -- density -----------------------------------------------------------------


def test_is_dense_examples(monkeypatch):
    F = field_create(2, 1)
    t = Transvection(F, (1, 0), (0, 1))
    s = Transvection(F, (0, 1), (1, 0))
    ok, ce = is_dense(build_graph([t, s]))
    assert not ok
    assert ce == ((1, 0), (1, 0))  # v = e1, phi = e1*

    full_sl2 = [
        Transvection(F, (1, 0), (0, 1)),
        Transvection(F, (0, 1), (1, 0)),
        Transvection(F, (1, 1), (1, 1)),
    ]
    ok2, ce2 = is_dense(build_graph(full_sl2))
    assert ok2 and ce2 is None

    # the scan is held to PROJECTIVE_BUDGET points, counted as q^n: 2^20
    # by default, so GF(2)^21 is refused before any point is read
    with pytest.raises(CapExceeded) as exc:
        is_dense(build_graph([Transvection(F, e(21, 0), e(21, 1))]))
    assert exc.value.count == 2**20
    monkeypatch.setattr(tgraph, "PROJECTIVE_BUDGET", 4)
    assert is_dense(build_graph([t, s])) == (ok, ce)
    monkeypatch.setattr(tgraph, "PROJECTIVE_BUDGET", 3)
    with pytest.raises(CapExceeded):
        is_dense(build_graph([t, s]))


def test_shorten_path_examples():
    F = field_create(2, 1)
    t = Transvection(F, (1, 0), (0, 1))
    s = Transvection(F, (0, 1), (1, 0))
    G = build_graph([t, s])

    # phi = e1* pairs with v_t = e1 and phi_t = e2* pairs with v = e2,
    # so t itself is a one-step witness
    tp, word = shorten_path(G, (1, 0), (0, 1))
    assert tp == t and word == ((0, 1),)

    # the density counterexample needs a genuine conjugation
    tp2, word2 = shorten_path(G, (1, 0), (1, 0))
    assert len(word2) == 3
    assert dot(F, (1, 0), tp2.v) != 0 and dot(F, tp2.phi, (1, 0)) != 0
    assert word_matrix([t, s], word2) == tp2.matrix()

    with pytest.raises(NotIrreducible):
        shorten_path(build_graph([t]), (1, 0), (1, 0))


@pytest.mark.parametrize("word,match", [
    (((2, 1),), "not an index"),
    (((-1, 1),), "not an index"),
    (((1, 7),), "not \\+1 or -1"),
    (((0, 1), (1, 0)), "not \\+1 or -1"),
], ids=["past-the-end", "negative", "exponent-7", "exponent-0"])
def test_word_matrix_rejects_malformed_words(word, match):
    F = field_create(2, 1)
    T = (Transvection(F, (1, 0), (0, 1)), Transvection(F, (0, 1), (1, 0)))
    with pytest.raises(BadParameters, match=match):
        word_matrix(T, word)
    # a certificate is checked by evaluating its words, so a word read as
    # another (T[-1] as T[1], exponent 7 as -1) must not evaluate at all
    with pytest.raises(BadParameters, match=match):
        Certificate(base=T, T0=(T[1],), words=(word,), properties=())
    with pytest.raises(BadParameters, match="nonempty"):
        word_matrix((), word)
    assert word_matrix(T, ((1, -1), (0, 1))) == T[1].matrix().mul(T[0].matrix())


def test_shorten_path_fuzz():
    rng = random.Random(23)
    for p, f, n in ((2, 1, 3), (3, 1, 2), (3, 1, 3), (2, 2, 2)):
        F = field_create(p, f)
        done = 0
        while done < 12:
            T = random_set(F, n, rng.randrange(2, n + 3), rng)
            G = build_graph(T)
            if not is_irreducible(G).irreducible:
                continue
            done += 1
            pts = projective_points(F, n)
            for _ in range(5):
                v = rng.choice(pts)
                phi = rng.choice(pts)
                tp, word = shorten_path(G, phi, v)
                assert dot(F, phi, tp.v) != 0
                assert dot(F, tp.phi, v) != 0
                assert len(word) <= 2 * n - 1
                assert word_matrix(T, word) == tp.matrix()


def test_densify_examples():
    F = field_create(2, 1)
    full_sl2 = [
        Transvection(F, (1, 0), (0, 1)),
        Transvection(F, (0, 1), (1, 0)),
        Transvection(F, (1, 1), (1, 1)),
    ]
    out, words = densify(full_sl2)
    assert list(out) == full_sl2
    assert words == [((0, 1),), ((1, 1),), ((2, 1),)]

    pair = full_sl2[:2]
    out2, words2 = densify(pair)
    assert len(out2) == 3
    assert out2[:2] == pair
    ok, _ = is_dense(build_graph(out2))
    assert ok
    for tv, w in zip(out2, words2):
        assert len(w) <= 3
        assert word_matrix(pair, w) == tv.matrix()

    with pytest.raises(NotIrreducible):
        densify([full_sl2[0]])


def test_densify_invariant_failure_raises_internal_error(monkeypatch):
    # the final density check survives python -O and raises a TransvectError
    import transvect.tgraph as tgraph_mod

    F = field_create(2, 1)
    pair = [Transvection(F, (1, 0), (0, 1)), Transvection(F, (0, 1), (1, 0))]
    monkeypatch.setattr(tgraph_mod, "_first_hole", lambda masks, P: (0, 0))
    with pytest.raises(InternalError, match="not dense"):
        densify(pair)


def test_densify_fuzz():
    rng = random.Random(29)
    for p, f, n in ((2, 1, 3), (3, 1, 2), (2, 2, 2), (3, 1, 3)):
        F = field_create(p, f)
        done = 0
        while done < 8:
            T = random_set(F, n, rng.randrange(2, n + 3), rng)
            G = build_graph(T)
            if not is_irreducible(G).irreducible:
                continue
            done += 1
            out, words = densify(T)
            assert out[:len(T)] == list(T)
            ok, _ = is_dense(build_graph(out))
            assert ok
            for tv, w in zip(out, words):
                assert len(w) <= 2 * n - 1
                assert word_matrix(T, w) == tv.matrix()


# -- connect_up and winkle ---------------------------------------------------


def sp4_gf2():
    F = field_create(2, 1)
    gram = Mat(F, ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)))
    return F, gram, [Transvection(F, v, tuple(gram.matvec(v)))
                     for v in projective_points(F, 4)]


def test_connect_up():
    F, gram, dense_set = sp4_gf2()
    ok, _ = is_dense(build_graph(dense_set))
    assert ok

    T0 = [
        Transvection(F, e(4, 0), e(4, 1)),
        Transvection(F, e(4, 1), e(4, 0)),
        Transvection(F, e(4, 2), e(4, 3)),
        Transvection(F, e(4, 3), e(4, 2)),
    ]
    G0 = build_graph(T0)
    assert len(scc(G0)) == 2

    T1 = connect_up(dense_set, T0)
    assert T1[:4] == T0
    assert len(T1) <= 6
    assert is_strongly_connected(build_graph(T1))

    T1f = connect_up(dense_set, T0, form=gram)
    assert len(T1f) <= 5
    assert is_strongly_connected(build_graph(T1f))

    # already strongly connected: unchanged
    assert list(connect_up(dense_set, T0[:2])) == T0[:2]

    # a non-dense ambient set cannot link the components
    with pytest.raises(NotDense):
        connect_up(T0, T0)


def test_winkle():
    F, gram, dense_set = sp4_gf2()

    # nondegenerate start: nothing to do
    T0 = [
        Transvection(F, e(4, 0), e(4, 1)),
        Transvection(F, e(4, 1), e(4, 0)),
    ]
    assert defect(build_graph(T0)) == 0
    assert list(winkle(dense_set, T0)) == T0

    # isotropic direction e3 inside V(T0): defect 1, one witness added
    T1 = [
        Transvection(F, (1, 0, 0, 0), (0, 1, 0, 0)),
        Transvection(F, (0, 1, 0, 0), (1, 0, 0, 0)),
        Transvection(F, (1, 0, 1, 0), (0, 1, 0, 1)),
    ]
    G1 = build_graph(T1)
    assert is_strongly_connected(G1)
    assert defect(G1) == 1
    out = winkle(dense_set, T1)
    assert out[:3] == T1 and len(out) == 4
    Go = build_graph(out)
    assert defect(Go) == 0
    assert is_strongly_connected(Go)

    with pytest.raises(NotStronglyConnected):
        winkle(dense_set, [T1[0], Transvection(F, e(4, 2), e(4, 3))])

    # defect is bounded by both span dimensions
    rng = random.Random(31)
    for _ in range(30):
        T = random_set(field_create(2, 1), 4, rng.randrange(1, 5), rng)
        G = build_graph(T)
        assert defect(G) <= min(G.vspace.dim, G.dual_space.dim)


# -- section restriction -----------------------------------------------------


def test_restrict_to_section():
    F = field_create(2, 1)

    # nondegenerate: W = 0, section is the restriction to V(T)
    T = [
        Transvection(F, (1, 0, 0), (0, 1, 0)),
        Transvection(F, (0, 1, 0), (1, 0, 0)),
    ]
    sec = restrict_to_section(build_graph(T))
    assert sec.W.dim == 0 and sec.U.dim == 2
    assert len(sec.tbar) == 2
    assert sec.graph.pair == build_graph(T).pair

    # dim V(T) = dim V*(T) + 1: section drops one dimension
    T2 = [
        Transvection(F, (1, 0, 0), (0, 1, 1)),
        Transvection(F, (0, 1, 0), (1, 0, 1)),
        Transvection(F, (0, 0, 1), (1, 1, 0)),
    ]
    G2 = build_graph(T2)
    assert G2.vspace.dim == 3 and G2.dual_space.dim == 2
    assert defect(G2) == 0
    sec2 = restrict_to_section(G2)
    assert sec2.W.dim == 1 and sec2.U.dim == 3
    assert sec2.tbar[0].n == 2
    # cycle weights are preserved through the index map
    recs = cycles_up_to(G2, 4)
    for r in recs:
        image = tuple(sec2.index_map[i] for i in r.verts)
        assert cycle_weight(sec2.graph, image) == r.weight
    assert is_irreducible(sec2.graph).irreducible

    with pytest.raises(NotStronglyConnected):
        restrict_to_section(build_graph([
            Transvection(F, e(4, 0), e(4, 1)),
            Transvection(F, e(4, 2), e(4, 3)),
        ]))

    # a single transvection is strongly connected but has a zero section
    with pytest.raises(BadParameters):
        restrict_to_section(build_graph([Transvection(F, (1, 0, 0), (0, 1, 0))]))


def test_section_fuzz():
    rng = random.Random(37)
    for p, f, n in ((2, 1, 3), (3, 1, 3), (2, 1, 4)):
        F = field_create(p, f)
        done = 0
        while done < 10:
            T = random_set(F, n, rng.randrange(2, 5), rng)
            G = build_graph(T)
            if not is_strongly_connected(G):
                continue
            U = G.vspace
            W = U.intersect(G.dual_space.perp())
            if U.dim == W.dim:
                continue
            done += 1
            sec = restrict_to_section(G)
            for r in cycles_up_to(G, 4):
                image = tuple(sec.index_map[i] for i in r.verts)
                assert cycle_weight(sec.graph, image) == r.weight
            assert is_irreducible(sec.graph).irreducible


def test_transvection_membership_in_small_groups():
    # for generating sets of the full special linear group, every transvection
    # 1 + v (x) phi with v in V(T), phi in V*(T), phi(v) = 0 lies in <T>.
    # A single upper/lower pair is not enough over non-prime fields (two
    # involutions over GF(4) only give a dihedral group); one generator per
    # prime-field digit is.
    for p, f in ((3, 1), (2, 2)):
        F = field_create(p, f)
        scalars = [F.pow(F.primitive_element(), k) for k in range(f)]
        T = []
        for x in scalars:
            T.append(Transvection(F, (1, 0), (0, x)))
            T.append(Transvection(F, (0, 1), (x, 0)))
        group = enumerate_matrix_group([t.matrix() for t in T])
        order = F.q * (F.q**2 - 1)  # |SL2(q)|
        assert len(group) == order
        members = {g.rows for g in group}
        pts = projective_points(F, 2)
        for v in pts:
            for phi in pts:
                if dot(F, phi, v) != 0:
                    continue
                M = Transvection(F, v, phi).matrix()
                assert M.rows in members
