"""Tests for invariant-form detection, quadratic recovery, the relation form,
and the transvective-vector toolkit."""

from __future__ import annotations

import random
from itertools import combinations, product

import pytest

from transvect import forms, tgraph
from transvect.classify import build_monomial_group, build_symmetric_rep
from transvect.errors import (
    BadParameters,
    CapExceeded,
    InternalError,
    MissingForm,
    NoInvolution,
    NotInvariantForm,
    NotIrreducible,
    NoWitness,
    Singular,
    UnsupportedKind,
    WrongCharacteristic,
)
from transvect.forms import (
    ObstructionCycle,
    QuadraticForm,
    QuadraticObstruction,
    SesquiForm,
    detect_invariant_form,
    is_transvective,
    recover_quadratic,
    transvective_fixup,
    transvective_split,
)
from transvect.gf import field_create
from transvect.linalg import Mat, Subspace, dot, is_zero_vec, vec_add, vec_scale
from transvect.tgraph import (
    build_graph,
    cycle_symplectic_defect,
    cycle_unitary_defect,
    cycle_weight,
    is_irreducible,
)
from transvect.transvections import Transvection, standard_full_field_set

from oracles import (
    cycles_up_to,
    directed_diameter,
    invariant_under,
    preserved_by,
    projective_points,
)

F2 = field_create(2, 1)
F3 = field_create(3, 1)
F4 = field_create(2, 2)
F5 = field_create(5, 1)
F9 = field_create(3, 2)


def e(n, i, c=1):
    v = [0] * n
    v[i] = c
    return tuple(v)


def random_transvection(F, n, rng):
    while True:
        v = tuple(rng.randrange(F.q) for _ in range(n))
        if is_zero_vec(v):
            continue
        piv = next(i for i in range(n) if v[i] != 0)
        phi = [rng.randrange(F.q) for _ in range(n)]
        acc = 0
        for i in range(n):
            if i != piv:
                acc = F.add(acc, F.mul(phi[i], v[i]))
        phi[piv] = F.div(F.neg(acc), v[piv])
        phi = tuple(phi)
        if not is_zero_vec(phi):
            return Transvection(F, v, phi)


def random_set(F, n, k, rng):
    return [random_transvection(F, n, rng) for _ in range(k)]


def enumerate_matrix_group(F, mats, cap=10**6):
    gens = [m.rows for m in mats]
    ident = Mat.identity(F, mats[0].nrows).rows
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for rows in frontier:
            m = Mat(F, rows)
            for g in gens:
                prod_rows = m.mul(Mat(F, g)).rows
                if prod_rows not in seen:
                    seen.add(prod_rows)
                    nxt.append(prod_rows)
                    if len(seen) > cap:
                        raise AssertionError("group enumeration cap hit")
        frontier = nxt
    return seen


# -- independent existence oracle ---------------------------------------------


def _digits(F, x):
    return [(x // F.p**k) % F.p for k in range(F.f)]


def form_exists_oracle(F, n, mats, twist):
    """Whether a nonzero twisted-antisymmetric invariant Gram matrix exists,
    by solving the prime-field linear system on the n^2 * f digit unknowns."""
    th = F.involution if twist == "theta" else (lambda x: x)
    Fp = field_create(F.p, 1)
    cols = []
    for i in range(n):
        for j in range(n):
            for k in range(F.f):
                E = [[0] * n for _ in range(n)]
                E[i][j] = F.p**k
                Em = Mat(F, tuple(tuple(r) for r in E))
                col = []
                for M in mats:
                    tm = M.map_entries(th)
                    R = M.transpose().mul(Em).mul(tm).sub(Em)
                    for r in R.rows:
                        for a in r:
                            col.extend(_digits(F, a))
                S = Em.add(Em.transpose().map_entries(th))
                for r in S.rows:
                    for a in r:
                        col.extend(_digits(F, a))
                if twist == "identity" and F.p == 2:
                    for d in range(n):
                        col.extend(_digits(F, Em.rows[d][d]))
                cols.append(col)
    return Subspace(Fp, len(cols), list(zip(*cols))).perp().dim > 0


# -- fixtures ------------------------------------------------------------------


SP4_GRAM = Mat(F2, ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)))


def symplectic_transvections(F, gram):
    """All transvections 1 + v (x) f(., v) over GF(2) for the given form."""
    f = SesquiForm(F, gram, "identity")
    n = gram.nrows
    out = []
    for v in product(range(F.q), repeat=n):
        if any(v):
            out.append(Transvection(F, v, f.dual_covector(v)))
    return out, f


def orthogonal_transvections(Q):
    """All 1 + v (x) f(., v) with Q(v) != 0 for a quadratic form over GF(2)."""
    F = Q.F
    f = Q.polarization()
    out = []
    for v in product(range(F.q), repeat=Q.n):
        if any(v) and Q.evaluate(v) != 0:
            out.append(Transvection(F, v, f.dual_covector(v)))
    return out, f


Q_PLUS4 = QuadraticForm(F2, Mat(F2, ((0, 1, 0, 0), (0, 0, 0, 0),
                                     (0, 0, 0, 1), (0, 0, 0, 0))))
Q_MINUS4 = QuadraticForm(F2, Mat(F2, ((0, 1, 0, 0), (0, 0, 0, 0),
                                      (0, 0, 1, 1), (0, 0, 0, 1))))
Q_PLUS6 = QuadraticForm(F2, Mat(F2, ((0, 1, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0),
                                     (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 0, 0),
                                     (0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 0, 0))))


# -- SesquiForm / QuadraticForm basics ----------------------------------------


def test_sesquiform_examples():
    f = SesquiForm(F2, SP4_GRAM, "identity")
    assert f.evaluate(e(4, 0), e(4, 1)) == 1
    assert f.evaluate(e(4, 0), e(4, 2)) == 0
    assert f.evaluate((1, 1, 0, 0), (1, 1, 0, 0)) == 0
    assert f.dual_covector(e(4, 0)) == (0, 1, 0, 0)
    assert f.evaluate((1, 0, 1, 0), (1, 0, 1, 0)) == 0
    t = Transvection(F2, (1, 0, 0, 0), f.dual_covector((1, 0, 0, 0)))
    assert invariant_under(f, t.matrix())

    with pytest.raises(Singular):
        SesquiForm(F2, Mat.zero(F2, 2, 2), "identity")
    with pytest.raises(NotInvariantForm):
        SesquiForm(F3, Mat(F3, ((0, 1), (1, 0))), "identity")
    with pytest.raises(NotInvariantForm):
        # invertible and symmetric, but not alternating over GF(2)
        SesquiForm(F2, Mat.identity(F2, 2), "identity")
    with pytest.raises(NoInvolution):
        SesquiForm(F2, Mat(F2, ((0, 1), (1, 0))), "theta")

    # odd characteristic symplectic
    g3 = Mat(F3, ((0, 1), (2, 0)))
    f3 = SesquiForm(F3, g3, "identity")
    assert f3.evaluate((1, 0), (0, 1)) == 1
    assert f3.evaluate((0, 1), (1, 0)) == 2

    # unitary over GF(4): hermitian-antisymmetric coincide in characteristic 2
    g4 = Mat(F4, ((0, 1, 0), (1, 0, 0), (0, 0, 1)))
    f4 = SesquiForm(F4, g4, "theta")
    om = F4.primitive_element()
    assert f4.evaluate((0, 0, 1), (0, 0, 1)) == 1
    assert f4.evaluate(e(3, 0), (0, om, 0)) == F4.involution(om)


def test_quadratic_form_examples():
    Q = Q_PLUS4
    assert Q.evaluate((1, 1, 0, 0)) == 1
    assert Q.evaluate((1, 0, 0, 0)) == 0
    assert Q.evaluate((1, 1, 1, 1)) == 0
    assert Q.polarization().gram.rows == SP4_GRAM.rows
    assert preserved_by(Q, Mat.identity(F2, 4))
    t = Transvection(F2, (1, 1, 0, 0), Q.polarization().dual_covector((1, 1, 0, 0)))
    assert preserved_by(Q, t.matrix())
    s = Transvection(F2, (1, 0, 0, 0), Q.polarization().dual_covector((1, 0, 0, 0)))
    assert not preserved_by(Q, s.matrix())  # Q(v) = 0 moves the form

    with pytest.raises(WrongCharacteristic):
        QuadraticForm(F3, Mat(F3, ((0, 1), (0, 0))))
    with pytest.raises(BadParameters):
        QuadraticForm(F2, Mat(F2, ((0, 1), (1, 0))))
    with pytest.raises(Singular):
        QuadraticForm(F2, Mat(F2, ((1, 0), (0, 1))))  # polarization zero


def hyperbolic_q(F, n):
    rows = [[0] * n for _ in range(n)]
    for i in range(0, n, 2):
        rows[i][i + 1] = 1
    return QuadraticForm(F, Mat(F, tuple(tuple(r) for r in rows)))


def test_polarization_identity():
    # exhaustive over all vector pairs for q = 2 up to dimension 6, fuzzed
    # over GF(4); forms sampled among upper-triangular coefficient matrices
    # with nondegenerate polarization (even dimension only)
    rng = random.Random(7)

    def sample_form(F, n):
        while True:
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    rows[i][j] = rng.randrange(F.q)
            try:
                return QuadraticForm(F, Mat(F, tuple(tuple(r) for r in rows)))
            except Singular:
                continue

    for n in (2, 4, 6):
        for Q in (hyperbolic_q(F2, n), sample_form(F2, n), sample_form(F2, n)):
            f = Q.polarization()
            for x in product(range(2), repeat=n):
                for y in product(range(2), repeat=n):
                    lhs = F2.add(Q.evaluate(vec_add(F2, x, y)),
                                 F2.add(Q.evaluate(x), Q.evaluate(y)))
                    assert lhs == f.evaluate(x, y)

    for _ in range(3):
        Q = sample_form(F4, 4)
        f = Q.polarization()
        for _ in range(50):
            x = tuple(rng.randrange(4) for _ in range(4))
            y = tuple(rng.randrange(4) for _ in range(4))
            lhs = F4.add(Q.evaluate(vec_add(F4, x, y)),
                         F4.add(Q.evaluate(x), Q.evaluate(y)))
            assert lhs == f.evaluate(x, y)


# -- detect_invariant_form ----------------------------------------------------


def test_detect_sp4_gram():
    T, f = symplectic_transvections(F2, SP4_GRAM)
    assert len(T) == 15
    G = build_graph(T)
    res = detect_invariant_form(G, "identity")
    assert isinstance(res, SesquiForm)
    # over GF(2) the invariant form is unique, so the Gram matrix is exact
    assert res.gram.rows == SP4_GRAM.rows
    for t in T:
        assert invariant_under(res, t.matrix())
    assert form_exists_oracle(F2, 4, [t.matrix() for t in T], "identity")


def test_detect_invariance_failure_raises_internal_error(monkeypatch):
    # the final invariance check survives python -O and raises InternalError
    T, _ = symplectic_transvections(F2, SP4_GRAM)
    monkeypatch.setattr(SesquiForm, "kept_by", lambda self, t: False)
    with pytest.raises(InternalError, match="rejected by a generator"):
        detect_invariant_form(build_graph(T), "identity")


def test_detect_obstruction_ring():
    # SL pair over GF(4) with lambda = omega plus a weight-1 return path:
    # one-way 3-ring whose forward weight omega cannot match the zero
    # reverse weight
    om = F4.primitive_element()
    T = [Transvection(F4, e(3, 0), (0, om, 0)),
         Transvection(F4, e(3, 1), (0, 0, 1)),
         Transvection(F4, e(3, 2), (1, 0, 0))]
    G = build_graph(T)
    res = detect_invariant_form(G, "identity")
    assert isinstance(res, ObstructionCycle)
    assert res.verts == (0, 1, 2)
    assert len(res.verts) <= 5
    assert res.weight_fwd == om
    assert res.weight_rev == 0
    assert res.defect == om
    assert res.twist == "identity"
    assert not form_exists_oracle(F4, 3, [t.matrix() for t in T], "identity")


def test_detect_obstruction_two_cycle_theta():
    # an SL_2(4) pair conforms symplectically but its 2-cycle weight omega is
    # not theta-fixed, so the unitary twist reports the 2-cycle first
    om = F4.primitive_element()
    t = Transvection(F4, (1, 0), (0, om))
    s = Transvection(F4, (0, 1), (1, 0))
    G = build_graph([t, s])
    sym = detect_invariant_form(G, "identity")
    assert isinstance(sym, SesquiForm)
    res = detect_invariant_form(G, "theta")
    assert isinstance(res, ObstructionCycle)
    assert res.verts == (0, 1)
    assert res.weight_fwd == om and res.weight_rev == om
    assert res.defect == F4.sub(om, F4.involution(om))
    assert not form_exists_oracle(F4, 2, [t.matrix(), s.matrix()], "theta")


def test_detect_su3_gram():
    for F in (F4, F9):
        T = standard_full_field_set("SU3", F, 3)
        G = build_graph(T)
        res = detect_invariant_form(G, "theta")
        assert isinstance(res, SesquiForm)
        assert res.twist == "theta"
        for t in T:
            assert invariant_under(res, t.matrix())
        assert form_exists_oracle(F, 3, [t.matrix() for t in T], "theta")


def test_detect_requires_involution():
    T, _ = symplectic_transvections(F2, SP4_GRAM)
    with pytest.raises(NoInvolution):
        detect_invariant_form(build_graph(T), "theta")
    with pytest.raises(BadParameters):
        detect_invariant_form(build_graph(T), "hermitian")


def test_detect_requires_irreducible():
    t = Transvection(F2, (1, 0), (0, 1))
    with pytest.raises(NotIrreducible):
        detect_invariant_form(build_graph([t]), "identity")


def test_detect_round_trip():
    # when the generators sit inside Sp/SU by construction, the detected form
    # cuts out the same transvection set as the original
    def all_transvections(F, n):
        out = []
        for v in product(range(F.q), repeat=n):
            if not any(v):
                continue
            piv = next(i for i in range(n) if v[i] != 0)
            if v[piv] != 1 or any(v[i] != 0 for i in range(piv)):
                continue  # canonical projective representative
            for phi in product(range(F.q), repeat=n):
                if any(phi) and dot(F, phi, v) == 0:
                    out.append(Transvection(F, v, phi))
        return out

    cases = []
    T, f = symplectic_transvections(F2, SP4_GRAM)
    cases.append((F2, 4, T, f, "identity"))
    g4 = Mat(F4, ((0, 1, 0), (1, 0, 0), (0, 0, 1)))
    fu = SesquiForm(F4, g4, "theta")
    Tu = [t for t in all_transvections(F4, 3)
          if invariant_under(fu, t.matrix())]
    cases.append((F4, 3, Tu, fu, "theta"))

    for F, n, T, f, twist in cases:
        res = detect_invariant_form(build_graph(T), twist)
        assert isinstance(res, SesquiForm)
        for t in all_transvections(F, n):
            assert invariant_under(f, t.matrix()) == invariant_under(res, t.matrix())


def test_detect_oracle_fuzz():
    rng = random.Random(20260814)
    cases = [(F2, 3, 4), (F2, 4, 5), (F3, 3, 4), (F4, 2, 3), (F4, 3, 4),
             (F5, 2, 3), (F9, 2, 3), (F9, 3, 4)]
    for F, n, k in cases:
        for _ in range(8):
            T = random_set(F, n, k, rng)
            G = build_graph(T)
            if not is_irreducible(G).irreducible:
                continue
            mats = [t.matrix() for t in T]
            twists = ["identity"] + (["theta"] if F.has_involution() else [])
            for twist in twists:
                res = detect_invariant_form(G, twist)
                exists = form_exists_oracle(F, n, mats, twist)
                if isinstance(res, SesquiForm):
                    assert exists
                    for t in T:
                        assert invariant_under(res, t.matrix())
                else:
                    assert not exists
                    assert isinstance(res, ObstructionCycle)
                    # recompute the cycle arithmetic from the graph
                    th = F.involution if twist == "theta" else (lambda x: x)
                    wf = cycle_weight(G, res.verts)
                    wr = cycle_weight(G, tuple(reversed(res.verts)))
                    assert wf == res.weight_fwd and wr == res.weight_rev
                    if len(res.verts) % 2 == 0:
                        assert res.defect == F.sub(wf, th(wr))
                    else:
                        assert res.defect == F.add(wf, th(wr))
                    assert res.defect != 0
                    if twist == "identity":
                        assert cycle_symplectic_defect(res.verts, G) == res.defect
                    else:
                        assert cycle_unitary_defect(res.verts, G) == res.defect


def random_irreducible(F, n, rng):
    while True:
        T = random_set(F, n, rng.randrange(n, n + 3), rng)
        if is_irreducible(build_graph(T)).irreducible:
            return T


def test_detect_hunt_bounds_stay_within_twice_the_diameter(monkeypatch):
    # detection hunts obstructions up to the witness length of the failed
    # check without clamping it, which is sound only if every such bound is
    # at most 2D + 1 for the directed diameter D
    bounds = []
    first = forms._first_obstruction

    def recording(G, th, twist, limit):
        bounds.append(limit)
        return first(G, th, twist, limit)

    monkeypatch.setattr(forms, "_first_obstruction", recording)
    rng = random.Random(202)
    hunts = 0
    for F in (F2, F3, F4, F5, F9):
        for n in (2, 3, 4):
            for _ in range(12):
                T = random_irreducible(F, n, rng)
                G = build_graph(T)
                D = directed_diameter(G)
                for twist in ("identity", "theta") if F.has_involution() else ("identity",):
                    bounds.clear()
                    res = detect_invariant_form(G, twist)
                    assert len(bounds) == isinstance(res, ObstructionCycle)
                    for b in bounds:
                        assert 1 <= b <= 2 * D + 1
                        assert len(res.verts) <= b
                    hunts += len(bounds)
    assert hunts >= 50


def brute_force_walk_list(G, L):
    """Every closed walk of 2..L vertices with all arcs edges, one per
    rotation class (its least rotation), sorted by (length, vertices)."""
    N = len(G.verts)
    found = set()
    for k in range(2, L + 1):
        walks = [(s,) for s in range(N)]
        for _ in range(k - 1):
            walks = [w + (t,) for w in walks for t in G.succ[w[-1]]]
        found.update(min(w[i:] + w[:i] for i in range(k))
                     for w in walks if G.pair[w[-1]][w[0]])
    return sorted(found, key=lambda w: (len(w), w))


def first_obstruction_agrees(G, twist, L):
    F = G.F
    th = F.involution if twist == "theta" else (lambda x: x)
    want = next((w for w in brute_force_walk_list(G, L)
                 if cycle_unitary_defect(w, G, th)), None)
    if want is None:
        with pytest.raises(InternalError, match="no obstruction cycle"):
            forms._first_obstruction(G, th, twist, L)
        return False
    got = forms._first_obstruction(G, th, twist, L)
    wf = cycle_weight(G, want)
    wr = cycle_weight(G, want[::-1])
    d = cycle_unitary_defect(want, G, th)
    assert got == ObstructionCycle(want, wf, wr, d, twist)
    return True


def su4_transvections():
    """Six unitary transvections generating SU4(2) inside SL4(4)."""
    gram = Mat(F4, ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)))
    h = SesquiForm(F4, gram, twist="theta")
    vs = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
          (1, 0, 1, 0), (1, 0, 2, 0)]
    return [Transvection(F4, v, h.dual_covector(v)) for v in vs]


def test_first_obstruction_is_the_first_non_conforming_walk():
    F8, F16 = field_create(2, 3), field_create(2, 4)
    cases = [(build_graph(build_monomial_group(4, 7, F8)), (2, 3)),
             (build_graph(build_monomial_group(4, 5, F16)), (2, 3))]
    su4 = su4_transvections()
    cases += [(build_graph(list(S)), (2, 3, 4, 5))
              for k in (3, 4, 5) for S in combinations(su4, k)]
    rng = random.Random(31)
    for F in (F2, F3, F4, F5, F9):
        for _ in range(10):
            n = rng.choice((2, 3))
            cases.append((build_graph(random_set(F, n, rng.randrange(2, 5), rng)),
                          (2, 3, 4, 5)))
    found = 0
    for G, limits in cases:
        twists = ("identity", "theta") if G.F.has_involution() else ("identity",)
        for twist in twists:
            for L in limits:
                found += first_obstruction_agrees(G, twist, L)
    assert found >= 40


def test_hunt_returns_its_witness_before_the_walk_budget_runs_out(monkeypatch):
    # the hunt's full enumeration passes the budget, but the stream reaches
    # the first obstruction before it does
    G = build_graph(build_monomial_group(4, 7, field_create(2, 3)))
    bounds = []
    first = forms._first_obstruction

    def recording(G, th, twist, limit):
        bounds.append(limit)
        return first(G, th, twist, limit)

    monkeypatch.setattr(forms, "_first_obstruction", recording)
    res = detect_invariant_form(G, "identity")
    assert isinstance(res, ObstructionCycle) and len(bounds) == 1
    monkeypatch.setattr(tgraph, "WALK_BUDGET", 2000)
    with pytest.raises(CapExceeded):
        cycles_up_to(G, bounds[0])
    assert detect_invariant_form(G, "identity") == res


# -- recover_quadratic ---------------------------------------------------------


def test_recover_quadratic_o6_hyperbolic_block():
    T, f = orthogonal_transvections(Q_PLUS6)
    assert len(T) == 28
    # the construction pair u = e1+e2, v = lam*e1+e3+e4 sits inside
    u, v = (1, 1, 0, 0, 0, 0), (1, 0, 1, 1, 0, 0)
    assert Q_PLUS6.evaluate(u) == 1 and Q_PLUS6.evaluate(v) == 1
    assert f.evaluate(u, v) == 1
    G = build_graph(T)
    fdet = detect_invariant_form(G, "identity")
    assert isinstance(fdet, SesquiForm)
    assert fdet.gram.rows == f.gram.rows
    Q = recover_quadratic(G, fdet)
    assert isinstance(Q, QuadraticForm)
    assert Q.coeffs.rows == Q_PLUS6.coeffs.rows
    # the hyperbolic block reads x1 x2 + x3 x4
    assert Q.coeffs.rows[0][1] == 1 and Q.coeffs.rows[2][3] == 1
    assert Q.coeffs.rows[0][2] == Q.coeffs.rows[1][2] == Q.coeffs.rows[1][3] == 0


def test_recover_quadratic_invariant_failure_raises_internal_error(monkeypatch):
    # the invariance check survives python -O and raises a TransvectError
    T, _ = orthogonal_transvections(Q_PLUS6)
    G = build_graph(T)
    f = detect_invariant_form(G, "identity")
    monkeypatch.setattr(QuadraticForm, "kept_by", lambda self, t: False)
    with pytest.raises(InternalError, match="does not preserve"):
        recover_quadratic(G, f)


def rebuild_quadratic(T, f):
    """Independent rebuild of the form `recover_quadratic` pins: Q = 1 on
    the first basis among the rescaled vectors u_t (phi_t = a f(., v_t),
    u_t = sqrt(a) v_t) and polarization f.  Returns the u_t, Q as a
    function solving for coordinates in that basis, and Q's upper-triangular
    coefficients."""
    F, n = f.F, f.n
    us = []
    for t in T:
        w = f.dual_covector(t.v)
        i0 = next(i for i in range(n) if w[i])
        us.append(vec_scale(F, F.sqrt_char2(F.div(t.phi[i0], w[i0])), t.v))
    basis = []
    span = Subspace.zero(F, n)
    for u in us:
        if not span.contains(u):
            basis.append(u)
            span = span.sum(Subspace(F, n, [u]))
    B = Mat(F, tuple(basis)).transpose()

    def q_val(x):
        c = B.solve(x)
        acc = 0
        for i in range(n):
            acc = F.add(acc, F.mul(c[i], c[i]))
            for j in range(i + 1, n):
                acc = F.add(acc, F.mul(F.mul(c[i], c[j]),
                                       f.evaluate(basis[i], basis[j])))
        return acc

    coeffs = tuple(tuple(q_val(e(n, i)) if j == i
                         else f.evaluate(e(n, i), e(n, j)) if j > i else 0
                         for j in range(n)) for i in range(n))
    return us, q_val, coeffs


def test_recover_quadratic_sp4_obstruction():
    T, f = symplectic_transvections(F2, SP4_GRAM)
    G = build_graph(T)
    res = recover_quadratic(G, f)
    assert isinstance(res, QuadraticObstruction)
    assert res.value == 0
    # reconstruct the pinned Q independently: Q = 1 on the first basis among
    # the v_t and polarization f; the obstruction is the first t violating it
    vs, q_val, _ = rebuild_quadratic(T, f)
    assert vs == [t.v for t in T]
    expected = next(i for i, v in enumerate(vs) if q_val(v) != 1)
    assert res.index == expected
    assert q_val(vs[res.index]) == 0


def orthogonal_sample(F, Q, k, seed):
    """k transvections 1 + v (x) Q(v)^-1 f(., v) preserving Q, for seeded
    nonsingular v that span the space."""
    f = Q.polarization()
    rng = random.Random(seed)
    while True:
        vs = []
        while len(vs) < k:
            v = tuple(rng.randrange(F.q) for _ in range(Q.n))
            if any(v) and Q.evaluate(v):
                vs.append(v)
        if Mat(F, vs).rank() == Q.n:
            return [Transvection(F, v, vec_scale(F, F.inv(Q.evaluate(v)),
                                                 f.dual_covector(v)))
                    for v in vs], f


def quadratic_recovery_inputs():
    F8 = field_create(2, 3)
    Q4 = QuadraticForm(F4, Mat(F4, ((1, 1, 0, 0), (0, 2, 0, 0),
                                    (0, 0, 0, 1), (0, 0, 0, 3))))
    Q8 = QuadraticForm(F8, Mat(F8, ((5, 1, 0, 0, 0, 0), (0, 3, 0, 0, 0, 0),
                                    (0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 0, 0),
                                    (0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 0, 7))))
    yield "o6plus", orthogonal_transvections(Q_PLUS6)
    for m in (8, 9):
        T = build_symmetric_rep(m)
        yield f"rep{m}", (T, detect_invariant_form(build_graph(T), "identity"))
    yield "minus4", orthogonal_transvections(Q_MINUS4)
    yield "plus4", orthogonal_transvections(Q_PLUS4)
    yield "sp4-obstruction", symplectic_transvections(F2, SP4_GRAM)
    for seed in range(3):
        yield f"gf4-{seed}", orthogonal_sample(F4, Q4, 6, seed)
        yield f"gf8-{seed}", orthogonal_sample(F8, Q8, 9, seed)


def test_recover_quadratic_matches_the_independent_rebuild():
    names = []
    for name, (T, f) in quadratic_recovery_inputs():
        us, q_val, coeffs = rebuild_quadratic(T, f)
        res = recover_quadratic(build_graph(T), f)
        bad = next((i for i, u in enumerate(us) if q_val(u) != 1), None)
        if bad is None:
            assert isinstance(res, QuadraticForm), name
            assert res.coeffs.rows == coeffs, name
            assert all(preserved_by(res, t.matrix()) for t in T), name
        else:
            assert res == QuadraticObstruction(bad, q_val(us[bad])), name
        names.append(name)
    assert len(names) == 12


def random_alternating_form(F, n, rng):
    while True:
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                g[i][j] = g[j][i] = rng.randrange(F.q)
        gram = Mat(F, g)
        if gram.det():
            return SesquiForm(F, gram, "identity")


def test_parallel_test_agrees_with_matrix_invariance():
    # an alternating f is preserved by t exactly when phi_t is parallel to
    # f(., v_t); recover_quadratic raises NotInvariantForm exactly then
    F8 = field_create(2, 3)
    seen = {True: 0, False: 0}
    for F in (F2, F4, F8):
        rng = random.Random(F.q)
        for n in (2, 4, 6):
            for _ in range(8):
                f = random_alternating_form(F, n, rng)
                # transvections along the basis vectors preserve f and span
                base = [Transvection(F, e(n, i), f.dual_covector(e(n, i)))
                        for i in range(n)]
                v = random_transvection(F, n, rng).v
                a = rng.randrange(1, F.q) if F.q > 2 else 1
                for t in (random_transvection(F, n, rng),
                          Transvection(F, v, vec_scale(F, a, f.dual_covector(v)))):
                    invariant = invariant_under(f, t.matrix())
                    seen[invariant] += 1
                    G = build_graph(base + [t])
                    if invariant:
                        assert isinstance(recover_quadratic(G, f),
                                          (QuadraticForm, QuadraticObstruction))
                    else:
                        with pytest.raises(NotInvariantForm):
                            recover_quadratic(G, f)
    assert min(seen.values()) >= 20


def every_transvection(F, n):
    """Every transvection of F^n once: v a canonical projective point and
    phi any nonzero covector with phi(v) = 0."""
    for v in projective_points(F, n):
        for phi in product(range(F.q), repeat=n):
            if any(phi) and dot(F, phi, v) == 0:
                yield Transvection(F, v, phi)


def random_form(F, n, twist, rng):
    """A nondegenerate twisted-antisymmetric form: gram[j][i] =
    -theta(gram[i][j]), with a zero diagonal for the identity twist."""
    th = F.involution if twist == "theta" else (lambda x: x)
    diag = [x for x in range(F.q) if twist == "theta" and F.add(x, th(x)) == 0]
    while True:
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = rng.choice(diag or [0])
            for j in range(i + 1, n):
                g[i][j] = rng.randrange(F.q)
                g[j][i] = F.neg(th(g[i][j]))
        if Mat(F, g).det():
            return SesquiForm(F, Mat(F, g), twist)


def random_quadratic_form(F, n, rng):
    """A quadratic form with random upper-triangular coefficients and a
    nondegenerate polarization."""
    while True:
        coeffs = Mat(F, [[rng.randrange(F.q) if j >= i else 0 for j in range(n)]
                         for i in range(n)])
        try:
            return QuadraticForm(F, coeffs)
        except Singular:
            continue


# GF(3)^3 has no nondegenerate alternating or hermitian form (odd n, and 3
# is not a square), so GF(3)^4 stands in for it
@pytest.mark.parametrize("p,f,n", [(2, 1, 4), (3, 1, 4), (5, 1, 2), (2, 2, 2),
                                   (2, 2, 3), (3, 2, 2)])
def test_kept_by_agrees_with_the_matrix_identities(p, f, n):
    # the (v, phi) tests of invariance against M^T gram theta(M) = gram and
    # Q(Mx) = Q(x), on every transvection of F^n and seeded random
    # alternating, theta-twisted and quadratic forms
    F = field_create(p, f)
    rng = random.Random(100 * p + 10 * f + n)
    forms = []
    if n % 2 == 0:
        forms += [random_form(F, n, "identity", rng) for _ in range(3)]
    if F.has_involution():
        forms += [random_form(F, n, "theta", rng) for _ in range(3)]
    quads = [random_quadratic_form(F, n, rng) for _ in range(3)] if p == 2 and n % 2 == 0 else []
    seen = {True: 0, False: 0}
    for t in every_transvection(F, n):
        M = t.matrix()
        for form in forms:
            kept = form.kept_by(t)
            assert kept == invariant_under(form, M), (form, t)
            seen[kept] += 1
        for Q in quads:
            kept = Q.kept_by(t)
            assert kept == preserved_by(Q, M), (Q, t)
            seen[kept] += 1
    # SL2 = Sp2: over a prime field in dimension 2 every transvection keeps
    # every alternating form, and no other form is drawn
    assert seen[True] and (seen[False] or (n, f) == (2, 1))


def test_recover_quadratic_rejects_a_form_only_the_last_generator_breaks():
    for _, (T, f) in quadratic_recovery_inputs():
        F, n = f.F, f.n
        rng = random.Random(len(T))
        while True:
            t = random_transvection(F, n, rng)
            if not invariant_under(f, t.matrix()):
                break
        recover_quadratic(build_graph(T), f)  # every other generator keeps f
        with pytest.raises(NotInvariantForm):
            recover_quadratic(build_graph(T + [t]), f)


def test_recover_quadratic_minus_type_orbit():
    # the transvections of a minus-type quadratic form on GF(2)^4 are a
    # single class generating the full orthogonal group, of order 120
    T, f = orthogonal_transvections(Q_MINUS4)
    assert len(T) == 10
    G = build_graph(T)
    assert is_irreducible(G).irreducible
    Q = recover_quadratic(G, f)
    assert isinstance(Q, QuadraticForm)
    assert Q.coeffs.rows == Q_MINUS4.coeffs.rows
    group = enumerate_matrix_group(F2, [t.matrix() for t in T])
    assert len(group) == 120
    # closed under conjugation: one orbit of transvections
    mats = {t.matrix().rows for t in T}
    for t in T:
        m, mi = t.matrix(), t.matrix().inv()
        for s in T:
            assert m.mul(s.matrix()).mul(mi).rows in mats

    # plus type on GF(2)^4 contrasts: its 6 transvections act reducibly (two
    # commuting triangles) and generate a proper index-2 subgroup, but their
    # vectors still span, so recovery works and returns the original form
    Tp, fp = orthogonal_transvections(Q_PLUS4)
    assert len(Tp) == 6
    Gp = build_graph(Tp)
    rep = is_irreducible(Gp)
    assert not rep.irreducible and rep.failed_condition == "connectivity"
    assert len(enumerate_matrix_group(F2, [t.matrix() for t in Tp])) == 36
    Qp = recover_quadratic(Gp, fp)
    assert isinstance(Qp, QuadraticForm)
    assert Qp.coeffs.rows == Q_PLUS4.coeffs.rows
    # vectors that do not span stay rejected
    with pytest.raises(NotIrreducible):
        recover_quadratic(build_graph(Tp[:2]), fp)


def test_recover_quadratic_guards():
    T, f = symplectic_transvections(F2, SP4_GRAM)
    G = build_graph(T)
    with pytest.raises(WrongCharacteristic):
        g3 = Mat(F3, ((0, 1), (2, 0)))
        T3 = [Transvection(F3, (1, 0), (0, 1)), Transvection(F3, (0, 1), (1, 0))]
        recover_quadratic(build_graph(T3), SesquiForm(F3, g3, "identity"))
    # a form the group does not preserve
    other = SesquiForm(F2, Mat(F2, ((0, 0, 1, 0), (0, 0, 0, 1),
                                    (1, 0, 0, 0), (0, 1, 0, 0))), "identity")
    with pytest.raises(NotInvariantForm):
        recover_quadratic(G, other)


# -- transvective vectors ------------------------------------------------------


def test_is_transvective_examples():
    assert is_transvective((1, 0, 0, 0), "symplectic")
    assert is_transvective((1, 2), "linear")
    assert not is_transvective((0, 0), "linear")
    assert not is_transvective((0, 0, 0, 0), "symplectic")

    g4 = Mat(F4, ((0, 1, 0), (1, 0, 0), (0, 0, 1)))
    fu = SesquiForm(F4, g4, "theta")
    assert is_transvective(e(3, 0), "unitary", fu)
    assert not is_transvective(e(3, 2), "unitary", fu)  # f(e3,e3) = 1
    assert not is_transvective((0, 0, 0), "unitary", fu)

    assert not is_transvective(e(4, 0), "orthogonal", Q_PLUS4)  # Q = 0
    assert is_transvective((1, 1, 0, 0), "orthogonal", Q_PLUS4)

    with pytest.raises(MissingForm):
        is_transvective((1, 0, 0), "unitary")
    with pytest.raises(MissingForm):
        is_transvective((1, 0, 0, 0), "orthogonal")
    with pytest.raises(UnsupportedKind):
        is_transvective((1, 0), "projective")


def test_transvective_fixup_trivial_and_linear():
    assert transvective_fixup((1, 2, 0), [(1, 2, 0)], "linear") == (0, 0, 0, 0)
    assert transvective_fixup((1, 0, 0, 0), [(1, 0, 0, 0)], "symplectic") == (0, 0, 0, 0)
    # the zero vector is fixed by removing one part
    res = transvective_fixup((0, 0), [(1, 0), (2, 0)], "linear")
    assert res == (0, 0, 1, 0)
    with pytest.raises(NoWitness):
        transvective_fixup((0, 0), [], "linear")
    with pytest.raises(NoWitness):
        transvective_fixup((1, 0), [(0, 0)], "linear")


def test_transvective_fixup_unitary():
    # f with a nonzero trace pairing so e1 + e2 is nonsingular
    om = F4.primitive_element()
    gram = Mat(F4, ((0, om, 0), (F4.involution(om), 0, 0), (0, 0, 1)))
    fu = SesquiForm(F4, gram, "theta")
    v = (1, 1, 0)
    assert fu.evaluate(v, v) != 0
    parts = [e(3, 0), e(3, 1)]
    i, j, lam, mu = transvective_fixup(v, parts, "unitary", fu)
    assert mu == 0 and lam != 0
    fixed = vec_add(F4, v, vec_scale(F4, F4.neg(lam), parts[i]))
    assert is_transvective(fixed, "unitary", fu)

    # GF(9): odd-characteristic unitary geometry
    eps = next(x for x in F9.nonzero() if F9.involution(x) == F9.neg(x))
    g9 = Mat(F9, ((0, eps, 0), (eps, 0, 0), (0, 0, eps)))
    fu9 = SesquiForm(F9, g9, "theta")
    v9 = (1, 1, 0)
    if fu9.evaluate(v9, v9) != 0:
        i, j, lam, mu = transvective_fixup(v9, [e(3, 0), e(3, 1)], "unitary", fu9)
        fixed = vec_add(F9, v9, vec_scale(F9, F9.neg(lam), e(3, i)))
        assert is_transvective(fixed, "unitary", fu9)


def test_transvective_fixup_orthogonal_two_index():
    # search a configuration where every single-index correction fails:
    # Q(v) = 0 with f(v, p_i) = 1 for all parts, forcing the two-index case
    # (three parts cannot do this in characteristic 2: the three odd-row-sum
    # conditions on the pairing matrix sum to a contradiction)
    T, f = orthogonal_transvections(Q_MINUS4)
    vecs = [t.v for t in T]
    found = None
    for quad in combinations(vecs, 4):
        v = (0, 0, 0, 0)
        for p in quad:
            v = vec_add(F2, v, p)
        if is_zero_vec(v) or Q_MINUS4.evaluate(v) != 0:
            continue
        if all(f.evaluate(v, p) == 1 for p in quad):
            found = (v, list(quad))
            break
    assert found is not None
    v, parts = found
    i, j, lam, mu = transvective_fixup(v, parts, "orthogonal", Q_MINUS4)
    assert (lam, mu) == (1, 1) and i != j
    fixed = vec_add(F2, v, vec_add(F2, parts[i], parts[j]))
    assert Q_MINUS4.evaluate(fixed) == 1


def test_transvective_split_singleton():
    # q > 2: v plus three parallel singletons
    basis3 = [e(4, i) for i in range(4)]
    v = (0, 2, 0, 0)
    out = transvective_split(v, basis3, "symplectic", None, F=F3)
    assert len(out) == 4
    total = (0, 0, 0, 0)
    for x in out:
        assert is_transvective(x, "symplectic")
        assert sum(1 for c in x if c != 0) <= 2
        total = vec_add(F3, total, x)
    assert total == v

    # q = 2 orthogonal: singleton support splits via a partner vector
    basis_m = [(1, 0, 1, 0), (0, 1, 1, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    for b in basis_m:
        assert is_transvective(b, "orthogonal", Q_MINUS4)
    v = (0, 0, 1, 0)
    out = transvective_split(v, basis_m, "orthogonal", Q_MINUS4)
    B = Mat(F2, tuple(basis_m)).transpose()
    total = (0, 0, 0, 0)
    for x in out:
        assert is_transvective(x, "orthogonal", Q_MINUS4)
        assert sum(1 for c in B.solve(x) if c != 0) <= 2
        total = vec_add(F2, total, x)
    assert total == v


def test_transvective_split_symplectic_halving():
    v = (1, 2, 3, 4)
    basis = [e(4, i) for i in range(4)]
    out = transvective_split(v, basis, "symplectic", None, F=F5)
    total = (0, 0, 0, 0)
    for x in out:
        assert is_transvective(x, "symplectic")
        assert sum(1 for c in x if c != 0) <= 3  # ceil(k/2) + 1
        total = vec_add(F5, total, x)
    assert total == v


def test_transvective_split_orthogonal_full_support():
    # orthogonal GF(2)^6 with s(v) = 6: four parts with supports <= 5
    rng = random.Random(4)
    T, f = orthogonal_transvections(Q_PLUS6)
    vecs = [t.v for t in T]
    while True:
        cand = rng.sample(vecs, 6)
        M = Mat(F2, tuple(cand))
        if M.rank() < 6:
            continue
        v = (0, 0, 0, 0, 0, 0)
        for b in cand:
            v = vec_add(F2, v, b)
        if Q_PLUS6.evaluate(v) != 0:
            basis = cand
            break
    out = transvective_split(v, basis, "orthogonal", Q_PLUS6)
    B = Mat(F2, tuple(basis)).transpose()
    total = (0, 0, 0, 0, 0, 0)
    for x in out:
        assert is_transvective(x, "orthogonal", Q_PLUS6)
        assert sum(1 for c in B.solve(x) if c != 0) <= 5
        total = vec_add(F2, total, x)
    assert total == v


def test_transvective_split_fuzz():
    rng = random.Random(11)
    basis5 = [e(4, i) for i in range(4)]
    for _ in range(40):
        v = tuple(rng.randrange(5) for _ in range(4))
        if is_zero_vec(v):
            continue
        k = sum(1 for c in v if c != 0)
        out = transvective_split(v, basis5, "symplectic", None, F=F5)
        total = (0, 0, 0, 0)
        for x in out:
            assert is_transvective(x, "symplectic")
            assert 2 * sum(1 for c in x if c != 0) <= k + 4
            total = vec_add(F5, total, x)
        assert total == v
