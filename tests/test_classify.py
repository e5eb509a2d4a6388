"""Tests for group enumeration, order formulas, the monomial and symmetric
constructors and detectors, classification, and certificates."""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import itertools
import json
import math
import random

import pytest

from transvect.cayley import _RowTable, _rows
from transvect.classify import (
    CERT_MAX_SIZE,
    Certificate,
    ClassificationReport,
    GroupTypeTag,
    LINEAR,
    ORTHOGONAL_MINUS,
    ORTHOGONAL_PLUS,
    SYMMETRIC_EVEN,
    SYMMETRIC_ODD,
    SYMPLECTIC,
    UNDETERMINED,
    UNITARY,
    build_monomial_group,
    build_symmetric_rep,
    certify,
    classify,
    detect_monomial_structure,
    detect_symmetric_type,
    exceptional_tag,
    group_order,
    monomial_tag,
    order_formula,
    quadratic_type,
    sample_supersets,
    stability_check,
)
from transvect.cli import main as cli_main, serialize_generators
from transvect.errors import (
    BadParameters,
    CapExceeded,
    DimensionMismatch,
    FieldMismatch,
    InternalError,
    NotIrreducible,
    Singular,
    UnsupportedTag,
    WrongField,
)
from transvect.forms import QuadraticForm, SesquiForm, detect_invariant_form
from transvect.gf import field_create
from transvect.linalg import Mat, dot
from transvect.tgraph import (
    TransvectionGraph,
    build_graph,
    connect_up,
    cycle_weight,
    defining_field,
    densify,
    is_irreducible,
    is_strongly_connected,
    restrict_to_section,
)
from transvect.transvections import Transvection, standard_full_field_set, tv_from_matrix

from oracles import (
    enumerate_group,
    monomial_lines,
    monomial_parameter,
    projective_points,
    row_matrices,
    section_oracle,
    spanning_vector_orbits,
    subfield_iso,
    transvection_class,
    tuple_point_orbits,
)

# the module, which the package's `classify` function shadows as an attribute
classify_mod = importlib.import_module("transvect.classify")
tgraph_mod = importlib.import_module("transvect.tgraph")

F2 = field_create(2, 1)
F3 = field_create(3, 1)
F4 = field_create(2, 2)
F5 = field_create(5, 1)
F7 = field_create(7, 1)
F8 = field_create(2, 3)
F9 = field_create(3, 2)
F16 = field_create(2, 4)
F25 = field_create(5, 2)
F27 = field_create(3, 3)
F49 = field_create(7, 2)


def e(n, i, c=1):
    v = [0] * n
    v[i] = c
    return tuple(v)


def sl_generators(F):
    """Upper root-group basis plus one lower transvection: generates SL2(F)."""
    out = []
    lam = 1
    g = F.primitive_element()
    for _ in range(F.f):
        out.append(Transvection(F, (1, 0), (0, lam)))
        lam = F.mul(lam, g)
    out.append(Transvection(F, (0, 1), (1, 0)))
    return out


def sl3_triangle(F):
    return [
        Transvection(F, (1, 0, 0), (0, 1, 0)),
        Transvection(F, (0, 1, 0), (0, 0, 1)),
        Transvection(F, (0, 0, 1), (1, 0, 0)),
    ]


def symplectic_transvections(T):
    """All transvections preserving the invariant alternating form of <T>."""
    G = build_graph(T)
    f = detect_invariant_form(G, "identity")
    assert isinstance(f, SesquiForm)
    F, n = G.F, G.n
    out = []
    for code in range(1, F.q**n):
        v = tuple((code // F.q**i) % F.q for i in range(n))
        if next(x for x in v if x) != 1:
            continue
        out.append(Transvection(F, v, f.dual_covector(v)))
    return out


def sp4_full():
    return symplectic_transvections(build_symmetric_rep(6))


def sp6_generators():
    R7 = build_symmetric_rep(7)
    f = detect_invariant_form(build_graph(R7), "identity")
    v = (1, 0, 0, 0, 1, 1)
    return R7 + [Transvection(F2, v, f.dual_covector(v))]


def sl24_full():
    """All 15 transvections of SL2(4)."""
    out = []
    for vc in range(1, 16):
        v = tuple((vc // 4**i) % 4 for i in range(2))
        if next(x for x in v if x) != 1:
            continue
        for pc in range(1, 16):
            phi = tuple((pc // 4**i) % 4 for i in range(2))
            if F4.add(F4.mul(phi[0], v[0]), F4.mul(phi[1], v[1])) == 0:
                out.append(Transvection(F4, v, phi))
    return out


Q_PLUS4 = Mat(F2, ((0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0)))
Q_MINUS4 = Mat(F2, ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0)))
Q_PLUS6 = Mat(F2, ((0, 1, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0),
                   (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 0, 0)))
Q_MINUS6 = Mat(F2, ((1, 1, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0),
                    (0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1), (0, 0, 0, 0, 0, 0)))


def orthogonal_transvections(coeffs, n):
    """All transvections preserving the quadratic form: t_v with Q(v) = 1."""
    Q = QuadraticForm(F2, coeffs)
    f = Q.polarization()
    out = []
    for code in range(1, 2**n):
        v = tuple((code >> i) & 1 for i in range(n))
        if Q.evaluate(v) == 1:
            out.append(Transvection(F2, v, f.dual_covector(v)))
    return out


def su4_generators():
    """Six unitary transvections generating SU4(2) inside SL4(4)."""
    gram = Mat(F4, ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)))
    h = SesquiForm(F4, gram, twist="theta")
    vs = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
          (1, 0, 1, 0), (1, 0, 2, 0)]
    return [Transvection(F4, v, h.dual_covector(v)) for v in vs]


# A transvection triple generating the order-1080 triple cover of A6 in
# SL3(4), found by seeded search over transvection triples.
A6_TRIPLE = [
    Transvection(F4, (0, 1, 0), (2, 0, 2)),
    Transvection(F4, (1, 1, 0), (0, 0, 2)),
    Transvection(F4, (1, 1, 3), (2, 1, 1)),
]


def perm_rep_matrix(m, perm):
    """The action of a permutation of range(m) on the natural module over
    GF(2), in the basis used by build_symmetric_rep."""
    even = m % 2 == 0
    n = m - (2 if even else 1)

    def coords(h):
        if even:
            return tuple(h[i] ^ h[m - 2] for i in range(n))
        return tuple(h[i] for i in range(n))

    cols = []
    for i in range(n):
        h = [0] * m
        h[i] = 1
        h[m - 1] ^= 1
        img = [0] * m
        for j in range(m):
            img[perm[j]] = h[j]
        cols.append(coords(img))
    return Mat(F2, tuple(tuple(cols[j][i] for j in range(n)) for i in range(n)))


# -- GroupTypeTag -------------------------------------------------------------


def test_tag_str_and_validation():
    assert str(LINEAR) == "Linear"
    assert str(monomial_tag(3)) == "Monomial(3)"
    assert str(exceptional_tag("SL2(5)")) == "Exceptional(SL2(5))"
    with pytest.raises(BadParameters):
        GroupTypeTag("Linear", a=3)
    with pytest.raises(BadParameters):
        GroupTypeTag("Monomial")
    with pytest.raises(BadParameters):
        GroupTypeTag("Monomial", a=4)
    with pytest.raises(BadParameters):
        GroupTypeTag("Exceptional")
    with pytest.raises(BadParameters):
        GroupTypeTag("Banana")


# -- enumerate_group ----------------------------------------------------------


def test_enumerate_sl22():
    T = sl_generators(F2)
    assert enumerate_group([t.matrix() for t in T]).order == 6


def test_enumerate_identity_only():
    assert enumerate_group([Mat.identity(F2, 2)]).order == 1


def test_enumerate_s6_image():
    T = build_symmetric_rep(6)
    assert enumerate_group([t.matrix() for t in T]).order == 720


def test_enumerate_permutation_oracle():
    # permutation matrices of S4 over GF(3): order must be 4! = 24
    mats = []
    for a, b in [(0, 1), (1, 2), (2, 3)]:
        rows = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
        rows[a][a] = rows[b][b] = 0
        rows[a][b] = rows[b][a] = 1
        mats.append(Mat(F3, tuple(tuple(r) for r in rows)))
    assert enumerate_group(mats).order == 24


def test_enumerate_membership_and_closure():
    T = sl_generators(F3)
    en = enumerate_group([t.matrix() for t in T])
    assert en.order == 24
    mats = list(en.matrices())
    assert len(mats) == 24
    rng = random.Random(0)
    for _ in range(20):
        a, b = rng.choice(mats), rng.choice(mats)
        assert a.mul(b) in en
    assert Mat.identity(F3, 2) in en
    # decode/encode round trip
    for M in mats[:5]:
        assert en.decode(en.encode(M)).rows == M.rows
    # deterministic iteration order
    assert [M.rows for M in en.matrices()] == [M.rows for M in en.matrices()]


def test_enumerate_errors():
    with pytest.raises(BadParameters):
        enumerate_group([])
    with pytest.raises(Singular):
        enumerate_group([Mat.zero(F2, 2, 2)])
    with pytest.raises(FieldMismatch):
        enumerate_group([Mat.identity(F2, 2), Mat.identity(F3, 2)])
    with pytest.raises(DimensionMismatch):
        enumerate_group([Mat.identity(F2, 2), Mat.identity(F2, 3)])
    with pytest.raises(CapExceeded):
        enumerate_group([t.matrix() for t in build_symmetric_rep(6)], cap=10)
    with pytest.raises(CapExceeded):
        enumerate_group([Mat.identity(F2, 17)])  # 2^17 column codes


# -- group_order --------------------------------------------------------------


def sl3_generators(F):
    """x_12 over an additive basis of F plus x_23(1) and x_31(1): SL3(F)."""
    g = F.primitive_element()
    out, lam = [], 1
    for _ in range(F.f):
        out.append(Transvection(F, e(3, 0), e(3, 1, lam)))
        lam = F.mul(lam, g)
    return out + [Transvection(F, e(3, 1), e(3, 2)), Transvection(F, e(3, 2), e(3, 0))]


def random_conjugate(T, rng):
    F, n = T[0].F, T[0].n
    while True:
        g = Mat(F, [[rng.randrange(F.q) for _ in range(n)] for _ in range(n)])
        if g.det():
            return [t.conjugate(g) for t in T]


def orders_agree(mats, cap=10**7):
    n_chain = group_order(mats, cap)
    assert n_chain == enumerate_group(mats, cap).order
    return n_chain


def test_group_order_small_cases():
    assert group_order([Mat.identity(F2, 2)]) == 1
    assert group_order([Mat.identity(F2, 17)]) == 1  # no vector budget here
    assert orders_agree([t.matrix() for t in sl_generators(F2)]) == 6
    assert orders_agree([t.matrix() for t in build_symmetric_rep(6)]) == 720
    # repeated and identity generators change nothing
    T = [t.matrix() for t in sl_generators(F3)]
    assert orders_agree(T + T + [Mat.identity(F3, 2)]) == 24


def test_group_order_matches_enumeration_on_fuzz_sets():
    checked = 0
    for F, n, T in fuzz_sets():
        if is_irreducible(build_graph(T)).irreducible:
            orders_agree([t.matrix() for t in T])
            checked += 1
    assert checked >= 10


def test_group_order_matches_enumeration_on_random_sl3_conjugates():
    rng = random.Random(5)
    for F in (F2, F3, F4, F5):
        for _ in range(2 if F.q < 5 else 1):
            T = random_conjugate(sl3_generators(F), rng)
            mats = [t.matrix() for t in T]
            rng.shuffle(mats)
            assert orders_agree(mats) == order_formula(LINEAR, 3, F.q)


def test_group_order_past_the_element_budget():
    # orders enumeration cannot reach, against their formulas: SL4(4) from
    # root elements, and O8+(2) from its 120 transvections t_v, Q(v) = 1 for
    # Q = x0x1 + x2x3 + x4x5 + x6x7 (polar form pairs x0 with x1, and so on)
    T = [Transvection(F4, e(4, 0), e(4, 1, 1)), Transvection(F4, e(4, 0), e(4, 1, 2)),
         Transvection(F4, e(4, 1), e(4, 2)), Transvection(F4, e(4, 2), e(4, 3)),
         Transvection(F4, e(4, 3), e(4, 0))]
    assert group_order([t.matrix() for t in T], 10**12) == \
        order_formula(LINEAR, 4, 4) == 987033600
    mats = []
    for code in range(1, 2**8):
        v = tuple((code >> i) & 1 for i in range(8))
        if sum(v[i] & v[i + 1] for i in range(0, 8, 2)) % 2:
            polar = sum(((v[i + 1], v[i]) for i in range(0, 8, 2)), ())
            mats.append(Transvection(F2, v, polar).matrix())
    assert len(mats) == 120
    assert group_order(mats, 10**12) == order_formula(ORTHOGONAL_PLUS, 8, 2)


def test_group_order_errors_and_cap():
    with pytest.raises(BadParameters):
        group_order([])
    with pytest.raises(Singular):
        group_order([Mat.zero(F2, 2, 2)])
    # a singular generator is rejected at the boundary, before the chain
    # inverts anything on row codes
    with pytest.raises(Singular):
        group_order([Mat.identity(F3, 2), Mat(F3, [[1, 2], [2, 1]])])
    with pytest.raises(FieldMismatch):
        group_order([Mat.identity(F2, 2), Mat.identity(F3, 2)])
    mats = [t.matrix() for t in build_symmetric_rep(6)]
    assert group_order(mats, cap=720) == 720
    for cap in (0, 10, 719):
        with pytest.raises(CapExceeded) as info:
            group_order(mats, cap=cap)
        assert info.value.count == cap


def enumeration_route(monkeypatch):
    """Make classify take its exact order from enumerate_group, as before
    the stabilizer chain, ignoring the classical bound."""
    monkeypatch.setattr(classify_mod, "_group_order",
                        lambda F, n, gens, cap, bound:
                        enumerate_group(row_matrices(F, n, [r for r, _ in gens]),
                                        cap).order)


def bound_agrees(T, monkeypatch):
    """Check that the chain stopped at classify's classical bound gives the
    order of the full chain; returns whether it stopped there (False when T
    is reducible)."""
    calls = []
    chain_order = classify_mod._group_order

    def record(F, n, gens, cap, bound):
        calls.append((F, n, list(gens), cap, bound))
        return chain_order(F, n, gens, cap, bound)

    with monkeypatch.context() as m:
        m.setattr(classify_mod, "_group_order", record)
        try:
            classify(T)
        except NotIrreducible:
            return False
    ((F, n, gens, cap, bound),) = calls
    N = group_order(row_matrices(F, n, [r for r, _ in gens]), cap)
    assert chain_order(F, n, gens, cap, bound) == N <= bound
    return N == bound


def test_classify_budget_boundary_matches_enumeration_route(monkeypatch):
    cases = [(sp4_full(), 720), (sl3_generators(F3), 5616),
             (build_monomial_group(3, 3, F4), 54), (sl_generators(F9), 720)]
    for T, N in cases:
        assert group_order([t.matrix() for t in T]) == N
        for cap in (N - 1, N, N + 1):
            got = classify(T, budget_elements=cap).to_json()
            with monkeypatch.context() as m:
                enumeration_route(m)
                want = classify(T, budget_elements=cap).to_json()
            assert got == want
            assert got["order_enumerated"] == (None if cap < N else N)


def test_group_order_with_the_classical_bound_on_fuzz_sets(monkeypatch):
    stopped = [bound_agrees(T, monkeypatch) for _, _, T in fuzz_sets()]
    assert sum(stopped) >= 10


def test_group_order_with_the_classical_bound_on_random_sl3_conjugates(monkeypatch):
    rng = random.Random(15)
    for F in (F2, F3, F4, F5):
        T = random_conjugate(sl3_generators(F), rng)
        rng.shuffle(T)
        assert bound_agrees(T, monkeypatch)


def test_group_order_past_the_bound_raises_internal_error():
    # SL2(2) has orbit lengths 3 and 2: the product jumps from 3 to 6
    gens = [(_rows(t.matrix()), _rows(t.inverse().matrix())) for t in sl_generators(F2)]
    assert classify_mod._group_order(F2, 2, gens, 10**7, 6) == 6
    with pytest.raises(InternalError, match="order bound 5"):
        classify_mod._group_order(F2, 2, gens, 10**7, 5)
    # the cap is checked first, as without a bound
    with pytest.raises(CapExceeded):
        classify_mod._group_order(F2, 2, gens, 4, 5)


@pytest.mark.parametrize("T,strong,tables,bounded_tables", [
    (sl3_generators(F3), 4, 60, 15),
    (sl_generators(F16), 8, 277, 11),
], ids=["SL3(3)", "SL2(16)"])
def test_group_order_builds_no_matrix_per_orbit_point(monkeypatch, T, strong,
                                                      tables, bounded_tables):
    # the chain builds no Mat: the input transvections come with their
    # inverses 1 - v (x) phi, residues are inverted on their row codes, a
    # transversal entry gets its inverse table when a sift first strips
    # through it, and the bound saves the tables of the skipped sifts
    F = T[0].F
    gens = [(classify_mod._transvection_rows(F, 1, t.v, t.phi),
             classify_mod._transvection_rows(F, F.neg(1), t.v, t.phi)) for t in T]
    assert [r for r, _ in gens] == [_rows(t.matrix()) for t in T]
    N = order_formula(LINEAR, T[0].n, T[0].F.q)
    counts = {}
    chains = []

    def counting(cls):
        class Counted(cls):
            def __init__(self, *args):
                counts[cls.__name__] += 1
                super().__init__(*args)
                if cls.__name__ == "_Chain":
                    chains.append(self)
        return Counted

    monkeypatch.setattr(classify_mod, "Mat", counting(Mat))
    monkeypatch.setattr(classify_mod, "_RowTable", counting(_RowTable))
    monkeypatch.setattr(classify_mod, "_Chain", counting(classify_mod._Chain))
    inverse_codes = classify_mod._inverse_codes

    def counting_inverse_codes(*args):
        counts["_inverse_codes"] += 1
        return inverse_codes(*args)

    monkeypatch.setattr(classify_mod, "_inverse_codes", counting_inverse_codes)
    inputs = {r for r, _ in gens}
    for bound, want_tables in ((math.inf, tables), (N, bounded_tables)):
        counts.update(Mat=0, _RowTable=0, _Chain=0, _inverse_codes=0)
        assert classify_mod._group_order(F, T[0].n, gens, 10**7, bound) == N
        chain = chains.pop()
        n_strong = len({s[0] for level in chain.gens for s in level})
        n_points = sum(map(len, chain.points))
        assert counts["Mat"] == 0
        assert counts["_RowTable"] == want_tables <= n_strong + n_points
        assert n_strong == strong
        # one Gauss-Jordan per residue record, none for the inputs
        residues = set(chain.records) - inputs
        assert inputs <= set(chain.records) and residues
        assert counts["_inverse_codes"] == len(residues)


def inverse_tables(chain):
    """How many transversal entries of the chain have their inverse table."""
    return sum(entry is not None and entry[3] is not None
               for orbit in chain.orbits for entry in orbit.values())


def test_bounded_chain_builds_fewer_inverse_tables_than_points(monkeypatch):
    chains = []

    class Recording(classify_mod._Chain):
        def __init__(self, *args):
            super().__init__(*args)
            chains.append(self)

    monkeypatch.setattr(classify_mod, "_Chain", Recording)
    for T, tag in [(sl3_generators(F3), LINEAR), (sl_generators(F16), LINEAR),
                   (sp6_generators(), SYMPLECTIC), (su4_generators(), UNITARY)]:
        rep = classify(T)
        assert rep.tag == tag and rep.order_enumerated == rep.order_predicted
        chain = chains.pop()
        assert chain.order() == rep.order_predicted
        assert inverse_tables(chain) < sum(map(len, chain.points)) - T[0].n


def test_classify_sl38_budget_stops_early(monkeypatch):
    T = random_conjugate(sl3_generators(F8), random.Random(3))
    chains = []

    class Recording(classify_mod._Chain):
        def __init__(self, *args):
            super().__init__(*args)
            chains.append(self)

    monkeypatch.setattr(classify_mod, "_Chain", Recording)
    rep = classify(T, budget_elements=200000)
    assert rep.tag == LINEAR and rep.field_degree == 3
    assert rep.order_enumerated is None
    assert rep.order_predicted == order_formula(LINEAR, 3, 8) == 16482816
    assert "enumeration exceeded the 200000-element budget" in rep.notes
    # the chain stopped as soon as its lower bound, the product of the orbit
    # lengths, passed the budget: the last point added to an orbit of length
    # k >= 2 raised the product by a factor k / (k - 1) <= 2
    (chain,) = chains
    assert 200000 < chain.order() <= 2 * 200000


def test_group_order_invariant_failure_raises_internal_error(monkeypatch):
    # a transversal inverse that is really the identity cannot return its
    # point to the base: the sift check catches it, also under python -O
    identity_tables = {}

    def broken(self, orbit, entry):
        return identity_tables.setdefault(self.n, _RowTable(self.F, self.base))

    monkeypatch.setattr(classify_mod._Chain, "_transversal_inverse", broken)
    with pytest.raises(InternalError, match="does not return its point"):
        group_order([t.matrix() for t in build_symmetric_rep(6)])


def test_a_singular_strong_generator_raises_internal_error():
    # the boundary rejects singular generators, so one inside the chain is
    # a bug, and its inversion on row codes says so also under python -O
    chain = classify_mod._Chain(F3, 2, 100, 100)
    with pytest.raises(InternalError, match="strong generator is singular"):
        chain.strong((4, 4))  # rows (1, 1) and (1, 1)


def test_classify_invariant_failure_raises_internal_error(monkeypatch):
    real = classify_mod.detect_monomial_structure
    monkeypatch.setattr(classify_mod, "detect_monomial_structure",
                        lambda G: dataclasses.replace(real(G), a=2))
    with pytest.raises(InternalError, match="monomial parameter 2"):
        classify(build_monomial_group(3, 3, F4))


# -- order_formula ------------------------------------------------------------


def test_order_formula_examples():
    assert order_formula(LINEAR, 2, 2) == 6
    assert order_formula(SYMPLECTIC, 4, 2) == 720
    assert order_formula(monomial_tag(3), 2, 4) == 6


def test_order_formula_known_values():
    assert order_formula(LINEAR, 2, 4) == 60
    assert order_formula(LINEAR, 3, 2) == 168
    assert order_formula(LINEAR, 3, 3) == 5616
    assert order_formula(LINEAR, 2, 9) == 720
    assert order_formula(UNITARY, 3, 9) == 6048
    assert order_formula(UNITARY, 4, 4) == 25920
    assert order_formula(UNITARY, 3, 4) == 216
    assert order_formula(SYMPLECTIC, 6, 2) == 1451520
    assert order_formula(ORTHOGONAL_PLUS, 4, 2) == 72
    assert order_formula(ORTHOGONAL_MINUS, 4, 2) == 120
    assert order_formula(ORTHOGONAL_PLUS, 6, 2) == 40320
    assert order_formula(ORTHOGONAL_MINUS, 6, 2) == 51840
    assert order_formula(ORTHOGONAL_MINUS, 2, 4) == 10
    assert order_formula(ORTHOGONAL_PLUS, 2, 8) == 14
    assert order_formula(SYMMETRIC_ODD, 4, 2) == 120
    assert order_formula(SYMMETRIC_EVEN, 4, 2) == 720
    assert order_formula(SYMMETRIC_ODD, 6, 2) == 5040
    assert order_formula(SYMMETRIC_EVEN, 6, 2) == 40320
    assert order_formula(monomial_tag(5), 4, 16) == 3000
    assert order_formula(monomial_tag(7), 3, 8) == 294


def test_order_formula_errors():
    with pytest.raises(UnsupportedTag):
        order_formula(UNDETERMINED, 2, 2)
    with pytest.raises(UnsupportedTag):
        order_formula(exceptional_tag("SL2(5)"), 2, 9)
    with pytest.raises(BadParameters):
        order_formula(SYMPLECTIC, 3, 2)
    with pytest.raises(BadParameters):
        order_formula(UNITARY, 3, 8)
    with pytest.raises(BadParameters):
        order_formula(ORTHOGONAL_PLUS, 4, 3)
    with pytest.raises(BadParameters):
        order_formula(ORTHOGONAL_PLUS, 3, 2)
    with pytest.raises(BadParameters):
        order_formula(monomial_tag(3), 2, 8)
    with pytest.raises(BadParameters):
        order_formula(SYMMETRIC_ODD, 4, 4)
    with pytest.raises(BadParameters):
        order_formula(SYMMETRIC_ODD, 3, 2)


# -- order cross-check grid ---------------------------------------------------


def test_order_crosscheck_linear_and_symplectic():
    for F, q in [(F2, 2), (F3, 3), (F4, 4), (F5, 5)]:
        T = sl_generators(F)
        assert enumerate_group([t.matrix() for t in T]).order == \
            order_formula(LINEAR, 2, q)
    for F, q in [(F2, 2), (F3, 3)]:
        T = sl3_triangle(F)
        assert enumerate_group([t.matrix() for t in T]).order == \
            order_formula(LINEAR, 3, q)
    T = sp4_full()
    assert enumerate_group([t.matrix() for t in T]).order == \
        order_formula(SYMPLECTIC, 4, 2)


def test_artin_schreier_root_matches_a_search_over_the_field():
    # mu^2 + mu = z has the roots mu and mu + 1 or none; the one returned
    # has bit 0 clear
    for f in range(1, 11):
        F = field_create(2, f)
        roots = {F.add(F.mul(mu, mu), mu): mu for mu in range(0, F.q, 2)}
        assert len(roots) == F.q // 2
        for z in range(F.q):
            assert classify_mod._artin_schreier_root(F, z) == roots.get(z), (f, z)


def test_order_crosscheck_monomial():
    for n, a, F in [(2, 3, F4), (3, 3, F4), (4, 3, F4), (3, 5, F16),
                    (2, 7, F8), (3, 7, F8)]:
        T = build_monomial_group(n, a, F)
        assert enumerate_group([t.matrix() for t in T]).order == \
            order_formula(monomial_tag(a), n, F.q)


def test_order_crosscheck_symmetric_reps():
    # odd m gives (n+1)!, even m gives (n+2)!; both equal m!
    for m in range(5, 9):
        T = build_symmetric_rep(m)
        assert enumerate_group([t.matrix() for t in T]).order == math.factorial(m)


def test_su32_generates_monomial_not_unitary():
    # (n, q0) = (3, 2): the transvections of SU3(2) generate only the
    # monomial group of order 54, not the full group of order 216
    T = standard_full_field_set("SU3", F4, 3)
    got = enumerate_group([t.matrix() for t in T]).order
    assert got == order_formula(monomial_tag(3), 3, 4) == 54
    assert got != order_formula(UNITARY, 3, 4)


def test_order_crosscheck_unitary():
    T = standard_full_field_set("SU3", F9, 3)
    assert enumerate_group([t.matrix() for t in T]).order == \
        order_formula(UNITARY, 3, 9)
    T = su4_generators()
    assert enumerate_group([t.matrix() for t in T]).order == \
        order_formula(UNITARY, 4, 4)


def test_order_crosscheck_orthogonal():
    for coeffs, n, tag in [(Q_MINUS4, 4, ORTHOGONAL_MINUS),
                           (Q_PLUS6, 6, ORTHOGONAL_PLUS),
                           (Q_MINUS6, 6, ORTHOGONAL_MINUS)]:
        T = orthogonal_transvections(coeffs, n)
        assert enumerate_group([t.matrix() for t in T]).order == \
            order_formula(tag, n, 2)


def test_o4plus_transvections_generate_proper_subgroup():
    # the hyperbolic form in dimension 4 is the exception: its transvections
    # generate an order-36 reducible group, not the full group of order 72
    T = orthogonal_transvections(Q_PLUS4, 4)
    assert len(T) == 6
    assert enumerate_group([t.matrix() for t in T]).order == 36
    assert order_formula(ORTHOGONAL_PLUS, 4, 2) == 72
    with pytest.raises(NotIrreducible):
        classify(T)


# -- constructors -------------------------------------------------------------


def test_build_monomial_group_shape():
    T = build_monomial_group(2, 3, F4)
    assert len(T) == 3
    # the x = 1 generator swaps the axes; blocks are [[0, x^-1], [x, 0]]
    w = F4.primitive_element()
    mats = {t.matrix().rows for t in T}
    assert ((0, 1), (1, 0)) in mats
    assert ((0, F4.inv(w)), (w, 0)) in mats
    T = build_monomial_group(4, 5, F16)
    assert len(T) == 6 * 5


def test_build_monomial_group_errors():
    with pytest.raises(BadParameters):
        build_monomial_group(2, 3, F9)  # p != 2
    with pytest.raises(BadParameters):
        build_monomial_group(2, 2, F4)  # even a
    with pytest.raises(BadParameters):
        build_monomial_group(2, 1, F4)  # a = 1
    with pytest.raises(BadParameters):
        build_monomial_group(2, 3, F8)  # 3 does not divide 7
    with pytest.raises(BadParameters):
        build_monomial_group(1, 3, F4)


def test_build_symmetric_rep_shapes():
    for m, n in [(5, 4), (6, 4), (7, 6), (8, 6), (9, 8)]:
        T = build_symmetric_rep(m)
        assert len(T) == m - 1
        assert all(t.n == n for t in T)
    with pytest.raises(BadParameters):
        build_symmetric_rep(4)


def test_symmetric_rep_is_homomorphism():
    # matrix products must track permutation products: adjacent generators
    # braid (order 3 product), distant ones commute (order 2 product)
    for m in (5, 6, 7):
        T = build_symmetric_rep(m)
        for i in range(m - 1):
            for j in range(m - 1):
                prod = T[i].matrix().mul(T[j].matrix())
                if i == j:
                    expected = 1
                elif abs(i - j) == 1:
                    expected = 3
                else:
                    expected = 2
                k, acc = 1, prod
                while acc != Mat.identity(acc.F, acc.nrows):
                    acc = acc.mul(prod)
                    k += 1
                assert k == expected


def test_perm_rep_matches_generators():
    for m in (5, 6):
        T = build_symmetric_rep(m)
        for k in range(m - 1):
            perm = list(range(m))
            perm[k], perm[k + 1] = perm[k + 1], perm[k]
            assert perm_rep_matrix(m, perm).rows == T[k].matrix().rows


def test_transposition_transvection_correspondence():
    # over the natural module, a permutation acts as a transvection exactly
    # when it is a transposition; checked exhaustively for m in {5, 6, 7}
    for m in (5, 6, 7):
        one = Mat.identity(F2, m - (2 if m % 2 == 0 else 1))
        for perm in itertools.permutations(range(m)):
            M = perm_rep_matrix(m, perm)
            moved = sum(1 for i in range(m) if perm[i] != i)
            is_transposition = moved == 2
            rank1 = M.sub(one).rank() == 1
            assert rank1 == is_transposition


# -- detectors ----------------------------------------------------------------


def test_classify_builds_one_graph_and_none_when_handed_one(monkeypatch):
    # the detectors, densify and the order check run on the graph classify
    # builds, and a graph passed in stands for its vertex list
    builds = []
    real = TransvectionGraph.__init__

    def counted(self, verts):
        builds.append(self)
        real(self, verts)

    monkeypatch.setattr(TransvectionGraph, "__init__", counted)
    for T in (sp4_full(), build_monomial_group(3, 3, F4)):
        builds.clear()
        report = classify(T)
        assert len(builds) == 1
        G = build_graph(T)
        builds.clear()
        assert classify(G).to_json() == report.to_json()
        assert builds == []
        assert build_graph(G) is G
        assert list(G) == G.verts and G[0] is G.verts[0] and len(G) == len(T)


def test_detect_monomial_structure_m23():
    T = build_monomial_group(2, 3, F4)
    st = detect_monomial_structure(T)
    assert st is not None
    assert set(st.lines) == {(1, 0), (0, 1)}


def test_detect_monomial_structure_grid():
    for n, a, F in [(3, 3, F4), (4, 3, F4), (3, 7, F8)]:
        T = build_monomial_group(n, a, F)
        st = detect_monomial_structure(T)
        assert st is not None
        assert set(st.lines) == {e(n, i) for i in range(n)}


def test_detect_monomial_structure_none_on_sl24():
    assert detect_monomial_structure(sl24_full()) is None


def test_detect_monomial_structure_errors():
    with pytest.raises(NotIrreducible):
        detect_monomial_structure([Transvection(F4, (1, 0), (0, 1))])


def odd_orbit_cases():
    """Sets over GF(3), GF(5), GF(7), GF(9) and GF(25), with orbits of one
    point, of n points and of every point."""
    rng = random.Random(8)
    cases = [sl3_triangle(F3), sl3_triangle(F3)[:1], sl3_triangle(F3)[:2],
             sl_generators(F9), sl_generators(F9)[:1], sl_generators(F25),
             sl3_generators(F7)[:2]]
    for F in (F5, F9):
        cases += [random_conjugate(sl3_generators(F), rng) for _ in range(2)]
        cases.append(random_conjugate(sl3_generators(F)[:1], rng))
    return cases


def test_point_orbits_corrupted_point_index_raises_internal_error():
    for F, T in [(F16, build_monomial_group(4, 5, F16)), (F3, sl3_triangle(F3))]:
        pts = projective_points(F, T[0].n)
        corrupted = pts[:-1] + ((0,) * (T[0].n - 1) + (2,),)
        with pytest.raises(InternalError, match="outside the projective point index"):
            tuple_point_orbits(T, corrupted, F)


def capped_orbits_agree(T):
    """The orbits that the capped point scan of the oracle `monomial_lines`
    returns for the limits n and n + 1 are the uncapped orbits of at most
    that many points."""
    F, n = T[0].F, T[0].n
    pts = projective_points(F, n)
    full = tuple_point_orbits(T, pts, F)
    for limit in (n, n + 1):
        assert tuple_point_orbits(T, pts, F, limit) == [o for o in full
                                                        if len(o) <= limit]


def test_point_orbits_capped_scan_keeps_exactly_the_small_orbits():
    cases = [build_monomial_group(3, 3, F4), build_monomial_group(4, 5, F16),
             build_monomial_group(4, 7, F8), su4_generators(), sp4_full()]
    cases += [build_symmetric_rep(m) for m in range(5, 10)]
    for T in cases:
        capped_orbits_agree(T)


def test_point_orbits_capped_scan_on_fuzz_sets_and_random_conjugates():
    for F, n, T in fuzz_sets():
        capped_orbits_agree(T)
    rng = random.Random(4)
    T = sl3_generators(F4)
    for _ in range(5):
        capped_orbits_agree(random_conjugate(T, rng))
    capped_orbits_agree(T[:1])
    for T in odd_orbit_cases():
        capped_orbits_agree(T)


def test_point_orbits_capped_scan_checks_images_in_a_small_orbit():
    # the coordinate lines of M3(3)/GF(4) are an orbit of 3 = n points, so
    # the capped scan completes it and meets the corrupted line
    T = build_monomial_group(3, 3, F4)
    pts = projective_points(F4, 3)
    i = pts.index((1, 0, 0))
    corrupted = pts[:i] + ((2, 0, 0),) + pts[i + 1:]
    with pytest.raises(InternalError, match="outside the projective point index"):
        tuple_point_orbits(T, corrupted, F4, 3)


def test_detect_symmetric_type_rep5():
    T = build_symmetric_rep(5)
    B = detect_symmetric_type(T)
    assert B is not None and len(B) == 5
    assert Mat(F2, B).rank() == 4
    for t in T:  # invariance
        assert {t.apply(b) for b in B} == set(B)


def test_detect_symmetric_type_none_on_sp4():
    assert detect_symmetric_type(sp4_full()) is None


def symmetric_type_oracle(T):
    """The first spanning orbit of size n+1 in code order, or None."""
    return next(spanning_vector_orbits(T), None)


def test_spanning_orbit_matches_vector_orbit_oracle():
    # the spanning set read off the class, against the first spanning
    # vector orbit of size n + 1, on irreducible sets, the only ones its
    # callers pass; over GF(4) B is only defined up to a scalar, so there
    # the answers are compared as yes/no
    cases = [build_symmetric_rep(m) for m in range(5, 10)]
    cases += [build_monomial_group(3, 3, F4), build_monomial_group(2, 3, F4),
              su4_generators(), sp4_full(), sl3_generators(F4), A6_TRIPLE]
    cases += [T for F, n, T in fuzz_sets()
              if F.p == 2 and is_irreducible(build_graph(T)).irreducible]
    rng = random.Random(6)
    cases += [random_conjugate(sl3_generators(F4), rng) for _ in range(3)]
    found = {False: 0, True: 0}
    for T in cases:
        want = next(spanning_vector_orbits(T), None)
        got = classify_mod._spanning_set(build_graph(T))
        assert (got is None) == (want is None)
        if T[0].F.q == 2:
            assert got == want
        found[want is not None] += 1
    assert min(found.values()) > 0


def test_detect_symmetric_type_uniqueness():
    # scan all vector orbits independently: exactly one spanning orbit of
    # size n+1 exists for the odd symmetric representations
    for m in (5, 7, 9):
        T = build_symmetric_rep(m)
        found = list(spanning_vector_orbits(T))
        assert len(found) == 1
        assert detect_symmetric_type(T) == found[0]


def test_detect_symmetric_type_matches_vector_orbit_oracle(monkeypatch):
    cases = [build_symmetric_rep(m) for m in range(5, 10)] + [sp4_full()]
    irreducible = 0
    for F, n, T in fuzz_sets():
        if F.q == 2 and is_irreducible(build_graph(T)).irreducible:
            cases.append(T)
            irreducible += 1
    assert irreducible > 0
    # the sections certify's symmetric exclusion tries on dense sets
    sections = []
    real = classify_mod.detect_symmetric_type

    def recording(gens):
        sections.append(list(gens))
        return real(gens)

    monkeypatch.setattr(classify_mod, "detect_symmetric_type", recording)
    for T in (sp4_full(), build_symmetric_rep(8)):
        T_dense, _ = densify(T)
        classify_mod._find_symmetric_exclusion(T_dense)
    monkeypatch.undo()
    assert len(sections) >= 4
    cases += sections
    answers = set()
    for T in cases:
        B = detect_symmetric_type(T)
        assert B == symmetric_type_oracle(T)
        answers.add(B is None)
    assert answers == {True, False}


def test_detect_symmetric_type_errors():
    with pytest.raises(WrongField):
        detect_symmetric_type(sl24_full())
    with pytest.raises(NotIrreducible):
        detect_symmetric_type([Transvection(F2, (1, 0), (0, 1))])


def grid_sets():
    """The 25 generator sets of the classification grid (criterion 4 of
    the acceptance tests)."""
    sets = [sl_generators(F) for F in (F2, F3, F4, F5, F7, F8, F9)]
    sets += [sl3_triangle(F2), sl3_triangle(F3), sp4_full(), sp6_generators()]
    sets += [build_monomial_group(n, a, F) for a, F in ((3, F4), (5, F16), (7, F8))
             for n in (2, 3, 4)]
    return sets + [build_symmetric_rep(m) for m in range(5, 10)]


def detector_sections(monkeypatch):
    """Every set that certify's two exclusion searches and `stability_check`
    hand the detectors, recorded by monkeypatch."""
    sections = []
    for name in ("detect_symmetric_type", "detect_monomial_structure",
                 "_spanning_set"):
        def recording(gens, real=getattr(classify_mod, name)):
            sections.append(list(gens))
            return real(gens)

        monkeypatch.setattr(classify_mod, name, recording)
    for T in (sp4_full(), build_symmetric_rep(8)):
        classify_mod._find_symmetric_exclusion(densify(T)[0])
    for T in (sl3_triangle(F2), sl3_generators(F4), su4_generators()):
        classify_mod._find_monomial_exclusion(densify(T)[0])
    for T in (sl3_triangle(F2), sp4_full()):
        stability_check(T, certify(T).T0, samples=5, seed=2)
    monkeypatch.undo()
    return sections


def detectors_match_oracles(T):
    """Both detectors against the scan oracles of `oracles` on an
    irreducible set: the line set by the point scan and its parameter by
    the change of basis to the lines, and, in characteristic 2 where
    q^n <= 2^12, the spanning set by the vector
    scan, compared as yes/no over fields larger than GF(2).  Returns which
    of the two structures exist."""
    F, n = T[0].F, T[0].n
    st = detect_monomial_structure(T)
    assert (None if st is None else st.lines) == monomial_lines(T)
    if st is not None:
        assert st.a == monomial_parameter(T, st.lines)
    found = None
    if F.p == 2 and F.q**n <= 2**12:
        want = next(spanning_vector_orbits(T), None)
        found = want is not None
        assert (classify_mod._spanning_set(build_graph(T)) is not None) == found
        if F.q == 2:
            assert detect_symmetric_type(T) == want
    return st is not None, found


def test_detectors_match_the_scan_oracles(monkeypatch):
    rng = random.Random(4)
    cases = grid_sets() + [T for _, _, T in fuzz_sets()]
    cases += [random_conjugate(sl3_generators(F4), rng) for _ in range(5)]
    cases += [build_symmetric_rep(m) for m in range(5, 14)]
    cases += [build_monomial_group(n, a, F)
              for n, a, F in ((5, 3, F4), (5, 7, F8), (2, 15, F16), (3, 15, F16))]
    cases += [random_conjugate(build_monomial_group(n, a, F), rng)
              for n, a, F in ((3, 3, F4), (3, 5, F16), (4, 7, F8), (3, 15, F16))]
    cases += detector_sections(monkeypatch)
    answers = set()
    for T in cases:
        if is_irreducible(build_graph(T)).irreducible:
            answers.add(detectors_match_oracles(T))
    assert {(True, None), (False, True), (False, False)} <= answers
    # in odd characteristic no irreducible set keeps a line set
    odd = [T for T in odd_orbit_cases() if is_irreducible(build_graph(T)).irreducible]
    assert len(odd) >= 5
    for T in odd:
        assert detectors_match_oracles(T) == (False, None)


def test_class_orbit_is_the_conjugacy_class():
    # the packed orbit against conjugation by `Transvection.conjugate_by`;
    # the class sizes are C(m, 2) for rep(m) and C(n, 2) a for M_n(a)
    rng = random.Random(5)
    cases = grid_sets() + [random_conjugate(build_monomial_group(3, 5, F16), rng)]
    cases += [T for _, _, T in fuzz_sets()]
    for T in cases:
        C = classify_mod._class_orbit(build_graph(T), 10**4)
        if C is None:  # two class elements share a v
            vs = [t.v for t in transvection_class(T)]
            assert len(set(vs)) < len(vs)
            continue
        assert C[0] == (T[0].v, T[0].phi)
        assert {Transvection(T[0].F, v, phi) for v, phi in C} == transvection_class(T)
    for m in range(5, 10):
        R = build_symmetric_rep(m)
        assert len(classify_mod._class_orbit(build_graph(R), 10**4)) == math.comb(m, 2)
    for n, a, F in ((3, 3, F4), (4, 3, F4), (3, 5, F16), (4, 5, F16), (4, 7, F8)):
        C = classify_mod._class_orbit(build_graph(build_monomial_group(n, a, F)), 10**4)
        assert len(C) == math.comb(n, 2) * a
    # the cap: rep(9) has 36 transpositions
    assert classify_mod._class_orbit(build_graph(build_symmetric_rep(9)), 35) is None


def test_detectors_stop_early_on_a_large_field(monkeypatch):
    # SL3(2^16) shares a v between two class elements within a few
    # conjugations, and the tables of d^-1 I and d I are built only for the
    # digits met: a handful of row tables, not one pair per digit
    F = field_create(2, 16)
    T = sl3_generators(F)
    built = []

    class Counted(_RowTable):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(classify_mod, "_RowTable", Counted)
    assert detect_monomial_structure(T) is None
    assert len(built) <= 2 * len(T) + 20


def test_classify_rep22_report_is_unchanged():
    # the report that the 2^20-vector scan used to reach in seconds, pinned
    # by the SHA-256 of its sorted JSON
    rep = classify(build_symmetric_rep(22))
    blob = json.dumps(rep.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "82f05694b46278b11a0acf8c4afa6cf0c9082f561bb01bcb812564a272d80818")


def test_quadratic_type():
    assert quadratic_type(QuadraticForm(F2, Q_PLUS4)) == "plus"
    assert quadratic_type(QuadraticForm(F2, Q_MINUS4)) == "minus"
    assert quadratic_type(QuadraticForm(F2, Q_PLUS6)) == "plus"
    assert quadratic_type(QuadraticForm(F2, Q_MINUS6)) == "minus"
    # hyperbolic over GF(4)
    Q = QuadraticForm(F4, Mat(F4, ((0, 1), (0, 0))))
    assert quadratic_type(Q) == "plus"


def singular_count_type(Q):
    """Oracle: the type read off a count of singular nonzero vectors over
    all q^n vectors."""
    q, m = Q.F.q, Q.n // 2
    count = sum(Q.evaluate(v) == 0
                for v in itertools.product(range(q), repeat=Q.n) if any(v))
    if count == (q ** (m - 1) + 1) * (q**m - 1):
        return "plus"
    assert count == (q ** (m - 1) - 1) * (q**m + 1)
    return "minus"


def random_quadratic_forms(F, n, count, rng):
    """`count` seeded random quadratic forms on F^n with nondegenerate
    polarization (upper-triangular coefficients, redrawn until
    `QuadraticForm` accepts them)."""
    out = []
    while len(out) < count:
        rows = tuple(tuple(rng.randrange(F.q) if j >= i else 0 for j in range(n))
                     for i in range(n))
        try:
            out.append(QuadraticForm(F, Mat(F, rows)))
        except Singular:
            continue
    return out


def test_quadratic_type_matches_full_vector_count():
    forms = [QuadraticForm(F2, M) for M in (Q_PLUS4, Q_MINUS4, Q_PLUS6, Q_MINUS6)]
    # x^2 + xy + a y^2 over GF(4) is hyperbolic for a = 1 and elliptic for
    # a = 2, where t^2 + t + a has no root
    forms += [QuadraticForm(F4, Mat(F4, ((1, 1), (0, a)))) for a in (1, 2)]
    types = [quadratic_type(Q) for Q in forms]
    assert types == [singular_count_type(Q) for Q in forms]
    assert types == ["plus", "minus", "plus", "minus", "plus", "minus"]
    # seeded random forms, fewer where q^n is large
    rng = random.Random(5)
    seen = set()
    for F, ns in ((F2, (2, 4, 6, 8)), (F4, (2, 4, 6, 8)), (F8, (2, 4, 6))):
        for n in ns:
            count = 12 if F.q**n <= 4096 else 1
            for Q in random_quadratic_forms(F, n, count, rng):
                got = quadratic_type(Q)
                assert got == singular_count_type(Q)
                seen.add((F.q, got))
    assert seen == {(q, t) for q in (2, 4, 8) for t in ("plus", "minus")}


def standard_quadratic_form(F, n, kind):
    """The sum of n/2 hyperbolic planes x y, with the first plane made
    x^2 + xy + a y^2 for a of absolute trace 1 when `kind` is "minus"."""
    rows = [[0] * n for _ in range(n)]
    for i in range(0, n, 2):
        rows[i][i + 1] = 1
    if kind == "minus":
        rows[0][0] = 1
        rows[1][1] = next(a for a in F.elements()
                          if singular_count_type(QuadraticForm(
                              F, Mat(F, ((1, 1), (0, a))))) == "minus")
    return QuadraticForm(F, Mat(F, tuple(map(tuple, rows))))


def pulled_back(Q, A):
    """The form x -> Q(A x), by its upper-triangular coefficients: Q at the
    columns of A on the diagonal, the polarization on pairs of columns
    above it."""
    F, n = Q.F, Q.n
    cols = A.transpose().rows
    f = Q.polarization()
    rows = tuple(tuple(Q.evaluate(cols[i]) if i == j
                       else f.evaluate(cols[i], cols[j]) if j > i else 0
                       for j in range(n)) for i in range(n))
    return QuadraticForm(F, Mat(F, rows))


def random_invertible(F, n, rng):
    while True:
        A = Mat(F, [[rng.randrange(F.q) for _ in range(n)] for _ in range(n)])
        if A.rank() == n:
            return A


@pytest.mark.parametrize("F,n", [(F4, 12), (F2, 22)], ids=["GF4^12", "GF2^22"])
def test_quadratic_type_decides_forms_past_any_vector_scan(F, n):
    # GF(4)^12 and GF(2)^22 have 2^24 and 2^22 vectors, more than the
    # projective budget; a change of basis keeps the type
    rng = random.Random(n)
    for kind in ("plus", "minus"):
        Q = pulled_back(standard_quadratic_form(F, n, kind),
                        random_invertible(F, n, rng))
        assert quadratic_type(Q) == kind


# -- classify -----------------------------------------------------------------


def test_classify_sp4_full():
    rep = classify(sp4_full())
    assert rep.tag == SYMPLECTIC
    assert rep.field_degree == 1
    assert rep.order_enumerated == 720
    assert "symplectic_gram" in rep.witnesses
    assert "quadratic_obstruction" in rep.witnesses


def test_classify_rep7_symmetric_odd():
    rep = classify(build_symmetric_rep(7))
    assert rep.tag == SYMMETRIC_ODD
    assert rep.order_enumerated == 5040
    assert "spanning_set" in rep.witnesses


def test_classify_sl24_extended():
    rep = classify(sl_generators(F4))
    assert rep.tag == LINEAR
    assert rep.field_degree == 2
    assert rep.order_enumerated == 60


def test_classify_linear_grid():
    for F in (F2, F3, F5, F7, F8, F9):
        rep = classify(sl_generators(F))
        assert rep.tag == LINEAR
        assert rep.field_degree == F.f
        assert rep.order_enumerated == order_formula(LINEAR, 2, F.q)
    for F in (F2, F3):
        rep = classify(sl3_triangle(F))
        assert rep.tag == LINEAR
        assert rep.order_enumerated == order_formula(LINEAR, 3, F.q)


def test_classify_monomial_grid():
    for n, a, F in [(3, 3, F4), (4, 3, F4), (3, 5, F16), (3, 7, F8), (4, 7, F8)]:
        rep = classify(build_monomial_group(n, a, F))
        assert rep.tag == monomial_tag(a)
        assert rep.field_degree == F.f
        assert rep.order_enumerated == order_formula(monomial_tag(a), n, F.q)
        assert "monomial_lines" in rep.witnesses


def test_classify_monomial_n2_coincidences():
    # in dimension 2 the monomial groups are dihedral and coincide with
    # subfield or orthogonal groups; the classifier reports those names
    rep = classify(build_monomial_group(2, 3, F4))
    assert rep.tag == LINEAR and rep.field_degree == 1
    assert rep.order_enumerated == 6
    assert any("subfield" in n for n in rep.notes)
    rep = classify(build_monomial_group(2, 5, F16))
    assert rep.tag == ORTHOGONAL_MINUS and rep.field_degree == 2
    assert rep.order_enumerated == 10
    rep = classify(build_monomial_group(2, 7, F8))
    assert rep.tag == ORTHOGONAL_PLUS and rep.field_degree == 3
    assert rep.order_enumerated == 14


def test_classify_symmetric_reps():
    rep = classify(build_symmetric_rep(5))
    assert rep.tag == SYMMETRIC_ODD and rep.order_enumerated == 120
    # even symmetric groups coincide with classical groups at desk scale:
    # S6 = Sp4(2) and S8 = O6+(2), so the classical tag wins
    rep = classify(build_symmetric_rep(6))
    assert rep.tag == SYMPLECTIC and rep.order_enumerated == 720
    rep = classify(build_symmetric_rep(8))
    assert rep.tag == ORTHOGONAL_PLUS and rep.order_enumerated == 40320
    rep = classify(build_symmetric_rep(9))
    assert rep.tag == SYMMETRIC_ODD and rep.order_enumerated == 362880


def test_classify_orthogonal_full_sets():
    rep = classify(orthogonal_transvections(Q_PLUS6, 6))
    assert rep.tag == ORTHOGONAL_PLUS and rep.order_enumerated == 40320
    assert "quadratic_form" in rep.witnesses
    rep = classify(orthogonal_transvections(Q_MINUS6, 6))
    assert rep.tag == ORTHOGONAL_MINUS and rep.order_enumerated == 51840
    # O4-(2) coincides with the odd symmetric group S5, which is the more
    # special structure in the containment order
    rep = classify(orthogonal_transvections(Q_MINUS4, 4))
    assert rep.tag == SYMMETRIC_ODD and rep.order_enumerated == 120


def test_classify_unitary():
    rep = classify(standard_full_field_set("SU3", F9, 3))
    assert rep.tag == UNITARY
    assert rep.field_degree == 2
    assert rep.order_enumerated == 6048
    assert "unitary_gram" in rep.witnesses
    rep = classify(su4_generators())
    assert rep.tag == UNITARY and rep.order_enumerated == 25920


def test_classify_su32_prefers_monomial():
    rep = classify(standard_full_field_set("SU3", F4, 3))
    assert rep.tag == monomial_tag(3)
    assert any("hermitian form is also invariant" in n for n in rep.notes)


def test_classify_symplectic_structural_without_enumeration():
    # small element budget: the order cross-check is skipped but the
    # structural tag still lands
    rep = classify(sp6_generators(), budget_elements=10**4)
    assert rep.tag == SYMPLECTIC
    assert rep.order_enumerated is None
    assert rep.order_predicted == 1451520
    assert any("budget" in n for n in rep.notes)


def test_classify_exceptional_sl25():
    t = Transvection(F9, (1, 0), (0, 3))
    s = Transvection(F9, (0, 1), (1, 0))
    rep = classify([t, s])
    assert rep.tag == exceptional_tag("SL2(5)")
    assert rep.field_degree == 2
    assert rep.order_enumerated == 120


def test_classify_exceptional_3a6():
    rep = classify(A6_TRIPLE)
    assert rep.tag == exceptional_tag("3.A6")
    assert rep.order_enumerated == 1080


def orthogonal_sample(Q, k, seed):
    """k seeded transvections 1 + v (x) Q(v)^-1 f(., v) preserving Q, for
    nonsingular v that span the space."""
    F, f = Q.F, Q.polarization()
    rng = random.Random(seed)
    while True:
        vs = []
        while len(vs) < k:
            v = tuple(rng.randrange(F.q) for _ in range(Q.n))
            if Q.evaluate(v):
                vs.append(v)
        if Mat(F, vs).rank() == Q.n:
            return [Transvection(F, v, tuple(F.mul(F.inv(Q.evaluate(v)), x)
                                             for x in f.dual_covector(v)))
                    for v in vs]


def undetermined_note(ctag, open_tags):
    return f"classical guess {ctag} not confirmed: {open_tags} not ruled out"


# (input, classify budgets, tag, the note naming the open candidates or None)
STEP4_CASES = {
    "O8+(2) sample": (
        lambda: orthogonal_sample(standard_quadratic_form(F2, 8, "plus"), 10, 1),
        {}, ORTHOGONAL_PLUS, None),
    "O8-(2) sample": (
        lambda: orthogonal_sample(standard_quadratic_form(F2, 8, "minus"), 10, 1),
        {}, ORTHOGONAL_MINUS, None),
    "O12+(4) sample": (
        lambda: orthogonal_sample(standard_quadratic_form(F4, 12, "plus"), 16, 1),
        {}, ORTHOGONAL_PLUS, None),
    "O22+(2) sample": (
        lambda: orthogonal_sample(standard_quadratic_form(F2, 22, "plus"), 26, 1),
        {}, UNDETERMINED, undetermined_note(ORTHOGONAL_PLUS, "SymmetricEven")),
    # the structure checks take no budget, so a tiny element budget skips
    # only the order cross-check
    "rep(7), tiny element budget": (
        lambda: build_symmetric_rep(7),
        {"budget_elements": 100}, SYMMETRIC_ODD, None),
    "M4(5) over GF(16), tiny element budget": (
        lambda: build_monomial_group(4, 5, F16),
        {"budget_elements": 100}, monomial_tag(5), None),
    "M4(7) over GF(8), tiny element budget": (
        lambda: build_monomial_group(4, 7, F8),
        {"budget_elements": 100}, monomial_tag(7), None),
    "rep(18)": (
        lambda: build_symmetric_rep(18), {}, UNDETERMINED,
        undetermined_note(SYMPLECTIC, "SymmetricEven")),
    # decided since the structure checks read one transvection class: a
    # spanning set of 23 vectors over GF(2)^22, and line sets over GF(16)^6
    # and GF(8)^8, where q^n is past every budget; S24 keeps no spanning
    # set, so only S24 itself stays open
    "rep(23)": (lambda: build_symmetric_rep(23), {}, SYMMETRIC_ODD, None),
    "M6(5) over GF(16)": (lambda: build_monomial_group(6, 5, F16), {},
                          monomial_tag(5), None),
    "M8(7) over GF(8)": (lambda: build_monomial_group(8, 7, F8), {},
                         monomial_tag(7), None),
    "rep(24)": (lambda: build_symmetric_rep(24), {}, UNDETERMINED,
                undetermined_note(ORTHOGONAL_PLUS, "SymmetricEven")),
    "rep(18), element budget 10^17": (
        lambda: build_symmetric_rep(18), {"budget_elements": 10**17},
        SYMMETRIC_EVEN, None),
    "SL2(5) over GF(9), element budget 50": (
        lambda: [Transvection(F9, (1, 0), (0, 3)), Transvection(F9, (0, 1), (1, 0))],
        {"budget_elements": 50}, UNDETERMINED,
        undetermined_note(LINEAR, "Exceptional(SL2(5))")),
    "3.A6 in SL3(4), element budget 500": (
        lambda: A6_TRIPLE, {"budget_elements": 500}, UNDETERMINED,
        undetermined_note(LINEAR, "Exceptional(3.A6)")),
}


@pytest.mark.parametrize("name", list(STEP4_CASES))
def test_classify_step4_returns_no_classical_tag_while_a_refinement_is_open(name):
    build, budgets, tag, note = STEP4_CASES[name]
    rep = classify(build(), **budgets)
    assert rep.tag == tag
    if note is None:
        assert not any("not confirmed" in x for x in rep.notes)
    else:
        # the candidates follow the note on the skipped cross-check
        assert rep.notes[-2:] == ("order cross-check skipped", note)
        assert rep.order_predicted is None
    if rep.tag == SYMMETRIC_EVEN:
        assert rep.order_enumerated == math.factorial(18)


def test_classify_never_tags_a_quadratic_form_symplectic():
    # orthogonal inputs at the default budgets, and at element budgets that
    # skip the order cross-check on all of them or on the larger ones
    inputs = [orthogonal_transvections(M, n) for M, n in
              ((Q_MINUS4, 4), (Q_PLUS6, 6), (Q_MINUS6, 6))]
    inputs += [build_symmetric_rep(m) for m in (7, 8, 10)]
    inputs += [orthogonal_sample(standard_quadratic_form(F, n, kind), n + 2, n)
               for F, n in ((F2, 8), (F2, 10), (F4, 4), (F8, 4))
               for kind in ("plus", "minus")]
    budgets = [{}, {"budget_elements": 100}, {"budget_elements": 10**4}]
    checked = 0
    for T in inputs:
        for b in budgets:
            rep = classify(T, **b)
            if "quadratic_form" in rep.witnesses:
                assert rep.tag != SYMPLECTIC
                checked += 1
    assert checked >= 30


def test_classify_subfield_descent():
    # lambda = 1 over GF(4): the pair generates a copy of SL2(2)
    t = Transvection(F4, (1, 0), (0, 1))
    s = Transvection(F4, (0, 1), (1, 0))
    rep = classify([t, s])
    assert rep.tag == LINEAR
    assert rep.field_degree == 1
    assert rep.order_enumerated == 6
    assert any("subfield" in n for n in rep.notes)
    # both tree edges already pair to 1, so the basis is the v's unscaled
    assert rep.witnesses["descent_basis"] == Mat.identity(F4, 2)
    # lambda = 1 over GF(9): a copy of SL2(3)
    t = Transvection(F9, (1, 0), (0, 1))
    s = Transvection(F9, (0, 1), (1, 0))
    rep = classify([t, s])
    assert rep.tag == LINEAR and rep.field_degree == 1
    assert rep.order_enumerated == 24
    assert rep.witnesses["descent_basis"] == Mat.identity(F9, 2)


def random_transvection(F, n, rng):
    while True:
        v = tuple(rng.randrange(F.q) for _ in range(n))
        phi = tuple(rng.randrange(F.q) for _ in range(n))
        if any(v) and any(phi):
            s = 0
            for a, b in zip(phi, v):
                s = F.add(s, F.mul(a, b))
            if s == 0:
                return Transvection(F, v, phi)


def descent_inputs():
    """15 seeded irreducible sets over each subfield F0, written over an
    extension F and conjugated there by a random invertible matrix."""
    for F0, F in ((F2, F4), (F2, F8), (F2, F16), (F4, F16), (F3, F9),
                  (F3, F27), (F5, F25), (F7, F49)):
        _, iso = classify_mod._subfield_iso(F, F0.f)
        emb = {y: x for x, y in iso.items()}
        rng = random.Random(F.q)
        for i in range(15):
            n = 3 if i % 2 and F.q <= 16 else 2
            while True:
                T0 = [random_transvection(F0, n, rng)
                      for _ in range(rng.randint(n, n + 1))]
                if is_irreducible(build_graph(T0)).irreducible:
                    break
            T = [Transvection(F, [emb[x] for x in t.v], [emb[x] for x in t.phi])
                 for t in T0]
            yield T0, random_conjugate(T, rng)


def test_classify_descent_matches_the_subfield_classification():
    checked = 0
    for T0, T in descent_inputs():
        rep0, rep = classify(T0), classify(T)
        assert ((rep.tag, rep.field_degree, rep.order_predicted,
                 rep.order_enumerated)
                == (rep0.tag, rep0.field_degree, rep0.order_predicted,
                    rep0.order_enumerated))
        P = rep.witnesses["descent_basis"]
        Pi = P.inv()
        _, iso = classify_mod._subfield_iso(P.F, rep.field_degree)
        for t in T:
            assert all(x in iso for row in Pi.mul(t.matrix()).mul(P).rows
                       for x in row)
        checked += 1
    assert checked >= 100


def test_classify_descends_past_the_vector_budget():
    # SL2 over the prime field, written over GF(17^4), GF(3^12) and
    # GF(257^2), plain and conjugated: the subfield is read off the powers
    # of a primitive element, so no step scans the field; over GF(257),
    # q^2 is past the vector budget and the order goes unchecked
    rng = random.Random(35)
    for F, order in ((field_create(17, 4), 4896), (field_create(3, 12), 24),
                     (field_create(257, 2), None)):
        T = standard_full_field_set("SL", F, 2, 1)
        for S in (T, random_conjugate(T, rng)):
            rep = classify(S)
            assert (rep.tag, rep.field_degree, rep.order_enumerated) == (LINEAR, 1, order)
            assert "descent_basis" in rep.witnesses
            if order is None:
                assert rep.order_predicted == 257 * (257**2 - 1) == 16974336
                assert "order cross-check skipped" in rep.notes


def test_subfield_iso_matches_the_frobenius_scan():
    # the map read off the powers of a primitive element is the one the
    # scan for Frobenius fixed points builds, on all 38 proper subfields
    # of the fields with q <= 2^10
    checked = 0
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        f = 2
        while p**f <= 2**10:
            F = field_create(p, f)
            for e in range(1, f):
                if f % e == 0:
                    sub, iso = classify_mod._subfield_iso(F, e)
                    want_sub, want = subfield_iso(F, e)
                    assert sub == want_sub and len(iso) == p**e
                    assert all(iso[x] == want(x) for x in iso)
                    checked += 1
            f += 1
    assert checked == 38


def test_descend_to_subfield_rejects_a_degree_below_the_cycle_weights():
    # the 2-cycle weights 2 in GF(4) and 3 in GF(9) lie outside the prime
    # field, so degree 1 is not the defining field and no descent exists
    for F, lam in ((F4, 2), (F9, 3)):
        T = [Transvection(F, (1, 0), (0, lam)), Transvection(F, (0, 1), (1, 0))]
        G = build_graph(T)
        assert defining_field(G).degree == 2
        with pytest.raises(InternalError, match="leaves the degree-1 subfield"):
            classify_mod._descend_to_subfield(G, 1)


def walk_weights(G, walks):
    """The weights of the walks (vertex tuples), each checked to be a
    closed walk of G with a nonzero weight."""
    out = []
    for verts in walks:
        k = len(verts)
        assert k >= 2 and all(0 <= i < len(G) for i in verts)
        assert all(G.pair[verts[i]][verts[(i + 1) % k]] for i in range(k))
        out.append(cycle_weight(G, verts))
        assert out[-1] != 0
    return out


def field_witnesses_hold(T, tmp_path):
    """The defining-field witnesses of classify and the cycles of analyze
    on an irreducible T are closed walks of T's own graph, with the weights
    `cycle_weight` gives, and they generate the reported degree; under a
    descent, the inner witnesses carry the same walks' weights mapped into
    the subfield.  Returns whether T descended."""
    G = build_graph(T)
    F = G.F
    rep = classify(G)
    w = rep.witnesses
    e = rep.field_degree
    outer = w.get("ambient_field_cycles", w["defining_field_cycles"])
    weights = walk_weights(G, [r.verts for r in outer])
    assert [r.weight for r in outer] == weights
    assert F.subfield_generated(weights) == e
    if "ambient_field_cycles" in w:
        sub, iso = classify_mod._subfield_iso(F, e)
        inner = w["defining_field_cycles"]
        inner_weights = walk_weights(G, [r.verts for r in inner])
        assert [r.weight for r in inner] == [iso[x] for x in inner_weights]
        assert sub.subfield_generated([r.weight for r in inner]) == e
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(serialize_generators(F, T)))
    out = tmp_path / "analyze.json"
    assert cli_main(["analyze", "--gens", str(path), "--out", str(out)]) == 0
    res = json.loads(out.read_text())["result"]
    cycles = res["cycles"]
    assert [c["weight"] for c in cycles] == walk_weights(G, [tuple(c["verts"]) for c in cycles])
    assert F.subfield_generated([c["weight"] for c in cycles]) == res["defining_field_degree"] == e
    return "ambient_field_cycles" in w


def test_field_witnesses_are_closed_walks_of_the_input(tmp_path):
    sets = grid_sets() + [T for _, _, T in fuzz_sets()]
    sets += [T for _, T in descent_inputs()]
    checked = descended = 0
    for T in sets:
        if is_irreducible(build_graph(T)).irreducible:
            descended += field_witnesses_hold(T, tmp_path)
            checked += 1
    assert checked >= 150 and descended >= 100


def test_subfield_witnesses_index_the_input():
    # a set over GF(16)^3 whose weights lie in GF(4): the ambient witnesses
    # name its own five vertices, not those of a dense extension
    T = [Transvection(F16, v, phi) for v, phi in (
        ((1, 6, 12), (10, 12, 14)), ((1, 8, 3), (0, 5, 11)),
        ((1, 0, 13), (15, 11, 9)), ((1, 14, 2), (1, 8, 4)),
        ((1, 6, 12), (0, 5, 11)))]
    rep = classify(T)
    assert (rep.tag, rep.field_degree) == (LINEAR, 2)
    G = build_graph(T)
    cycles = rep.witnesses["ambient_field_cycles"]
    assert cycles and all(max(r.verts) < len(T) for r in cycles)
    assert [r.weight for r in cycles] == walk_weights(G, [r.verts for r in cycles])


def sl_root_elements(n, F):
    """The root elements x_12(lam) for lam in the additive basis 1, x, ...,
    x^(f-1) of F over F_p, then x_(i,i+1) for 1 < i < n and x_(n,1): the
    only weight outside the prime field sits on an n-cycle."""
    T = [Transvection(F, e(n, 0), e(n, 1, F.p**k)) for k in range(F.f)]
    T += [Transvection(F, e(n, i), e(n, i + 1)) for i in range(1, n - 1)]
    return T + [Transvection(F, e(n, n - 1), e(n, 0))]


@pytest.mark.parametrize("n, F", [(9, F4), (10, F4), (12, F4), (7, F8),
                                  (8, F9), (5, F16), (6, F16)],
                         ids=lambda x: getattr(x, "name", lambda: str(x))())
def test_sl_root_elements_have_the_full_defining_field(n, F):
    # the n-cycle is longer than any fixed walk cap, and q^n is past the
    # projective budget from SL12(4) on
    rep = classify(sl_root_elements(n, F))
    assert (rep.tag, rep.field_degree) == (LINEAR, F.f)
    assert F.subfield_generated(
        [r.weight for r in rep.witnesses["defining_field_cycles"]]) == F.f


def test_classify_requires_irreducible():
    with pytest.raises(NotIrreducible):
        classify([Transvection(F2, (1, 0), (0, 1))])


def test_classification_report_validation_and_json():
    rep = classify(sp4_full())
    blob = json.dumps(rep.to_json())
    parsed = json.loads(blob)
    assert parsed["tag"] == "Symplectic"
    assert parsed["order_enumerated"] == 720
    with pytest.raises(BadParameters):
        ClassificationReport(LINEAR, 1, {}, 6, 7)


def fuzz_sets():
    """The 60 seeded random small transvection sets of the classify fuzz."""
    rng = random.Random(1)
    for _ in range(60):
        F = rng.choice([F2, F3, F4])
        n = rng.choice([2, 3])
        yield F, n, [random_transvection(F, n, rng)
                     for _ in range(rng.randint(2, 4))]


def test_classify_random_inputs_fuzz():
    # random small transvection sets either fail irreducibility or yield a
    # report whose enumerated order divides the full linear group order
    for F, n, T in fuzz_sets():
        try:
            rep = classify(T)
        except NotIrreducible:
            continue
        if rep.order_enumerated is not None:
            assert order_formula(LINEAR, n, F.q) % rep.order_enumerated == 0


def test_packed_pairings_match_dot_on_grid_and_fuzz_sets():
    # the graph's pairings and the density masks are read off packed codes
    # (`tgraph._pairing`); against the generic dot product
    sets = grid_sets() + [T for _, _, T in fuzz_sets()]
    assert len(sets) == 85
    for T in sets:
        F, n = T[0].F, T[0].n
        G = TransvectionGraph(T)
        assert G.pair == tuple(tuple(dot(F, t.phi, s.v) for s in T) for t in T)
        if F.q**n > 2**12:
            continue
        pts = projective_points(F, n)
        for t in T[:4]:
            a, b = tgraph_mod._coverage_masks(F, tgraph_mod._point_codes(F, n), t)
            assert a == sum(1 << i for i, x in enumerate(pts) if dot(F, t.phi, x))
            assert b == sum(1 << i for i, x in enumerate(pts) if dot(F, x, t.v))


def test_classify_makes_no_matrix_call_per_generator(monkeypatch):
    # invariance is tested on (v, phi) and the chain reads the generators'
    # row codes off (v, phi): no Transvection.matrix, and the Mat.mul and
    # Mat.det calls of the one-off changes of basis do not grow with the
    # number of generators
    counts = dict(mul=0, det=0, matrix=0)

    def counting(cls, name):
        real = getattr(cls, name)

        def counted(*args):
            counts[name] += 1
            return real(*args)
        monkeypatch.setattr(cls, name, counted)

    for cls, name in ((Mat, "mul"), (Mat, "det"), (Transvection, "matrix")):
        counting(cls, name)
    rng = random.Random(24)
    cases = [build_symmetric_rep(9), orthogonal_transvections(Q_PLUS6, 6)]
    cases += [random_conjugate(sl3_generators(F5), rng) for _ in range(3)]
    for T in cases:
        seen = []
        for S in (T, T + [T[-1].conjugate_by(T[:1]), T[0].conjugate_by(T[1:3])]):
            counts.update(mul=0, det=0, matrix=0)
            classify(S)
            seen.append(dict(counts))
        assert seen[0] == seen[1]
        assert seen[0]["matrix"] == 0 and seen[0]["mul"] <= 3 and seen[0]["det"] <= 3


# -- certify ------------------------------------------------------------------


def test_certify_sl24_full():
    cert = certify(sl24_full())
    kinds = [p["kind"] for p in cert.properties]
    assert "field-witnesses" in kinds
    fw = next(p for p in cert.properties if p["kind"] == "field-witnesses")
    assert fw["degree"] == 2
    assert any(c["weight"] >= F4.q // 2 for c in fw["cycles"])  # a weight outside GF(2)
    # dimension 2 always carries the determinant symplectic form, so the
    # certificate documents the form plus a non-hermitian cycle instead of
    # a non-symplectic cycle
    assert "symplectic-form" in kinds
    assert "non-hermitian-cycle" in kinds
    assert len(cert.T0) <= CERT_MAX_SIZE


def test_certify_sp4_symmetric_exclusion():
    cert = certify(sp4_full())
    kinds = [p["kind"] for p in cert.properties]
    assert "symmetric-exclusion" in kinds
    se = next(p for p in cert.properties if p["kind"] == "symmetric-exclusion")
    sub = [cert.T0[i] for i in se["subset"]]
    # replay the witness: the subset acts irreducibly on the span of its
    # vectors yet carries no invariant spanning set of size dim+1
    sec = restrict_to_section(build_graph(sub))
    assert detect_symmetric_type(sec.tbar) is None


def test_certify_sl32_monomial_exclusion():
    cert = certify(sl3_triangle(F2))
    kinds = [p["kind"] for p in cert.properties]
    assert "non-symplectic-cycle" in kinds
    nsc = next(p for p in cert.properties if p["kind"] == "non-symplectic-cycle")
    assert len(nsc["cycle"]) <= 5
    assert "monomial-exclusion" in kinds


def test_certify_su42_monomial_exclusion():
    cert = certify(su4_generators())
    kinds = [p["kind"] for p in cert.properties]
    assert "hermitian-form" in kinds
    assert "non-symplectic-cycle" in kinds
    assert "monomial-exclusion" in kinds


def test_certify_words_evaluate():
    cert = certify(sp4_full())
    # construction already validates; re-check explicitly
    from transvect.tgraph import word_matrix
    for t, w in zip(cert.T0, cert.words):
        assert word_matrix(cert.base, w).rows == t.matrix().rows
    # and a corrupted word is rejected
    with pytest.raises(BadParameters):
        Certificate(cert.base, cert.T0, tuple(cert.words[1:] + cert.words[:1]),
                    cert.properties)


def test_certify_stability_property_and_json():
    cert = certify(standard_full_field_set("SU3", F9, 3))
    st = next(p for p in cert.properties if p["kind"] == "stability")
    assert st["matches"] is True
    json.dumps(cert.to_json())


def test_tarjan_runs_at_most_once_per_graph(monkeypatch):
    # a graph keeps its strongly connected components, so the checks in
    # classify, certify and the set builders read them without a rerun
    runs = []
    tarjan = tgraph_mod._tarjan

    def recording(succ):
        runs.append(succ)  # kept alive, so the ids stay distinct
        return tarjan(succ)

    monkeypatch.setattr(tgraph_mod, "_tarjan", recording)
    # Sp4(2), SU3(3), and a dihedral group that descends to GF(4)
    cases = [build_symmetric_rep(6), standard_full_field_set("SU3", F9, 3),
             build_monomial_group(2, 3, F4)]
    for run in (classify, certify):
        for T in cases[:2] if run is certify else cases:
            runs.clear()
            run(T)
            assert 1 <= len(runs) == len({id(succ) for succ in runs})


def test_certify_rejects_non_classical():
    with pytest.raises(UnsupportedTag):
        certify(build_symmetric_rep(7))
    with pytest.raises(UnsupportedTag):
        certify(build_monomial_group(3, 3, F4))
    with pytest.raises(NotIrreducible):
        certify([Transvection(F2, (1, 0), (0, 1))])


# -- stability ----------------------------------------------------------------


def test_sample_supersets_properties():
    T = sp4_full()
    cert = certify(T)
    sets = sample_supersets(T, cert.T0, count=10, seed=3)
    for T1 in sets:
        assert set(cert.T0) <= set(T1)
        assert is_strongly_connected(build_graph(T1))


def supersets_by_matrix_products(T, T0, count, extras, seed):
    """The supersets of `sample_supersets` built from matrices: each
    conjugate t^w is read off g M_t g^-1 for the word matrix g."""
    T_dense, _ = densify(T)
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        T1 = list(T0)
        for _ in range(extras):
            t = T[rng.randrange(len(T))]
            g = Mat.identity(t.F, t.n)
            for _ in range(rng.randint(1, 4)):
                g = g.mul(T[rng.randrange(len(T))].matrix())
            u = tv_from_matrix(g.mul(t.matrix()).mul(g.inv()))
            if u not in T1:
                T1.append(u)
        out.append(connect_up(T_dense, T1).verts)
    return out


@pytest.mark.parametrize("build", [
    sp4_full, sl24_full, lambda: sl3_triangle(F3), lambda: sl3_triangle(F4),
    lambda: sl3_triangle(F5), lambda: build_symmetric_rep(7)])
def test_sample_supersets_match_the_matrix_product_construction(build):
    T = build()
    for seed, extras in ((0, 3), (5, 1), (11, 4)):
        got = [G.verts for G in sample_supersets(T, T[:1], count=3,
                                                 extras=extras, seed=seed)]
        assert got == supersets_by_matrix_products(T, T[:1], 3, extras, seed)


def test_sampling_and_densify_invert_no_matrix(monkeypatch):
    # conjugates are read off (v, phi) one letter at a time
    sets = [sl3_triangle(F3), sl3_triangle(F4), sp4_full()]
    inverted = []
    real_inv = Mat.inv

    def counting_inv(self):
        inverted.append(self)
        return real_inv(self)

    monkeypatch.setattr(Mat, "inv", counting_inv)
    for T in sets:
        densify(T)
        assert len(sample_supersets(T, T[:1], count=3, seed=1)) == 3
    # the triangle's density witnesses include conjugates by two-letter words
    assert max(map(len, densify(sets[0])[1])) == 5
    assert inverted == []


def test_stability_check_sp4():
    T = sp4_full()
    cert = certify(T)
    reports = stability_check(T, cert.T0, samples=20, seed=5)
    assert all(r.tag == SYMPLECTIC and r.field_degree == 1 for r in reports)


def test_stability_check_deterministic():
    T = sl24_full()
    cert = certify(T)
    a = stability_check(T, cert.T0, samples=5, seed=11)
    b = stability_check(T, cert.T0, samples=5, seed=11)
    assert [(str(r.tag), r.field_degree) for r in a] == \
        [(str(r.tag), r.field_degree) for r in b]


def test_sampling_rejects_negative_counts():
    T = sp4_full()
    T0 = T[:4]
    for kwargs in ({"count": -1}, {"extras": -1}):
        with pytest.raises(BadParameters):
            sample_supersets(T, T0, **kwargs)
    with pytest.raises(BadParameters):
        stability_check(T, T0, samples=-1)
    assert sample_supersets(T, T0, count=0) == []
    assert all(T1[:4] == T0 for T1 in sample_supersets(T, T0, count=2, extras=0))


def test_certify_densifies_once_and_hands_on_its_graphs(monkeypatch):
    # the spot check samples from certify's own dense graph, and the graphs
    # that connect_up and winkle return are read, never built again, by
    # winkle, the certificate closure and the stability sections
    densified = []
    real_densify = classify_mod.densify

    def counting_densify(*args):
        densified.append(args[0])
        return real_densify(*args)

    handed: set = set()
    rebuilt = []
    in_connect_up = []

    def recording(fn):
        def wrapper(*args, **kwargs):
            G = fn(*args, **kwargs)
            handed.add(tuple(G))
            return G
        return wrapper

    real_connect_up = recording(classify_mod.connect_up)

    def connect_up(*args, **kwargs):
        # connect_up builds the graph of the list it is given
        in_connect_up.append(True)
        try:
            return real_connect_up(*args, **kwargs)
        finally:
            in_connect_up.pop()

    real_init = TransvectionGraph.__init__

    def counted(self, verts):
        real_init(self, verts)
        if not in_connect_up and tuple(self) in handed:
            rebuilt.append(tuple(self))

    monkeypatch.setattr(classify_mod, "densify", counting_densify)
    monkeypatch.setattr(classify_mod, "connect_up", connect_up)
    monkeypatch.setattr(classify_mod, "winkle", recording(classify_mod.winkle))
    monkeypatch.setattr(TransvectionGraph, "__init__", counted)
    for T in (sp4_full(), sl24_full()):
        densified.clear()
        handed.clear()
        cert = certify(T)
        assert len(densified) == 1
        assert tuple(cert.T0) in handed
        assert rebuilt == []
        assert len(stability_check(T, cert.T0, samples=3)) == 3
        assert rebuilt == []


# -- the order of T0 as a floor for its supersets ------------------------------


def floor_checked(monkeypatch) -> list:
    """Make every `_classify` call given a floor other than 1 check its
    report against the report of the same call with the floor forced to 1;
    returns the floors seen, one per such call."""
    real = classify_mod._classify
    floors = []

    def checked(T, budget_elements, floor):
        got = real(T, budget_elements, floor)
        if floor != 1:
            floors.append(floor)
            assert got.to_json() == real(T, budget_elements, 1).to_json()
        return got

    monkeypatch.setattr(classify_mod, "_classify", checked)
    return floors


def structure_small_sets():
    """The groups of the structure-small benchmark's certify and stability
    entries: SU4(2), SL2(16), SL2(9), SL3(4), SL3(3), Sp4(2) and rep(8)."""
    return [su4_generators(), sl_generators(F16), sl_generators(F9),
            sl3_generators(F4), sl3_generators(F3), sp4_full(),
            build_symmetric_rep(8)]


def test_order_floors_leave_every_report_as_it_was(monkeypatch):
    # every spot-check report that a floor settles is the report of the
    # full chain, on the classical grid sets, the fuzz draws that certify,
    # and the structure-small groups
    floors = floor_checked(monkeypatch)
    sets = grid_sets() + [T for _, _, T in fuzz_sets()] + structure_small_sets()
    certified = 0
    for T in sets:
        try:
            certify(T, seed=3)
        except (UnsupportedTag, NotIrreducible):
            continue
        certified += 1
    assert certified >= 20
    assert len(floors) >= 2 * certified
    assert all(floor > 1 for floor in floors)


def test_order_floor_decides_the_chain_or_contradicts_it(monkeypatch):
    T = sl3_generators(F3)  # SL3(3), order 5616
    calls = []
    real = classify_mod._group_order

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(classify_mod, "_group_order", counting)
    full = classify(T).to_json()
    assert len(calls) == 1
    assert classify_mod._classify(T, 10**7, 5616).to_json() == full
    capped = classify(T, 5000).to_json()
    assert "enumeration exceeded the 5000-element budget" in capped["notes"]
    assert classify_mod._classify(T, 5000, 5001).to_json() == capped
    assert len(calls) == 2
    # a floor below the bound decides nothing, however close it comes
    assert classify_mod._classify(T, 10**7, 13).to_json() == full
    assert classify_mod._classify(T, 10**7, 5615).to_json() == full
    assert len(calls) == 4
    with pytest.raises(InternalError, match="floor exceeds the bound"):
        classify_mod._classify(T, 10**7, 5617)
    # the descent to GF(2) hands the floor on: a dihedral group of order 6
    D = build_monomial_group(2, 3, F4)
    with pytest.raises(InternalError):
        classify_mod._classify(D, 10**7, 7)
    assert classify_mod._classify(D, 10**7, 6).to_json() == classify(D).to_json()
    assert len(calls) == 5


def test_certify_takes_no_floor_past_the_vector_budget(monkeypatch):
    T = sl_generators(field_create(257))  # q^n = 66049 > 2^16
    floors = floor_checked(monkeypatch)
    certify(T)
    assert floors == []


@pytest.mark.parametrize("build", [lambda: sl3_generators(F3),
                                   lambda: sl_generators(F9), sp4_full],
                         ids=["SL3(3)", "SL2(9)", "Sp4(2)"])
def test_certify_spot_check_runs_no_chain(monkeypatch, build):
    # the spot check reads T0's order off its closure check, which equals
    # the bound of every spot superset, so none of them builds a chain
    floored, chains = [], []
    real_order, real_classify = classify_mod._group_order, classify_mod._classify

    def counting(*args):
        if any(floored):
            chains.append(args)
        return real_order(*args)

    def classifying(T, budget_elements, floor):
        floored.append(floor != 1)
        try:
            return real_classify(T, budget_elements, floor)
        finally:
            floored.pop()

    monkeypatch.setattr(classify_mod, "_group_order", counting)
    monkeypatch.setattr(classify_mod, "_classify", classifying)
    cert = certify(build())
    assert chains == [] and cert.properties[-1] == {
        "kind": "stability", "samples": 3, "matches": True}


# -- exact shortcuts against the general constructions ------------------------


def same_section(G, sec):
    """Check `restrict_to_section`'s answer on G field by field against the
    general construction of `oracles.section_oracle`; returns whether the
    section is G itself, the identity path."""
    want = section_oracle(G)
    assert sec.U == want.U and sec.W == want.W
    assert sec.tbar == want.tbar and sec.index_map == want.index_map
    assert sec.basis_w == want.basis_w and sec.basis_c == want.basis_c
    assert sec.graph.verts == want.graph.verts and sec.graph.pair == want.graph.pair
    assert (sec.graph is G) == (want.graph is G)
    return sec.graph is G


def test_sections_match_the_general_construction_on_grid_and_fuzz_sets():
    spanning = other = 0
    for T in grid_sets() + [T for _, _, T in fuzz_sets()]:
        G = build_graph(T)
        if not is_strongly_connected(G) or tgraph_mod._radicals(G)[0] == G.vspace:
            continue  # no section to restrict to
        if same_section(G, restrict_to_section(G)):
            spanning += 1
        else:
            other += 1
    assert spanning >= 50 and other >= 15
    # a spanning nondegenerate set with a repeated vertex merges it
    G = build_graph(sl_generators(F3) * 2)
    sec = restrict_to_section(G)
    assert not same_section(G, sec) and sec.index_map == (0, 1, 0, 1)


@pytest.mark.parametrize("seed", [1, 3, 7])
def test_sections_of_certify_and_stability_match_the_general_construction(
        monkeypatch, seed):
    graphs = []
    real = classify_mod.restrict_to_section

    def recording(G):
        sec = real(G)
        graphs.append((G, sec))
        return sec

    monkeypatch.setattr(classify_mod, "restrict_to_section", recording)
    for T in (sl3_generators(F3), sp4_full(), sl_generators(F9),
              su4_generators(), build_symmetric_rep(8)):
        cert = certify(T, seed=seed)
        stability_check(T, cert.T0, samples=10, seed=seed)
    spanning = [same_section(G, sec) for G, sec in graphs]
    assert len(spanning) > sum(spanning) >= 70


def test_radicals_match_the_intersect_formulas():
    rng = random.Random(29)
    sets = grid_sets() + [T for _, _, T in fuzz_sets()]
    sets += [densify(T)[0][:k] for T in (sp4_full(), sl3_triangle(F2))
             for k in range(1, 9)]
    sets += [[random_transvection(F, 4, rng) for _ in range(rng.randint(1, 5))]
             for F in (F2, F3, F4, F5) for _ in range(10)]
    zero_sides = 0
    for T in sets:
        G = build_graph(T)
        want = (G.vspace.intersect(G.dual_space.perp()),
                G.vspace.perp().intersect(G.dual_space))
        assert tgraph_mod._radicals(G) == want
        zero_sides += (G.dual_space.dim == G.n) + (G.vspace.dim == G.n)
    assert 0 < zero_sides < 2 * len(sets)


def every_transvection(F, n):
    """Every transvection of GF(q)^n, as (v, phi) with v scaled to first
    nonzero coordinate 1."""
    for v in projective_points(F, n):
        for code in range(1, F.q**n):
            phi = tuple(code // F.q**j % F.q for j in range(n))
            if dot(F, phi, v) == 0:
                yield v, phi


def test_closed_form_inverse_rows_match_gauss_jordan():
    # the chain takes 1 - v (x) phi as the inverse of an input transvection
    # instead of inverting 1 + v (x) phi on its row codes
    rows = classify_mod._transvection_rows
    inverse_codes = classify_mod._inverse_codes
    count = 0
    for F in (F2, F3, F4, F5, F9):
        for n in (2, 3):
            for v, phi in every_transvection(F, n):
                inverse = rows(F, F.neg(1), v, phi)
                assert inverse == inverse_codes(F, rows(F, 1, v, phi))
                count += 1
    assert count > 7000
    rng = random.Random(41)
    for F, n in ((F2, 8), (F7, 5), (F8, 4), (F16, 4), (F27, 3), (F49, 3)):
        for _ in range(20):
            t = random_transvection(F, n, rng)
            inverse = rows(F, F.neg(1), t.v, t.phi)
            assert inverse == inverse_codes(F, rows(F, 1, t.v, t.phi))
            assert inverse == _rows(t.inverse().matrix())
