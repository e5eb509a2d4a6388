"""Release validation: nine numbered end-to-end checks.

Each test prints exactly one `[criterion N] PASS/FAIL` line through the
capture-disabled channel so the lines are visible in a normal pytest run.
Two nominal targets are unattainable for structural reasons; those checks
print FAIL with the reason and pin the true, independently verified values
so any regression stays visible.
"""

from __future__ import annotations

import importlib
import itertools
import math
import random
import time

import pytest

from transvect.cayley import bfs_explore, transvection_length_profile
from transvect.classify import (
    LINEAR,
    SYMMETRIC_EVEN,
    SYMMETRIC_ODD,
    SYMPLECTIC,
    build_monomial_group,
    build_symmetric_rep,
    certify,
    classify,
    group_order,
    monomial_tag,
    order_formula,
    stability_check,
)
from transvect.errors import NotTransvection, UnsupportedTag
from transvect.forms import (
    QuadraticForm,
    QuadraticObstruction,
    SesquiForm,
    detect_invariant_form,
    recover_quadratic,
)
from transvect.gf import field_create
from transvect.linalg import Mat, Subspace, dot
from transvect.tgraph import (
    build_graph,
    connect_up,
    defect,
    densify,
    is_dense,
    is_irreducible,
    is_strongly_connected,
    scc,
    winkle,
    word_matrix,
)
from transvect.transvections import (
    Transvection,
    standard_full_field_set,
    tv_from_matrix,
)

from oracles import enumerate_group, invariant_under, projective_points, row_matrices

F2 = field_create(2, 1)
F3 = field_create(3, 1)
F4 = field_create(2, 2)
F5 = field_create(5, 1)
F7 = field_create(7, 1)
F8 = field_create(2, 3)
F9 = field_create(3, 2)
F16 = field_create(2, 4)

RUNTIME_LIMITS = {1: 60, 2: 120, 3: 60, 4: 300, 5: 120, 6: 60, 7: 300, 8: 120, 9: 60}


def emit(capsys, num, ok, detail):
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\n[criterion {num}] {status} - {detail}", flush=True)


# -- shared constructors ------------------------------------------------------


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


Q_PLUS4 = Mat(F2, ((0, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0)))
Q_MINUS4 = Mat(F2, ((1, 1, 0, 0), (0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0)))
Q_PLUS6 = Mat(F2, ((0, 1, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0),
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


def su4_generators():
    """Six unitary transvections generating SU4(2) inside SL4(4)."""
    gram = Mat(F4, ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)))
    h = SesquiForm(F4, gram, twist="theta")
    vs = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
          (1, 0, 1, 0), (1, 0, 2, 0)]
    return [Transvection(F4, v, h.dual_covector(v)) for v in vs]


def random_transvection(F, n, rng):
    while True:
        v = tuple(rng.randrange(F.q) for _ in range(n))
        if all(c == 0 for c in v):
            continue
        phi = tuple(rng.randrange(F.q) for _ in range(n))
        if all(c == 0 for c in phi):
            continue
        if dot(F, phi, v) != 0:
            continue
        return Transvection(F, v, phi)


def random_irreducible(F, n, rng):
    while True:
        k = rng.randrange(n, n + 3)
        T = [random_transvection(F, n, rng) for _ in range(k)]
        if is_irreducible(build_graph(T)).irreducible:
            return T


def group_transvections(en):
    out = []
    for M in en.matrices():
        try:
            out.append(tv_from_matrix(M))
        except NotTransvection:
            pass
    return out


# -- criterion 1: irreducibility oracle ---------------------------------------


def oracle_irreducible(T):
    """Exhaustive invariant-subspace search: the action is irreducible iff
    the smallest invariant subspace through every projective point is V."""
    F = T[0].F
    n = len(T[0].v)
    mats = [t.matrix() for t in T]
    for seed in projective_points(F, n):
        W = Subspace(F, n, (seed,))
        frontier = [seed]
        while frontier and W.dim < n:
            u = frontier.pop()
            for M in mats:
                w = M.matvec(u)
                if not W.contains(w):
                    W = W.sum(Subspace(F, n, (w,)))
                    frontier.append(w)
        if W.dim < n:
            return False
    return True


def test_criterion_1_irreducibility_oracle(capsys):
    t0 = time.perf_counter()
    rng = random.Random(101)
    counts = {(2, F2): 2000, (2, F3): 2000, (2, F4): 1500,
              (3, F2): 1800, (3, F3): 1200, (3, F4): 500, (4, F2): 1000}
    total = 0
    reducible_seen = 0
    for (n, F), m in counts.items():
        for _ in range(m):
            k = rng.randrange(2, n + 3)
            T = [random_transvection(F, n, rng) for _ in range(k)]
            got = is_irreducible(build_graph(T)).irreducible
            want = oracle_irreducible(T)
            assert got == want
            total += 1
            reducible_seen += not want
    assert total >= 10**4
    assert 0 < reducible_seen < total  # both outcomes exercised
    elapsed = time.perf_counter() - t0
    emit(capsys, 1, True,
         f"{total} random sets (n<=3, q in {{2,3,4}}, plus n=4, q=2) agree with "
         f"the exhaustive invariant-subspace oracle; {reducible_seen} reducible, "
         f"{total - reducible_seen} irreducible; {elapsed:.1f}s")
    assert elapsed < RUNTIME_LIMITS[1]


# -- criterion 2: form reconstruction -----------------------------------------


def oracle_invariant_form_exists(T, twist):
    """Direct linear-system oracle: solve M^T G theta(M) = G for all
    generators, then scan the solution space exhaustively for a nonzero
    twisted-antisymmetric nondegenerate Gram matrix."""
    F = T[0].F
    n = len(T[0].v)
    th = (lambda x: x) if twist == "identity" else F.involution
    rows = []
    for t in T:
        M = t.matrix()
        tm = M.map_entries(th)
        for a in range(n):
            for b in range(n):
                row = [0] * (n * n)
                for i in range(n):
                    mia = M.rows[i][a]
                    if mia == 0:
                        continue
                    for j in range(n):
                        c = F.mul(mia, tm.rows[j][b])
                        if c:
                            row[i * n + j] = F.add(row[i * n + j], c)
                row[a * n + b] = F.sub(row[a * n + b], 1)
                if any(row):
                    rows.append(row)
    if not rows:
        return False
    ker = Subspace(F, n * n, rows).perp().basis
    if not ker:
        return False
    assert F.q ** len(ker) <= 20000  # the scan below stays exhaustive
    zero = Mat.zero(F, n, n)
    for coeffs in itertools.product(F.elements(), repeat=len(ker)):
        if all(c == 0 for c in coeffs):
            continue
        flat = [0] * (n * n)
        for c, basis in zip(coeffs, ker):
            if c == 0:
                continue
            for idx, x in enumerate(basis):
                if x:
                    flat[idx] = F.add(flat[idx], F.mul(c, x))
        Gm = Mat(F, tuple(tuple(flat[i * n + j] for j in range(n))
                          for i in range(n)))
        if Gm.det() == 0:
            continue
        if Gm.add(Gm.transpose().map_entries(th)).rows != zero.rows:
            continue
        if twist == "identity" and F.p == 2 and any(Gm.rows[i][i] for i in range(n)):
            continue
        return True
    return False


def test_criterion_2_form_reconstruction(capsys):
    t0 = time.perf_counter()
    named = [
        ("Sp4(2)", sp4_full(), "identity"),
        ("Sp6(2)", sp6_generators(), "identity"),
        ("SU3(3)", standard_full_field_set("SU3", F9, 3), "theta"),
        ("SU4(2)", su4_generators(), "theta"),
    ]
    for label, T, twist in named:
        f = detect_invariant_form(build_graph(T), twist)
        assert isinstance(f, SesquiForm), label
        for t in T:
            assert invariant_under(f, t.matrix()), label

    rng = random.Random(202)
    sets = 0
    comparisons = 0
    found = 0
    for F in (F2, F3, F4, F5, F7, F8, F9):
        for n in (2, 3, 4):
            for _ in range(48):
                T = random_irreducible(F, n, rng)
                sets += 1
                G = build_graph(T)
                got = detect_invariant_form(G, "identity")
                want = oracle_invariant_form_exists(T, "identity")
                assert isinstance(got, SesquiForm) == want
                comparisons += 1
                found += want
                if F.has_involution():
                    got = detect_invariant_form(G, "theta")
                    want = oracle_invariant_form_exists(T, "theta")
                    assert isinstance(got, SesquiForm) == want
                    comparisons += 1
                    found += want
    assert sets >= 10**3
    assert found > 0
    elapsed = time.perf_counter() - t0
    emit(capsys, 2, True,
         f"Gram identity holds per generator on Sp4(2), Sp6(2), SU3(3), SU4(2); "
         f"detector agrees with the linear-system oracle on {sets} random "
         f"irreducible sets ({comparisons} twist comparisons, {found} forms "
         f"found); {elapsed:.1f}s")
    assert elapsed < RUNTIME_LIMITS[2]


# -- criterion 3: quadratic recovery ------------------------------------------


def all_transvections_preserving(Q):
    """Every transvection of SL(n, 2) preserving Q, by direct value check on
    all of GF(2)^n."""
    n = Q.n
    space = range(2**n)
    qtab = [Q.evaluate(tuple((x >> i) & 1 for i in range(n))) for x in space]
    out = []
    for vm in range(1, 2**n):
        for pm in range(1, 2**n):
            if bin(vm & pm).count("1") % 2:
                continue
            if all(qtab[x ^ (vm if bin(pm & x).count("1") % 2 else 0)] == qtab[x]
                   for x in space):
                out.append(Transvection(
                    F2,
                    tuple((vm >> i) & 1 for i in range(n)),
                    tuple((pm >> i) & 1 for i in range(n)),
                ))
    return out


def test_criterion_3_quadratic_recovery(capsys):
    t0 = time.perf_counter()
    # honest orders: the transvections preserving a hyperbolic form on
    # GF(2)^4 generate only the index-2 subgroup (order 36), so the nominal
    # target 72 = |O4+(2)| cannot be reached by enumerating transvection
    # products; the other two cases meet their targets.
    cases = [
        ("O4+(2)", Q_PLUS4, 4, 36),
        ("O4-(2)", Q_MINUS4, 4, 120),
        ("O6+(2)", Q_PLUS6, 6, 40320),
    ]
    observed = []
    for label, coeffs, n, honest_order in cases:
        Q = QuadraticForm(F2, coeffs)
        T = orthogonal_transvections(coeffs, n)
        rec = recover_quadratic(build_graph(T), Q.polarization())
        assert isinstance(rec, QuadraticForm), label
        for code in range(2**n):
            v = tuple((code >> i) & 1 for i in range(n))
            assert rec.evaluate(v) == Q.evaluate(v), label
        pres = all_transvections_preserving(rec)
        mats = [t.matrix() for t in pres]
        en = enumerate_group(mats)
        ex = bfs_explore(mats)
        assert en.order == ex.order == honest_order, label
        observed.append(f"{label} -> {en.order}")
    obs = recover_quadratic(build_graph(sp4_full()),
                            detect_invariant_form(build_graph(sp4_full()), "identity"))
    assert isinstance(obs, QuadraticObstruction)
    elapsed = time.perf_counter() - t0
    emit(capsys, 3, False,
         "O4+(2) target order 72 is unattainable: the transvections preserving "
         "the recovered form generate an index-2 subgroup of order 36 (both "
         "enumeration paths agree); O4-(2) -> 120 and O6+(2) -> 40320 meet "
         f"their targets; Sp4(2) -> obstruction as required; {elapsed:.1f}s")
    assert elapsed < RUNTIME_LIMITS[3]


# -- criterion 4: classification grid -----------------------------------------


def classification_grid():
    """(label, T, expected tag string, expected order, constructing-formula
    order, coincidence note or None)."""
    rows = []
    for q, F in ((2, F2), (3, F3), (4, F4), (5, F5), (7, F7), (8, F8), (9, F9)):
        rows.append((f"SL2({q})", sl_generators(F), "Linear",
                     q * (q * q - 1), order_formula(LINEAR, 2, q), None))
    rows.append(("SL3(2)", sl3_triangle(F2), "Linear", 168,
                 order_formula(LINEAR, 3, 2), None))
    rows.append(("SL3(3)", sl3_triangle(F3), "Linear", 5616,
                 order_formula(LINEAR, 3, 3), None))
    rows.append(("Sp4(2)", sp4_full(), "Symplectic", 720,
                 order_formula(SYMPLECTIC, 4, 2), None))
    rows.append(("Sp6(2)", sp6_generators(), "Symplectic", 1451520,
                 order_formula(SYMPLECTIC, 6, 2), None))
    monomials = [
        (2, 3, F4, "Linear", "M2(3) = S3 = SL2(2)"),
        (3, 3, F4, "Monomial(3)", None),
        (4, 3, F4, "Monomial(3)", None),
        (2, 5, F16, "OrthogonalMinus", "M2(5) = D10, the O2-(4) transvections"),
        (3, 5, F16, "Monomial(5)", None),
        (4, 5, F16, "Monomial(5)", None),
        (2, 7, F8, "OrthogonalPlus", "M2(7) = D14, the O2+(8) transvections"),
        (3, 7, F8, "Monomial(7)", None),
        (4, 7, F8, "Monomial(7)", None),
    ]
    for n, a, F, tag, note in monomials:
        rows.append((f"M{n}({a})", build_monomial_group(n, a, F), tag,
                     a ** (n - 1) * math.factorial(n),
                     order_formula(monomial_tag(a), n, F.q), note))
    symmetric = [
        (5, "SymmetricOdd", None),
        (6, "Symplectic", "rep(6) generates S6 = Sp4(2)"),
        (7, "SymmetricOdd", None),
        (8, "OrthogonalPlus", "rep(8) generates S8 = O6+(2)"),
        (9, "SymmetricOdd", None),
    ]
    for m, tag, note in symmetric:
        n = m - (2 if m % 2 == 0 else 1)
        ctag = SYMMETRIC_EVEN if m % 2 == 0 else SYMMETRIC_ODD
        rows.append((f"rep({m})", build_symmetric_rep(m), tag,
                     math.factorial(m),
                     order_formula(ctag, n, 2), note))
    return rows


def test_criterion_4_classification_grid(capsys):
    t0 = time.perf_counter()
    coincidences = []
    for label, T, tag, order, formula_order, note in classification_grid():
        rep = classify(T)
        assert str(rep.tag) == tag, label
        assert rep.order_enumerated == order, label
        assert rep.order_enumerated == formula_order, label
        if note is not None:
            coincidences.append(f"{label} -> {tag} ({note})")
    elapsed = time.perf_counter() - t0
    emit(capsys, 4, False,
         "enumerated order equals the constructing formula on all 25 grid "
         "instances and Sp4(2) has order 720 (S6 coincidence), but 5 instances "
         "construct groups that ARE classical groups, so classify reports the "
         "classical tag instead of the constructing one: "
         + "; ".join(coincidences) + f"; {elapsed:.1f}s")
    assert elapsed < RUNTIME_LIMITS[4]


def test_group_order_matches_enumeration_on_grid():
    # the stabilizer chain behind classify's exact order against the
    # element-listing oracle on every grid instance
    for label, T, _, order, _, _ in classification_grid():
        mats = [t.matrix() for t in T]
        assert group_order(mats) == enumerate_group(mats).order == order, label


def test_group_order_with_the_classical_bound_on_grid(monkeypatch):
    # classify stops the chain at the order of its classical guess, a proven
    # upper bound: the bounded chain gives the full chain's order everywhere
    classify_mod = importlib.import_module("transvect.classify")
    chain_order = classify_mod._group_order
    calls = []

    def record(F, n, gens, cap, bound):
        calls.append((F, n, gens, cap, bound))
        return chain_order(F, n, gens, cap, bound)

    monkeypatch.setattr(classify_mod, "_group_order", record)
    for label, T, _, order, _, _ in classification_grid():
        classify(T)
        F, n, gens, cap, bound = calls.pop()
        assert (chain_order(F, n, gens, cap, bound)
                == group_order(row_matrices(F, n, [r for r, _ in gens]), cap)
                == order), label
        assert order <= bound, label


# -- criterion 5: density at desk scale ---------------------------------------


def test_criterion_5_density(capsys):
    t0 = time.perf_counter()
    rng = random.Random(505)
    grid = {(2, F2): 180, (2, F3): 160, (2, F4): 140,
            (3, F2): 160, (3, F3): 120, (3, F4): 80,
            (4, F2): 100, (4, F3): 60, (4, F4): 40}
    produced = 0
    worst = {}
    for (n, F), m in grid.items():
        bound = 2 * n - 1
        for _ in range(m):
            T = random_irreducible(F, n, rng)
            Td, words = densify(T)
            assert len(Td) == len(words)
            assert all(len(w) <= bound for w in words)
            pairs = list(zip(Td, words))
            for t, w in pairs[:2] + pairs[-2:]:
                assert word_matrix(T, w).rows == t.matrix().rows
            worst[(n, F.q)] = max(worst.get((n, F.q), 0),
                                  max(len(w) for w in words))
            produced += 1
    assert produced >= 10**3
    assert all(worst[(n, q)] <= 2 * n - 1 for n, q in worst)
    elapsed = time.perf_counter() - t0
    maxima = ", ".join(f"n={n},q={q}: {w}" for (n, q), w in sorted(worst.items()))
    emit(capsys, 5, True,
         f"{produced} random irreducible sets densified with every witness "
         f"word within 2n-1; observed maxima {maxima}; {elapsed:.1f}s")
    assert elapsed < RUNTIME_LIMITS[5]


# -- criterion 6: connect-up / winkle size budgets ----------------------------


def start_sets(ambient, rng):
    """Mix of random subsets, constructed multi-component pairs (no mutual
    adjacency, so at least two components), and singletons (positive defect)."""
    G = build_graph(ambient)
    nonmutual = [(i, j) for i in range(len(ambient)) for j in range(i)
                 if not (G.pair[i][j] and G.pair[j][i])]
    assert nonmutual
    out = []
    for _ in range(100):
        out.append(rng.sample(ambient, rng.randrange(2, len(ambient))))
    for _ in range(40):
        i, j = rng.choice(nonmutual)
        T0 = [ambient[i], ambient[j]]
        if rng.random() < 0.5:
            extra = rng.randrange(len(ambient))
            if extra not in (i, j):
                T0.append(ambient[extra])
        out.append(T0)
    for _ in range(20):
        out.append([ambient[rng.randrange(len(ambient))]])
    return out


def test_criterion_6_connect_up_winkle(capsys):
    t0 = time.perf_counter()
    rng = random.Random(606)
    sp4 = sp4_full()
    f_sp4 = detect_invariant_form(build_graph(sp4), "identity")
    sl32 = densify(sl3_triangle(F2))[0]
    sl24 = sl24_full()
    f_sl24 = detect_invariant_form(build_graph(sl24), "identity")
    ambients = [(sp4, f_sp4), (sl32, None), (sl24, f_sl24)]
    trials = 0
    multi_scc = 0
    degenerate = 0
    for ambient, form in ambients:
        assert is_dense(build_graph(ambient))[0]
        for T0 in start_sets(ambient, rng):
            k = len(scc(build_graph(T0)))
            multi_scc += k >= 2
            T1 = connect_up(ambient, T0)
            assert T1[:len(T0)] == T0
            assert is_strongly_connected(build_graph(T1))
            assert len(T1) <= len(T0) + k
            trials += 1
            if form is not None:
                T1f = connect_up(ambient, T0, form)
                assert is_strongly_connected(build_graph(T1f))
                assert len(T1f) <= len(T0) + max(k - 1, 0)
                trials += 1
            d = defect(build_graph(T1))
            degenerate += d >= 1
            T2 = winkle(ambient, T1)
            assert len(T2) <= len(T1) + d
            assert defect(build_graph(T2)) == 0
            assert is_strongly_connected(build_graph(T2))
            trials += 1
    assert trials >= 10**3
    assert multi_scc >= 100
    assert degenerate >= 50
    elapsed = time.perf_counter() - t0
    emit(capsys, 6, True,
         f"{trials} trials over three dense ambients all met the size budgets "
         f"(connect-up <= |T0|+k, <= |T0|+k-1 with a form, winkle <= defect); "
         f"{multi_scc} multi-component and {degenerate} degenerate starts; "
         f"{elapsed:.1f}s")
    assert elapsed < RUNTIME_LIMITS[6]


# -- criterion 7: certificate stability ---------------------------------------


def test_criterion_7_certificate_stability(capsys):
    t0 = time.perf_counter()
    rows = [("SL2(2)", sl_generators(F2), None),
            ("SL2(3)", sl_generators(F3), None),
            ("SL2(4)", sl_generators(F4), None),
            ("SL2(5)", sl_generators(F5), None),
            ("SL2(7)", sl_generators(F7), None),
            ("SL2(8)", sl_generators(F8), None),
            ("SL2(9)", sl_generators(F9), None),
            ("SL3(2)", sl3_triangle(F2), None),
            ("SL3(3)", sl3_triangle(F3), None),
            ("Sp4(2)", sp4_full(), None),
            ("Sp6(2)", sp6_generators(), 10**5),
            ("M2(3)", build_monomial_group(2, 3, F4), None),
            ("M2(5)", build_monomial_group(2, 5, F16), None),
            ("M2(7)", build_monomial_group(2, 7, F8), None),
            ("rep(6)", build_symmetric_rep(6), None),
            ("rep(8)", build_symmetric_rep(8), None)]
    stable = []
    for label, T, budget in rows:
        kwargs = {} if budget is None else {"budget_elements": budget}
        cert = certify(T, **kwargs)
        base = classify(T, **kwargs)
        reports = stability_check(T, list(cert.T0), samples=100, seed=7)
        assert len(reports) == 100, label
        for r in reports:
            assert str(r.tag) == str(base.tag), label
            assert r.field_degree == base.field_degree, label
        stable.append(label)
    # grid instances with non-classical tags have no certificate to perturb
    with pytest.raises(UnsupportedTag):
        certify(build_symmetric_rep(5))
    with pytest.raises(UnsupportedTag):
        certify(build_monomial_group(3, 3, F4))
    elapsed = time.perf_counter() - t0
    emit(capsys, 7, True,
         f"100/100 supersets kept tag and field degree on all "
         f"{len(stable)} classically-tagged grid instances; Monomial and "
         f"Symmetric tags are outside certification scope (UnsupportedTag); "
         f"{elapsed:.1f}s")
    assert elapsed < RUNTIME_LIMITS[7]


# -- criterion 8: diameter ground truth ----------------------------------------


def permutation_bfs(m):
    """Independent oracle: BFS over S_m with adjacent transpositions, on
    permutation tuples, no matrices involved."""
    gens = []
    for i in range(m - 1):
        p = list(range(m))
        p[i], p[i + 1] = p[i + 1], p[i]
        gens.append(tuple(p))
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
    hist = [0] * (max(dist.values()) + 1)
    for d in dist.values():
        hist[d] += 1
    return dist, tuple(hist)


def test_criterion_8_diameter_ground_truth(capsys):
    t0 = time.perf_counter()
    ex = bfs_explore([t.matrix() for t in sl_generators(F2)])
    assert ex.diameter == 3

    R6 = build_symmetric_rep(6)
    ex6 = bfs_explore([t.matrix() for t in R6])
    dist, hist = permutation_bfs(6)
    assert ex6.order == len(dist) == 720
    assert ex6.diameter == max(dist.values()) == 15
    assert ex6.histogram == hist

    profiles = []
    for label, T, n in (("SL3(2)", sl3_triangle(F2), 3),
                        ("Sp4(2)", sp4_full(), 4)):
        en = enumerate_group([t.matrix() for t in T])
        tvs = group_transvections(en)
        best, _ = transvection_length_profile(en, tvs)
        assert best <= 4 * n, label
        profiles.append(f"{label}: max transvection length {best} <= {4 * n}")
    elapsed = time.perf_counter() - t0
    emit(capsys, 8, True,
         "SL2(2) pair diameter 3; S6-as-Sp4(2) matches the permutation BFS "
         "oracle exactly (order 720, diameter 15, same histogram); "
         + "; ".join(profiles) + f"; {elapsed:.1f}s")
    assert elapsed < RUNTIME_LIMITS[8]


# -- criterion 9: asymptotic claims are logged, not asserted -------------------


def test_criterion_9_asymptotics_acknowledged(capsys):
    t0 = time.perf_counter()
    # The headline word-length and certification-radius growth rates are
    # asymptotic statements; nothing enumerable here can confirm or refute a
    # growth exponent, so this check only logs observed word lengths at
    # enumerable sizes (the exact desk-scale bounds are criteria 5-8).
    logged = []
    for label, T in (("SL3(2)", sl3_triangle(F2)),
                     ("Sp4(2)", build_symmetric_rep(6)),
                     ("SL2(9)", sl_generators(F9))):
        n = len(T[0].v)
        _, words = densify(T)
        wmax = max(len(w) for w in words)
        assert wmax <= 2 * n - 1
        cert = certify(T)
        cmax = max(len(w) for w in cert.words)
        assert cmax <= 2 * n - 1
        logged.append(f"{label}: densify words <= {wmax}, certificate words "
                      f"<= {cmax} (bound {2 * n - 1})")
    elapsed = time.perf_counter() - t0
    emit(capsys, 9, True,
         "asymptotic word-length bounds are out of reach at enumerable sizes "
         "and are not asserted; desk-scale observations: "
         + "; ".join(logged) + f"; {elapsed:.1f}s")
    assert elapsed < RUNTIME_LIMITS[9]
