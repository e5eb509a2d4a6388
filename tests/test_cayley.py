"""Tests for Cayley-graph exploration: distances, words, balls, profiles."""

from __future__ import annotations

import dataclasses
import random

import pytest

from transvect.cayley import (
    FILL_CODES,
    _code,
    _digits,
    _pack,
    _RowTable,
    _Search,
    bfs_explore,
    bidirectional_distance,
    shortest_word,
    transvection_ball,
    transvection_length_profile,
    word_recover,
)
from transvect.classify import VECTOR_TABLE_BUDGET, build_symmetric_rep, group_order
from transvect.errors import (
    BadParameters,
    CapExceeded,
    DimensionMismatch,
    FieldMismatch,
    InternalError,
    NotExplored,
    NotFound,
    NotTransvection,
    Singular,
)
from transvect.gf import field_create
from transvect.linalg import Mat
from transvect import tgraph
from transvect.tgraph import densify, word_matrix
from transvect.transvections import (
    Transvection,
    standard_full_field_set,
    tv_from_matrix,
)

from oracles import _unpack, enumerate_group, layering_audit

F2 = field_create(2, 1)
F3 = field_create(3, 1)
F4 = field_create(2, 2)
F9 = field_create(3, 2)

SL22_PAIR = [Transvection(F2, (1, 0), (0, 1)), Transvection(F2, (0, 1), (1, 0))]
SL23_PAIR = [Transvection(F3, (1, 0), (0, 1)), Transvection(F3, (0, 1), (1, 0))]
SL32_TRIANGLE = [
    Transvection(F2, (1, 0, 0), (0, 1, 0)),
    Transvection(F2, (0, 1, 0), (0, 0, 1)),
    Transvection(F2, (0, 0, 1), (1, 0, 0)),
]


def mats(T):
    return [t if isinstance(t, Mat) else t.matrix() for t in T]


def group_transvections(gens):
    """All transvections of the group generated by gens."""
    en = enumerate_group(mats(gens))
    out = []
    for M in en.matrices():
        try:
            out.append(tv_from_matrix(M))
        except NotTransvection:
            pass
    return out


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


def permutation_bfs(m):
    """Distances in the Cayley graph of S_m over adjacent transpositions."""
    ident = tuple(range(m))
    dist = {ident: 0}
    frontier = [ident]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for p in frontier:
            for k in range(m - 1):
                q = list(p)
                q[k], q[k + 1] = q[k + 1], q[k]
                q = tuple(q)
                if q not in dist:
                    dist[q] = d
                    nxt.append(q)
        frontier = nxt
    return dist


def inversions(perm):
    return sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
               if perm[i] > perm[j])


def reference_bfs(X):
    """Distances from the identity over X and the inverses, by plain BFS
    over hashable matrices: the oracle for the packed search."""
    steps = list(X) + [M.inv() for M in X]
    dist = {Mat.identity(X[0].F, X[0].nrows): 0}
    frontier = list(dist)
    while frontier:
        nxt = []
        for M in frontier:
            for S in steps:
                P = M.mul(S)
                if P not in dist:
                    dist[P] = dist[M] + 1
                    nxt.append(P)
        frontier = nxt
    return dist


def assert_matches_reference(X):
    ex = bfs_explore(X)
    ref = reference_bfs(X)
    assert ex.order == len(ref)
    assert all(ex.distance(M) == d for M, d in ref.items())
    hist = [0] * (max(ref.values()) + 1)
    for d in ref.values():
        hist[d] += 1
    assert ex.histogram == tuple(hist)
    assert ex.diameter == len(hist) - 1


# -- bfs_explore --------------------------------------------------------------


def test_sl22_pair_diameter():
    ex = bfs_explore(mats(SL22_PAIR))
    assert ex.order == 6
    assert ex.diameter == 3
    assert sum(ex.histogram) == 6


def test_all_elements_diameter_one():
    en = enumerate_group(mats(SL22_PAIR))
    X = [M for M in en.matrices() if M != Mat.identity(M.F, M.nrows)]
    ex = bfs_explore(X)
    assert ex.diameter == 1
    assert ex.histogram == (1, 5)


def test_sp42_diameter_matches_permutation_oracle():
    T = build_symmetric_rep(6)
    ex = bfs_explore(mats(T))
    oracle = permutation_bfs(6)
    assert ex.order == 720 == len(oracle)
    assert ex.diameter == max(oracle.values()) == 15
    # per-distance counts and per-element distances match through the
    # faithful representation; the distance is the inversion count
    hist = [0] * (ex.diameter + 1)
    for perm, d in oracle.items():
        hist[d] += 1
        assert d == inversions(perm)
        assert ex.distance(perm_rep_matrix(6, perm)) == d
    assert ex.histogram == tuple(hist)


def test_bfs_deterministic():
    a = bfs_explore(mats(SL23_PAIR))
    b = bfs_explore(mats(SL23_PAIR))
    assert dict(a.dist) == dict(b.dist)
    assert a.histogram == b.histogram
    assert a.to_json() == b.to_json()


def test_bfs_layering_and_symmetry():
    ex = bfs_explore(mats(SL23_PAIR))
    assert layering_audit(ex)
    rng = random.Random(0)
    keys = sorted(ex.dist)
    assert layering_audit(ex, rng.sample(keys, max(1, len(keys) // 100)))
    en = enumerate_group(mats(SL23_PAIR))
    for M in en.matrices():
        assert ex.distance(M) == ex.distance(M.inv())


def test_bfs_triangle_inequality():
    ex = bfs_explore(mats(SL23_PAIR))
    en = enumerate_group(mats(SL23_PAIR))
    all_mats = list(en.matrices())
    rng = random.Random(1)
    for _ in range(200):
        g, h = rng.choice(all_mats), rng.choice(all_mats)
        assert ex.distance(g.mul(h)) <= ex.distance(g) + ex.distance(h)


@pytest.mark.parametrize("gens", [
    SL22_PAIR, SL23_PAIR, SL32_TRIANGLE, build_symmetric_rep(6),
    group_transvections(build_symmetric_rep(6)),
], ids=["sl2-2", "sl2-3", "sl3-2", "rep6", "sp4-2-all"])
def test_bfs_matches_reference(gens):
    assert_matches_reference(mats(gens))


def test_bfs_large_field():
    # q^n = 2^20 row codes, past the enumeration's vector budget
    F = field_create(2, 10)
    a = 0b1011001110
    X = mats([Transvection(F, (1, 0), (0, 1)), Transvection(F, (0, 1), (1, 0)),
              Transvection(F, (1, 0), (0, a)), Transvection(F, (0, 1), (F.inv(a), 0))])
    assert F.q ** 2 > VECTOR_TABLE_BUDGET
    assert_matches_reference(X[:2])
    assert_matches_reference(X[2:])
    assert bfs_explore(X[2:]).order == 6


def test_bfs_cap_reports_radius():
    with pytest.raises(CapExceeded) as ei:
        bfs_explore(mats(build_symmetric_rep(6)), cap=10)
    assert ei.value.radius is not None and ei.value.radius >= 0


def test_bfs_generator_validation():
    with pytest.raises(BadParameters):
        bfs_explore([])
    with pytest.raises(Singular):
        bfs_explore([Mat.zero(F2, 2, 2)])
    # the check of the generators inverts each one, and the searches and
    # the chain take those inverses
    for call in (bfs_explore, group_order):
        with pytest.raises(Singular, match="generators must be invertible"):
            call([Mat.identity(F3, 2), Mat(F3, [[1, 2], [2, 1]])])
    with pytest.raises(FieldMismatch):
        bfs_explore([Mat.identity(F2, 2), Mat.identity(F3, 2)])
    with pytest.raises(DimensionMismatch):
        bfs_explore([Mat.identity(F2, 2), Mat.identity(F2, 3)])


def test_each_generator_is_eliminated_once(monkeypatch):
    # the inverse found by the check of the generators is the one the
    # step list and the chain use; no determinant is taken
    counts = {"inv": 0}
    inv = Mat.inv

    def counting_inv(M):
        counts["inv"] += 1
        return inv(M)

    def no_det(M):
        raise AssertionError("det called")

    monkeypatch.setattr(Mat, "inv", counting_inv)
    monkeypatch.setattr(Mat, "det", no_det)
    X = mats(SL23_PAIR)
    for call in (bfs_explore, group_order,
                 lambda X: bidirectional_distance(X, X[0].mul(X[1]))):
        counts["inv"] = 0
        call(X)
        assert counts["inv"] == len(X)


def test_distance_unexplored_raises():
    ex = bfs_explore(mats(SL23_PAIR))
    outside = Mat(F3, ((2, 0), (0, 1)))  # det 2, so not in SL2(3)
    assert outside not in ex
    with pytest.raises(NotExplored):
        ex.distance(outside)


# -- word recovery ------------------------------------------------------------


def test_word_recover_trivial_cases():
    X = mats(SL23_PAIR)
    ex = bfs_explore(X)
    assert word_recover(ex, Mat.identity(F3, 2)) == ()
    assert word_recover(ex, X[0]) == ((0, 1),)
    assert word_recover(ex, X[1]) == ((1, 1),)


def test_word_recover_replay():
    X = mats(SL32_TRIANGLE)
    ex = bfs_explore(X)
    en = enumerate_group(X)
    all_mats = list(en.matrices())
    rng = random.Random(2)
    for _ in range(25):
        g = rng.choice(all_mats)
        w = word_recover(ex, g)
        assert len(w) == ex.distance(g)
        assert word_matrix(SL32_TRIANGLE, w).rows == g.rows


def test_word_recover_golden_words():
    # pinned shortest words: the search order (frontier, then step) fixes them
    ex = bfs_explore(mats(build_symmetric_rep(7)))
    reversal = perm_rep_matrix(7, tuple(reversed(range(7))))
    assert word_recover(ex, reversal) == tuple(
        (i, 1) for k in range(6) for i in range(k, -1, -1))
    assert word_recover(ex, perm_rep_matrix(7, (1, 0, 3, 2, 6, 5, 4))) == (
        (0, 1), (2, 1), (4, 1), (5, 1), (4, 1))
    ex = bfs_explore(mats(SL32_TRIANGLE))
    golden = {
        ((0, 1, 0), (0, 0, 1), (1, 0, 0)):
            ((0, 1), (1, 1), (2, 1), (0, 1), (1, 1), (2, 1), (0, 1)),
        ((1, 1, 1), (0, 1, 1), (0, 0, 1)): ((0, 1), (1, 1)),
        ((0, 0, 1), (0, 1, 0), (1, 0, 0)):
            ((2, 1), (0, 1), (1, 1), (0, 1), (1, 1), (2, 1)),
        ((1, 0, 1), (1, 1, 0), (1, 1, 1)):
            ((1, 1), (0, 1), (2, 1), (1, 1), (0, 1), (2, 1), (0, 1), (2, 1)),
    }
    for rows, w in golden.items():
        assert word_recover(ex, Mat(F2, rows)) == w
    ex = bfs_explore(mats(SL23_PAIR))
    golden = {
        ((0, 1), (2, 0)): ((0, 1), (1, -1), (0, 1)),
        ((2, 0), (0, 2)): ((0, 1), (1, 1), (0, 1), (1, 1)),
        ((1, 2), (1, 0)): ((1, 1), (0, -1)),
    }
    for rows, w in golden.items():
        assert word_recover(ex, Mat(F3, rows)) == w


@pytest.mark.parametrize("gens", [SL23_PAIR, SL32_TRIANGLE, build_symmetric_rep(6)],
                         ids=["sl2-3", "sl3-2", "rep6"])
def test_shortest_word_is_the_explored_word(gens):
    # the search stops after the target's layer, and parents are set at
    # first discovery, so the word is the one of the full exploration
    X = mats(gens)
    ex = bfs_explore(X)
    for key in ex.dist:
        M = _unpack(ex.F, ex.n, key)
        assert shortest_word(X, M) == word_recover(ex, M)


def test_shortest_word_stops_at_the_target_layer():
    X = mats(build_symmetric_rep(6))
    ex = bfs_explore(X)
    g = perm_rep_matrix(6, (1, 0, 2, 3, 4, 5))
    ball = sum(ex.histogram[:ex.distance(g) + 1])
    assert ball < ex.order
    assert shortest_word(X, g, cap=ball) == word_recover(ex, g)
    with pytest.raises(CapExceeded):
        shortest_word(X, g, cap=ball - 1)
    with pytest.raises(DimensionMismatch):
        shortest_word(X, Mat.identity(F2, 3))
    with pytest.raises(NotExplored):
        shortest_word(mats(SL23_PAIR), Mat(F3, ((2, 0), (0, 1))))


def test_word_recover_unexplored():
    ex = bfs_explore(mats(SL23_PAIR))
    with pytest.raises(NotExplored):
        word_recover(ex, Mat(F3, ((2, 0), (0, 1))))


# -- bidirectional single-element queries --------------------------------------


def test_bidirectional_matches_bfs():
    X = mats(SL23_PAIR)
    ex = bfs_explore(X)
    en = enumerate_group(X)
    for M in en.matrices():
        assert bidirectional_distance(X, M) == ex.distance(M)


def test_bidirectional_sp42_spot():
    X = mats(build_symmetric_rep(6))
    ex = bfs_explore(X)
    en = enumerate_group(X)
    all_mats = list(en.matrices())
    rng = random.Random(3)
    for _ in range(10):
        g = rng.choice(all_mats)
        assert bidirectional_distance(X, g) == ex.distance(g)


def test_bidirectional_not_found():
    with pytest.raises(NotFound):
        bidirectional_distance(mats(SL23_PAIR), Mat(F3, ((2, 0), (0, 1))))
    with pytest.raises(DimensionMismatch):
        bidirectional_distance(mats(SL23_PAIR), Mat.identity(F3, 3))


# -- transvection balls --------------------------------------------------------


def test_ball_radius_one_is_symmetrized_set():
    ball = transvection_ball(SL23_PAIR, 1)
    expected = set(SL23_PAIR) | {t.inverse() for t in SL23_PAIR}
    assert set(ball) == expected
    assert all(len(w) == 1 for w in ball.values())


def test_ball_sl22_reaches_all_transvections():
    ball = transvection_ball(SL22_PAIR, 3)
    assert set(ball) == set(group_transvections(SL22_PAIR))
    assert len(ball) == 3


def test_ball_monotone_and_fixed_point():
    prev: set = set()
    for r in range(6):
        cur = set(transvection_ball(SL23_PAIR, r))
        assert prev <= cur
        prev = cur
    full = set(group_transvections(SL23_PAIR))
    assert len(full) == 8
    assert set(transvection_ball(SL23_PAIR, 24)) == full
    assert set(transvection_ball(SL23_PAIR, 25)) == full


def test_ball_words_replay_and_minimal():
    X = mats(SL23_PAIR)
    ex = bfs_explore(X)
    ball = transvection_ball(SL23_PAIR, 10)
    for t, w in ball.items():
        assert word_matrix(SL23_PAIR, w).rows == t.matrix().rows
        assert len(w) == ex.distance(t.matrix())


def test_ball_golden_words():
    got = [(t.v, t.phi, w) for t, w in transvection_ball(SL23_PAIR, 10).items()]
    assert got == [
        ((1, 0), (0, 1), ((0, 1),)),
        ((0, 1), (1, 0), ((1, 1),)),
        ((1, 0), (0, 2), ((0, -1),)),
        ((0, 1), (2, 0), ((1, -1),)),
        ((1, 1), (1, 2), ((0, 1), (1, 1), (0, -1))),
        ((1, 1), (2, 1), ((0, 1), (1, -1), (0, -1))),
        ((1, 2), (2, 2), ((0, -1), (1, 1), (0, 1))),
        ((1, 2), (1, 1), ((0, -1), (1, -1), (0, 1))),
    ]


def test_ball_contains_densify_output(monkeypatch):
    T = build_symmetric_rep(6)
    n = T[0].n
    monkeypatch.setattr(tgraph, "PROJECTIVE_BUDGET", 10**5)
    dense, _ = densify(T)
    ball = transvection_ball(T, 2 * n - 1)
    assert set(dense) <= set(ball)


def test_ball_cap_and_parameters():
    with pytest.raises(BadParameters):
        transvection_ball(SL23_PAIR, -1)
    with pytest.raises(CapExceeded):
        transvection_ball(build_symmetric_rep(6), 15, cap=10)


# -- transvection length profiles ----------------------------------------------


def test_profile_sl22():
    T = group_transvections(SL22_PAIR)
    en = enumerate_group(mats(SL22_PAIR))
    best, hist = transvection_length_profile(en, T)
    assert best == 2
    assert sum(hist) == 6
    assert transvection_length_profile(bfs_explore(mats(SL22_PAIR)), T) == (best, hist)


def test_profile_sl32():
    T = group_transvections(SL32_TRIANGLE)
    assert len(T) == 21
    en = enumerate_group(mats(SL32_TRIANGLE))
    best, hist = transvection_length_profile(en.matrices(), T)
    assert sum(hist) == 168
    assert best <= 4
    ex = bfs_explore(mats(SL32_TRIANGLE))
    assert transvection_length_profile(ex, T) == (best, hist)
    assert transvection_length_profile(en, T) == (best, hist)


def test_profile_sp42():
    gens = build_symmetric_rep(6)
    T = group_transvections(gens)
    assert len(T) == 15
    en = enumerate_group(mats(gens))
    n = gens[0].n
    best, hist = transvection_length_profile(en, T)
    assert sum(hist) == 720
    assert best <= 4 * n
    assert transvection_length_profile(bfs_explore(mats(gens)), T) == (best, hist)


def test_profile_rejects_non_generating():
    en = enumerate_group(mats(SL23_PAIR))
    ex = bfs_explore(mats(SL23_PAIR))
    for G in (en, ex, en.matrices()):
        with pytest.raises(BadParameters, match="do not generate"):
            transvection_length_profile(G, [SL23_PAIR[0]])


def e(n, i, c=1):
    return tuple(c if j == i else 0 for j in range(n))


def corner_sl2(F, n):
    """SL2(q) on the coordinates 0 and n - 1 of F^n, so row n - 1 takes
    every code of its last digit."""
    lam = F.primitive_element()
    return [Transvection(F, e(n, 0), e(n, n - 1, lam)),
            Transvection(F, e(n, n - 1), e(n, 0))]


# GF(3) with a pseudo-reflection: rank-one displacements with phi(v) != 0
# are not transvections
GL23_REFLECTION = [SL23_PAIR[0].matrix(), Mat(F3, [[2, 0], [0, 1]])]


@pytest.mark.parametrize("gens", [
    SL22_PAIR, SL23_PAIR, SL32_TRIANGLE, build_symmetric_rep(6),
    standard_full_field_set("SL", F4, 2), standard_full_field_set("SU3", F4, 3),
    standard_full_field_set("SL", F9, 2), corner_sl2(F9, 3), GL23_REFLECTION,
])
def test_exploration_transvections_match_enumeration(gens):
    # the row-code reading against `tv_from_matrix` on every element; key
    # order is the order the enumeration lists its elements in
    assert bfs_explore(mats(gens)).transvections() == group_transvections(gens)


# -- search keys --------------------------------------------------------------


def key_codes(key):
    """The row codes of a key, last row first: its bytes, or the code points
    of its characters."""
    return list(key) if isinstance(key, bytes) else [ord(c) for c in key]


def int_key(M):
    """The integer packing sum(r_i D^i), D = q^n, over the row codes r_i."""
    q, n = M.F.q, M.nrows
    return sum(_code(q, r) * (q**n)**i for i, r in enumerate(M.rows))


KEY_GROUPS = {
    "gf2^3": SL32_TRIANGLE,
    "gf3^3": [Transvection(F3, e(3, i), e(3, (i + 1) % 3)) for i in range(3)],
    "gf4^4": corner_sl2(F4, 4),  # q^n = 256, the last latin-1 code
    "gf17^2": corner_sl2(field_create(17, 1), 2),  # 289, past latin-1
    "gf9^3": corner_sl2(F9, 3),
}


@pytest.mark.parametrize("name", sorted(KEY_GROUPS))
def test_string_keys_round_trip_and_sort_as_integer_keys(name):
    X = mats(KEY_GROUPS[name])
    F, n = X[0].F, X[0].nrows
    ex = bfs_explore(X)
    keys = sorted(ex.dist)
    decoded = [_unpack(F, n, k) for k in keys]
    assert [_pack(M) for M in decoded] == keys
    assert decoded == sorted(decoded, key=int_key)
    assert len(set(map(int_key, decoded))) == ex.order
    # some row takes the top digit in its last coordinate, so the keys use
    # the widest code that q^n allows
    assert max(c for k in ex.dist for c in key_codes(k)) >= (F.q - 1) * F.q**(n - 1)


@pytest.mark.parametrize("name", sorted(KEY_GROUPS))
def test_keys_are_bytes_exactly_when_every_row_code_fits_a_byte(name):
    X = mats(KEY_GROUPS[name])
    F, n = X[0].F, X[0].nrows
    ex = bfs_explore(X)
    kinds = {type(k) for k in ex.dist} | {type(k) for k in enumerate_group(X).codes}
    assert kinds == ({bytes} if F.q**n <= 256 else {str})
    assert all(len(k) == n for k in ex.dist)


@pytest.mark.parametrize("gens", [SL23_PAIR, KEY_GROUPS["gf17^2"]],
                         ids=["bytes", "str"])
def test_bfs_without_words_keeps_no_parents(gens):
    X = mats(gens)
    full = bfs_explore(X)
    bare = bfs_explore(X, words=False)
    assert bare.parents is None
    assert list(bare.dist.items()) == list(full.dist.items())
    assert bare.to_json() == full.to_json()
    with pytest.raises(BadParameters, match="kept no words"):
        word_recover(bare, X[0])
    with pytest.raises(BadParameters, match="kept no words"):
        layering_audit(bare)


def test_string_keys_with_lone_surrogates():
    # row 0 of t is 1 + 2^11 + 2^12 + 2^14 + 2^15 = 0xD801, a code point
    # that is a lone surrogate as a character
    n = 16
    psi = tuple(1 if j in (11, 12, 14, 15) else 0 for j in range(n))
    X = mats([Transvection(F2, e(n, 0), psi), Transvection(F2, e(n, 15), e(n, 0)),
              Transvection(F2, e(n, 11), e(n, 15))])
    assert _pack(X[0])[-1] == "\ud801"
    ex = bfs_explore(X)
    assert_matches_reference(X)
    decoded = [_unpack(F2, n, k) for k in sorted(ex.dist)]
    assert decoded == sorted(decoded, key=int_key)
    assert ex.transvections() == group_transvections(X)


# -- recorded words -----------------------------------------------------------


def reference_words(X):
    """A shortest word of every element of <X> by plain BFS over hashable
    matrices that records (step index, parent) at first discovery, over X
    then the inverses that are new matrices, in frontier order then step
    order: the words a search records."""
    steps = [(M, i, 1) for i, M in enumerate(X)]
    for i, M in enumerate(X):
        Minv = M.inv()
        if all(Minv != S for S, _, _ in steps):
            steps.append((Minv, i, -1))
    ident = Mat.identity(X[0].F, X[0].nrows)
    parents = {ident: None}
    frontier = [ident]
    while frontier:
        nxt = []
        for M in frontier:
            for si, (S, _, _) in enumerate(steps):
                P = M.mul(S)
                if P not in parents:
                    parents[P] = (si, M)
                    nxt.append(P)
        frontier = nxt
    words = {ident: ()}
    for M in parents:  # parents come before their children
        if M != ident:
            si, P = parents[M]
            _, i, e = steps[si]
            words[M] = words[P] + ((i, e),)
    return words


WORD_GROUPS = {
    "sl3-3": KEY_GROUPS["gf3^3"],  # q^n = 27, byte keys
    "sp4-2": build_symmetric_rep(6),  # q^n = 16, byte keys
    "gf17^2": KEY_GROUPS["gf17^2"],  # q^n = 289, string keys
}


@pytest.mark.parametrize("name", sorted(WORD_GROUPS))
def test_recorded_words_match_the_reference(name):
    # a parent is stored as its key and the step is recovered as the first
    # one reaching the key from it, which is the step that reached it first
    T = WORD_GROUPS[name]
    X = mats(T)
    ref = reference_words(X)
    ex = bfs_explore(X)
    assert ex.order == len(ref)
    assert all(word_recover(ex, M) == w for M, w in ref.items())
    # each `shortest_word` is its own search, about 4 ms in the larger two
    # groups, so those check the last element of every layer and a sample
    sample = list(ref)
    if len(ref) > 1000:
        ends = [k for k, nk in zip(sample, sample[1:]) if len(ref[k]) < len(ref[nk])]
        sample = ends + sample[-1:] + random.Random(name).sample(sample, 100)
    assert all(shortest_word(X, M) == ref[M] for M in sample)
    assert layering_audit(ex)
    for r in range(ex.diameter + 1):
        ball = transvection_ball(T, r)
        assert ball == {t: ref[t.matrix()] for t in ball}
        assert all(len(w) <= r for w in ball.values())


def test_a_parent_that_is_no_neighbour_is_an_internal_error():
    ex = bfs_explore(mats(SL23_PAIR))
    ident, *_, far = ex.dist
    assert ex.dist[far] > 1
    forged = dataclasses.replace(ex, parents={**ex.parents, far: ident})
    with pytest.raises(InternalError, match="not a neighbour"):
        word_recover(forged, _unpack(ex.F, ex.n, far))


# a set whose row codes run past sys.maxunicode: 21 x 21 over GF(2)
WIDE_T = Transvection(F2, e(21, 0), e(21, 20))


@pytest.mark.parametrize("call", [
    lambda: bfs_explore([Mat.identity(F2, 21), WIDE_T.matrix()]),
    lambda: bidirectional_distance([WIDE_T.matrix()], Mat.identity(F2, 21)),
    lambda: transvection_ball([WIDE_T], 1),
    lambda: shortest_word([WIDE_T.matrix()], WIDE_T.matrix()),
], ids=["bfs_explore", "bidirectional_distance", "transvection_ball",
        "shortest_word"])
def test_row_codes_past_the_key_alphabet_are_a_budget(call):
    with pytest.raises(CapExceeded, match="q\\^n = 2097152 "):
        call()


# -- row tables ---------------------------------------------------------------


def random_matrix(F, n, rng):
    return Mat(F, [[rng.randrange(F.q) for _ in range(n)] for _ in range(n)])


def vecmat_code(S, code):
    q, n = S.F.q, S.nrows
    return _code(q, S.vecmat(_digits(q, n, code)))


def row_table(S):
    return _RowTable(S.F, tuple(_code(S.F.q, r) for r in S.rows))


def fmul_bit_images(S):
    """The bit images of S in characteristic 2 by field multiplication:
    bit f k + b stands for x^b in coordinate k."""
    F = S.F
    return [_code(F.q, [F.mul(1 << b, x) for x in row])
            for row in S.rows for b in range(F.f)]


def xor_code(images, code):
    out = 0
    for i in range(code.bit_length()):
        if code >> i & 1:
            out ^= images[i]
    return out


@pytest.mark.parametrize("f,n", [(1, 6), (2, 3), (3, 2), (4, 2)])
def test_row_table_xor_fill_matches_vecmat_on_every_code(f, n):
    # in characteristic 2 a miss is the XOR of the bit images of the code,
    # which are built by shifting every lane at once (SWAR xtime)
    F = field_create(2, f)
    rng = random.Random(10 * f + n)
    for S in [Mat.identity(F, n), random_matrix(F, n, rng), random_matrix(F, n, rng)]:
        tbl = row_table(S)
        images = fmul_bit_images(S)
        for code in range(F.q**n):
            assert tbl[code] == vecmat_code(S, code) == xor_code(images, code)
        assert tbl.images == images


def test_row_table_xor_fill_matches_vecmat_on_sampled_codes():
    F = field_create(2, 10)
    rng = random.Random(10)
    S = random_matrix(F, 2, rng)
    tbl = row_table(S)
    images = fmul_bit_images(S)
    for _ in range(2000):
        code = rng.randrange(F.q**2)
        assert tbl[code] == vecmat_code(S, code) == xor_code(images, code)
    assert tbl.images == images


def test_row_table_odd_characteristic_uses_vecmat():
    F = field_create(3, 2)
    S = random_matrix(F, 2, random.Random(9))
    tbl = row_table(S)
    for code in range(F.q**2):
        assert tbl[code] == vecmat_code(S, code)


@pytest.mark.parametrize("p,f,n", [(3, 1, 4), (5, 1, 3), (3, 2, 2), (5, 2, 2)])
def test_row_table_odd_fill_matches_vecmat_on_every_code(p, f, n):
    # a miss adds wide-lane images of its digits and reduces each lane mod p
    F = field_create(p, f)
    rng = random.Random(100 * p + 10 * f + n)
    for S in [Mat.identity(F, n), random_matrix(F, n, rng), random_matrix(F, n, rng)]:
        tbl = row_table(S)
        for code in range(F.q**n):
            assert tbl[code] == vecmat_code(S, code)


def test_row_table_odd_fill_matches_vecmat_on_sampled_codes():
    F = field_create(7, 3)
    rng = random.Random(73)
    for S in [random_matrix(F, 3, rng), random_matrix(F, 3, rng)]:
        tbl = row_table(S)
        for code in [F.q**3 - 1] + [rng.randrange(F.q**3) for _ in range(500)]:
            assert tbl[code] == vecmat_code(S, code)


def fill_case(p, f, n, ncols, rng):
    """A random n-row matrix over GF(p^f), n x n or, for a pairing table,
    n x 1, and its `_RowTable`."""
    F = field_create(p, f)
    S = Mat(F, [[rng.randrange(F.q) for _ in range(ncols or n)] for _ in range(n)])
    return S, _RowTable(F, tuple(_code(F.q, r) for r in S.rows), ncols)


@pytest.mark.parametrize("p,f,n,ncols", [
    (2, 1, 8, None), (2, 1, 11, None), (2, 2, 4, None), (2, 4, 3, None),
    (3, 1, 5, None), (5, 1, 4, None), (3, 2, 3, None), (7, 1, 3, None),
    (2, 1, 9, 1), (2, 2, 4, 1), (3, 1, 6, 1), (3, 2, 3, 1),
], ids=lambda x: str(x))
def test_row_table_fills_every_code_at_its_threshold(p, f, n, ncols):
    # past max(D // 8, 32) misses a table over D <= 2^16 codes stores all D
    # images, built by the recurrence over the coordinates
    rng = random.Random(1000 * p + 100 * f + 10 * n + (ncols or 0))
    S, tbl = fill_case(p, f, n, ncols, rng)
    D = S.F.q**n
    fill_at = max(D // 8, 32)
    assert fill_at < D <= FILL_CODES
    codes = list(range(D))
    rng.shuffle(codes)
    for k, code in enumerate(codes[:fill_at - 1], 1):
        assert tbl[code] == vecmat_code(S, code)
        assert len(tbl) == k  # one memoized code per miss, nothing filled
    tbl[codes[fill_at - 1]]
    assert len(tbl) == D
    want = [vecmat_code(S, code) for code in range(D)]
    assert [dict.__getitem__(tbl, code) for code in range(D)] == want
    assert [tbl.image(code) for code in range(D)] == want
    assert tbl.all_images() == want


def test_row_table_over_more_codes_than_the_fill_limit_stays_a_memo():
    S, tbl = fill_case(2, 1, 17, None, random.Random(17))
    assert 2**17 > FILL_CODES
    for code in range(2**17 // 8 + 1):
        tbl[code]
    assert len(tbl) == 2**17 // 8 + 1


@pytest.mark.parametrize("p,f,n", [(2, 1, 8), (2, 2, 3), (3, 1, 5), (5, 1, 3), (3, 2, 2)])
def test_search_byte_tables_come_from_the_recurrence(p, f, n):
    S, _ = fill_case(p, f, n, None, random.Random(7 * p + f + n))
    D = S.F.q**n
    (table,) = _Search(S.F, n, [S]).tables
    assert table == bytes([vecmat_code(S, code) for code in range(D)] + list(range(D, 256)))


# -- entries outside the field -------------------------------------------------

ROGUE_GF2 = Mat(F2, [[1, 5], [0, 1]])
LOWER_GF2 = Mat(F2, [[1, 0], [1, 1]])
NEG_GF3 = [Mat(F3, [[1, -1], [0, 1]]), Mat(F3, [[1, 0], [1, 1]])]


@pytest.mark.parametrize("call", [
    lambda: bfs_explore([ROGUE_GF2, LOWER_GF2]),
    lambda: group_order([Mat(F3, [[1, 4], [0, 1]]), Mat(F3, [[1, 0], [1, 1]])]),
    lambda: group_order(NEG_GF3),
    lambda: enumerate_group(NEG_GF3),
    lambda: bidirectional_distance(mats(SL22_PAIR), Mat(F2, [[1, 3], [0, 1]])),
    lambda: shortest_word(mats(SL22_PAIR), Mat(F2, [[1, 3], [0, 1]])),
], ids=["bfs_explore", "group_order-4", "group_order-neg", "enumerate_group-neg",
        "bidirectional_distance", "shortest_word"])
def test_entries_outside_the_field_are_rejected(call):
    # `Mat` does not check its entries, and a search that indexes tables by
    # entry fails deep inside or returns a wrong order (7 for SL2(3)
    # written with -1) when handed one outside the field
    with pytest.raises(FieldMismatch, match="is not an element of"):
        call()


@pytest.mark.parametrize("M", [
    Mat(F3, [[1, 1], [0, 1]]),
    Mat(F2, [[1, 1, 0], [0, 1, 0], [0, 0, 1]]),
    Mat(F2, [[1, 2], [0, 1]]),
], ids=["wrong-field", "wrong-shape", "outside-the-field"])
def test_enumeration_does_not_encode_foreign_matrices(M):
    # unchecked, [[1, 2], [0, 1]] over GF(2) packs to the key of
    # [[1, 1], [0, 1]], which is in SL2(2)
    en = enumerate_group(mats(SL22_PAIR))
    assert en.encode(M) is None
    assert M not in en
    assert Mat(F2, [[1, 1], [0, 1]]) in en


def test_exploration_does_not_encode_entries_outside_the_field():
    ex = bfs_explore(mats(SL22_PAIR))
    rogue = Mat(F2, [[1, 2], [0, 1]])
    assert ex.encode(rogue) is None
    assert rogue not in ex
    with pytest.raises(FieldMismatch, match="is not an element of"):
        ex.distance(rogue)
    with pytest.raises(FieldMismatch, match="is not an element of"):
        word_recover(ex, rogue)
    # -1 written as 2 gives the true order of SL2(3)
    assert group_order([Mat(F3, [[1, 2], [0, 1]]), NEG_GF3[1]]) == 24


@pytest.mark.parametrize("M", [
    Mat(F3, [[1, 1], [0, 1]]),
    Mat.identity(F2, 2),
    Mat(F2, [[1, 1, 0], [0, 1, 0]]),
], ids=["wrong-field", "wrong-size", "not-square"])
def test_a_foreign_matrix_is_a_dimension_mismatch_not_an_unexplored_element(M):
    # as on the `decompose --target` route through `shortest_word`, a 2 x 2
    # element for a 3 x 3 set is an input error, not an element the search
    # failed to reach
    X = mats(SL32_TRIANGLE)
    ex = bfs_explore(X)
    assert M not in ex
    with pytest.raises(DimensionMismatch):
        ex.distance(M)
    with pytest.raises(DimensionMismatch):
        word_recover(ex, M)
    with pytest.raises(DimensionMismatch):
        shortest_word(X, M)


def test_words_are_read_through_the_exploration_s_own_search(monkeypatch):
    # an exploration builds one search, and every word recovered from it is
    # read back through that search's step tables
    from transvect import cayley

    builds = []
    init = cayley._Search.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cayley._Search, "__init__", counting_init)
    ex = bfs_explore(mats(KEY_GROUPS["gf3^3"]))
    elements = [_unpack(ex.F, ex.n, k) for k in ex.dist]
    assert len(elements) == 5616
    assert all(len(word_recover(ex, M)) == ex.distance(M) for M in elements)
    assert len(builds) == 1
