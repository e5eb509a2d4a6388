"""Tests for the transvection type and the standard small generating sets."""

from __future__ import annotations

import random

import pytest

from transvect.errors import (
    BadParameters,
    FieldMismatch,
    NotIsotropic,
    NotTransvection,
    UnsupportedKind,
    ZeroVector,
)
from transvect.gf import field_create
from transvect.linalg import Mat, dot, outer
from transvect.transvections import Transvection, standard_full_field_set, tv_from_matrix


def cycle_weight(ts):
    """Product phi_1(v_2) phi_2(v_3) ... phi_k(v_1)."""
    F = ts[0].F
    w = 1
    for i, t in enumerate(ts):
        s = ts[(i + 1) % len(ts)]
        w = F.mul(w, dot(F, t.phi, s.v))
    return w


def cycle_weight_trace_oracle(ts):
    """Independent route: tr((t1 - 1)(t2 - 1)...(tk - 1))."""
    F = ts[0].F
    n = ts[0].n
    one = Mat.identity(F, n)
    prod = one
    for t in ts:
        prod = prod.mul(t.matrix().sub(one))
    return prod.trace()


def random_transvection(rng, F, n):
    while True:
        v = tuple(rng.randrange(F.q) for _ in range(n))
        if all(a == 0 for a in v):
            continue
        # sample phi in the annihilator of v: pick coords freely except at a
        # pivot of v, then solve that coordinate
        i = next(k for k, a in enumerate(v) if a)
        phi = [rng.randrange(F.q) for _ in range(n)]
        phi[i] = 0
        s = dot(F, tuple(phi), v)
        phi[i] = F.neg(F.div(s, v[i]))
        if any(phi):
            return Transvection(F, v, tuple(phi))


def test_canonical_scaling():
    F = field_create(3)
    t1 = Transvection(F, (2, 1, 0), (1, 1, 0))
    t2 = Transvection(F, (1, 2, 0), (2, 2, 0))  # same map, scaled by 2
    assert t1 == t2
    assert t1.v[next(i for i, a in enumerate(t1.v) if a)] == 1
    assert t1.matrix() == t2.matrix()
    assert hash(t1) == hash(t2)


def test_matrix_and_apply_agree():
    rng = random.Random(11)
    for q, n in [(2, 3), (3, 2), (4, 3), (5, 4), (9, 3)]:
        p = 2 if q in (2, 4) else (3 if q in (3, 9) else 5)
        f = {2: 1, 3: 1, 4: 2, 5: 1, 9: 2}[q]
        F = field_create(p, f)
        for _ in range(20):
            t = random_transvection(rng, F, n)
            M = t.matrix()
            assert M.det() == 1
            assert M.sub(Mat.identity(F, n)).rank() == 1
            u = tuple(rng.randrange(F.q) for _ in range(n))
            assert t.apply(u) == M.matvec(u)
            psi = tuple(rng.randrange(F.q) for _ in range(n))
            assert t.coapply(psi) == M.vecmat(psi)


def test_inverse_and_conjugate():
    rng = random.Random(12)
    F = field_create(3, 2)
    n = 3
    for _ in range(20):
        t = random_transvection(rng, F, n)
        ti = t.inverse()
        assert t.matrix().mul(ti.matrix()) == Mat.identity(F, n)
        # random invertible g
        while True:
            g = Mat(F, tuple(tuple(rng.randrange(F.q) for _ in range(n)) for _ in range(n)))
            try:
                gi = g.inv()
                break
            except Exception:
                continue
        c = t.conjugate(g)
        assert c.matrix() == g.mul(t.matrix()).mul(gi)


@pytest.mark.parametrize("p,f", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (2, 4)])
def test_conjugation_on_v_phi_matches_the_matrix_product(p, f):
    # g t g^-1 = 1 + (g v)(phi o g^-1), read against tv_from_matrix(S M_t S^-1)
    # for an invertible S and for S = s_1 ... s_k, a word of transvections
    F = field_create(p, f)
    rng = random.Random(100 * p + f)
    for n in range(2, 6):
        for _ in range(6):
            t = random_transvection(rng, F, n)
            while True:
                S = Mat(F, [[rng.randrange(F.q) for _ in range(n)] for _ in range(n)])
                if S.det():
                    break
            Si = S.inv()
            assert t.conjugate(S) == tv_from_matrix(S.mul(t.matrix()).mul(Si))
            assert t.conjugate(S, Si) == t.conjugate(S)
            letters = [random_transvection(rng, F, n) for _ in range(rng.randint(0, 4))]
            W = Mat.identity(F, n)
            for s in letters:
                W = W.mul(s.matrix())
            expected = tv_from_matrix(W.mul(t.matrix()).mul(W.inv()))
            assert t.conjugate_by(letters) == expected == t.conjugate(W)
            assert t.conjugate_by(letters).matrix() == expected.matrix()


def test_from_matrix_roundtrip():
    rng = random.Random(13)
    for (p, f, n) in [(2, 1, 4), (2, 2, 3), (3, 1, 3), (5, 1, 2)]:
        F = field_create(p, f)
        for _ in range(15):
            t = random_transvection(rng, F, n)
            assert tv_from_matrix(t.matrix()) == t


def test_from_matrix_rejections():
    F3 = field_create(3)
    # determinant 2, not 1: x <-> y swap
    with pytest.raises(NotTransvection):
        tv_from_matrix(Mat(F3, ((0, 1), (1, 0))))
    with pytest.raises(NotTransvection):
        tv_from_matrix(Mat.identity(F3, 2))
    # rank(M - 1) = 2
    with pytest.raises(NotTransvection):
        tv_from_matrix(Mat(F3, ((1, 1, 0), (0, 1, 1), (0, 0, 1))))
    F2 = field_create(2)
    # det 1 but not unipotent of the right shape: companion of x^2+x+1
    with pytest.raises(NotTransvection):
        tv_from_matrix(Mat(F2, ((0, 1), (1, 1))))


@pytest.mark.parametrize("p,rows", [
    (3, ((1, 4), (0, 1))),   # unchecked, 4 would act as 1
    (2, ((1, 4), (0, 1))),   # unchecked, 4 would index past the GF(2) tables
    (3, ((1, -1), (0, 1))),
    (2, ((1, 0), (True, 1))),
], ids=["gf3-4", "gf2-4", "gf3-neg", "gf2-bool"])
def test_from_matrix_rejects_entries_outside_the_field(p, rows):
    with pytest.raises(FieldMismatch, match="is not an element of"):
        tv_from_matrix(Mat(field_create(p), rows))


def test_constructor_rejections():
    F = field_create(2)
    with pytest.raises(ZeroVector):
        Transvection(F, (0, 0), (1, 0))
    with pytest.raises(ZeroVector):
        Transvection(F, (1, 0), (0, 0))
    with pytest.raises(NotIsotropic):
        Transvection(F, (1, 0), (1, 0))


def test_constructor_rejects_entries_outside_field():
    F = field_create(2, 2)
    with pytest.raises(FieldMismatch):
        Transvection(F, (1, 0), (0, 9))  # would build ((1, 3), (0, 1))
    with pytest.raises(FieldMismatch):
        Transvection(F, (4, 0), (0, 1))
    with pytest.raises(FieldMismatch):
        Transvection(F, (1, 0), (0, -1))


def test_standard_set_sl_weight_is_primitive():
    for (p, f) in [(2, 1), (2, 2), (3, 2), (5, 1), (2, 4)]:
        F = field_create(p, f)
        for n in (2, 3, 5):
            ts = standard_full_field_set("SL", F, n)
            assert len(ts) == 2
            w = cycle_weight(ts)
            assert w == F.primitive_element()
            assert w == cycle_weight_trace_oracle(ts)
            assert F.subfield_generated([w]) == F.f


def test_standard_set_sp_is_symplectic():
    # alternating form with hyperbolic blocks (e1,e2), (e3,e4), ...
    for (p, f, n) in [(2, 1, 4), (3, 1, 4), (2, 2, 6)]:
        F = field_create(p, f)
        rows = [[0] * n for _ in range(n)]
        for i in range(0, n, 2):
            rows[i][i + 1] = 1
            rows[i + 1][i] = F.neg(1)
        G = Mat(F, tuple(tuple(r) for r in rows))
        ts = standard_full_field_set("SP", F, n)
        for t in ts:
            M = t.matrix()
            assert M.transpose().mul(G).mul(M) == G
        assert cycle_weight(ts) in (F.primitive_element(), F.neg(F.primitive_element()))
    with pytest.raises(BadParameters):
        standard_full_field_set("SP", field_create(3), 3)


def test_standard_set_su3():
    for (p, f) in [(2, 2), (3, 2), (2, 4)]:
        F = field_create(p, f)
        th = F.involution
        for n in (3, 4):
            ts = standard_full_field_set("SU3", F, n)
            assert len(ts) == 3
            # invariance of the hermitian form x1 y2^th + x2 y1^th + x3 y3^th (+ sum x_j y_j^th)
            rows = [[0] * n for _ in range(n)]
            rows[0][1] = rows[1][0] = 1
            for j in range(2, n):
                rows[j][j] = 1
            G = Mat(F, tuple(tuple(r) for r in rows))
            for t in ts:
                M = t.matrix()
                assert M.transpose().mul(G).mul(M.map_entries(th)) == G
            w = cycle_weight(ts)
            assert w == cycle_weight_trace_oracle(ts)
            assert F.subfield_generated([w]) == F.f
    with pytest.raises(UnsupportedKind):
        standard_full_field_set("SU3", field_create(3), 3)


def test_standard_set_o_char2():
    for (p, f) in [(2, 1), (2, 2), (2, 3)]:
        F = field_create(p, f)
        n = 4
        ts = standard_full_field_set("O_char2", F, n)

        def Q(x):
            return F.add(F.mul(x[0], x[1]), F.mul(x[2], x[3]))

        lam = F.primitive_element()
        assert cycle_weight(ts) == F.mul(lam, lam)
        # each generator preserves Q
        for t in ts:
            M = t.matrix()
            for code in range(F.q ** n):
                x, r = [], code
                for _ in range(n):
                    x.append(r % F.q)
                    r //= F.q
                assert Q(M.matvec(tuple(x))) == Q(tuple(x))
    with pytest.raises(UnsupportedKind):
        standard_full_field_set("O_char2", field_create(3), 4)
    with pytest.raises(BadParameters):
        standard_full_field_set("O_char2", field_create(2), 3)
    with pytest.raises(UnsupportedKind):
        standard_full_field_set("nope", field_create(2), 3)


def test_json_roundtrip():
    F = field_create(2, 2)
    t = Transvection(F, (1, 2, 0), (0, 0, 3))
    assert Transvection.from_json(F, t.to_json()) == t
    assert Transvection.from_json(F, {"matrix": t.matrix().to_json()}) == t
