"""Linear algebra: elimination identities, subspace lattice, fuzzing."""

import itertools
import random

import pytest

from transvect import gf
from transvect.errors import (
    DimensionMismatch,
    FieldMismatch,
    InternalError,
    NoSolution,
    Singular,
)
from transvect.linalg import (
    Mat,
    Subspace,
    _code,
    _inverse_codes,
    dot,
    is_zero_vec,
    outer,
    vec_add,
    vec_scale,
)

from oracles import contains_space, elements


def rand_mat(F, nr, nc, rng):
    return Mat(F, tuple(tuple(rng.randrange(F.q) for _ in range(nc)) for _ in range(nr)))


def test_rref_frozen_example():
    F = gf.field_create(2, 1)
    M = Mat(F, [(1, 1, 0), (1, 0, 1), (0, 1, 1)])
    red, piv = M.rref()
    assert piv == (0, 1)
    assert red.rows == ((1, 0, 1), (0, 1, 1), (0, 0, 0))
    assert M.rank() == 2
    assert M.det() == 0


def test_det_rank_inverse_fuzz():
    rng = random.Random(11)
    for F in [gf.field_create(2, 1), gf.field_create(3, 1), gf.field_create(2, 2),
              gf.field_create(5, 1), gf.field_create(3, 2)]:
        for _ in range(40):
            n = rng.randrange(1, 5)
            M = rand_mat(F, n, n, rng)
            d = M.det()
            if d != 0:
                Mi = M.inv()
                assert M.mul(Mi).is_identity()
                assert Mi.mul(M).is_identity()
                assert M.rank() == n
            else:
                assert M.rank() < n
                with pytest.raises(Singular):
                    M.inv()


def codes(M):
    return tuple(_code(M.F.q, r) for r in M.rows)


@pytest.mark.parametrize("p,f,n,gl_order", [
    (2, 1, 2, 6), (2, 1, 3, 168), (3, 1, 2, 48), (2, 2, 2, 180),
])
def test_inverse_codes_on_every_matrix(p, f, n, gl_order):
    # Gauss-Jordan on row codes agrees with Mat.inv on every invertible
    # matrix and raises InternalError (not StopIteration) on every other
    F = gf.field_create(p, f)
    invertible = 0
    for entries in itertools.product(range(F.q), repeat=n * n):
        M = Mat(F, [entries[i * n:(i + 1) * n] for i in range(n)])
        if M.det():
            assert _inverse_codes(F, codes(M)) == codes(M.inv())
            invertible += 1
        else:
            with pytest.raises(InternalError, match="no pivot"):
                _inverse_codes(F, codes(M))
    assert invertible == gl_order


def test_inverse_codes_on_seeded_matrices():
    rng = random.Random(20)
    for p, f in [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (2, 4), (5, 2)]:
        F = gf.field_create(p, f)
        for n in range(1, 9):
            M = rand_mat(F, n, n, rng)
            while not M.det():
                M = rand_mat(F, n, n, rng)
            assert _inverse_codes(F, codes(M)) == codes(M.inv())
            # the last row repeats the first (or is zero when n = 1)
            singular = Mat(F, M.rows[:-1] + (M.rows[0] if n > 1 else (0,),))
            with pytest.raises(InternalError, match="no pivot"):
                _inverse_codes(F, codes(singular))


def test_det_multiplicative():
    rng = random.Random(5)
    F = gf.field_create(3, 2)
    for _ in range(30):
        A = rand_mat(F, 3, 3, rng)
        B = rand_mat(F, 3, 3, rng)
        assert A.mul(B).det() == F.mul(A.det(), B.det())


def test_kernel_and_solve():
    rng = random.Random(13)
    for F in [gf.field_create(2, 1), gf.field_create(3, 1), gf.field_create(2, 2)]:
        for _ in range(40):
            nr = rng.randrange(1, 5)
            nc = rng.randrange(1, 5)
            M = rand_mat(F, nr, nc, rng)
            ker = M.kernel()
            assert len(ker) == nc - M.rank()
            for v in ker:
                assert is_zero_vec(M.matvec(v))
            x0 = tuple(rng.randrange(F.q) for _ in range(nc))
            b = M.matvec(x0)
            x = M.solve(b)
            assert M.matvec(x) == b
            # inconsistent system detection
            if M.rank() < nr:
                # pick b outside the column space when it exists
                img = Subspace(F, nr, M.image())
                for cand in range(F.q ** nr):
                    vv = tuple((cand // F.q ** i) % F.q for i in range(nr))
                    if not img.contains(vv):
                        with pytest.raises(NoSolution):
                            M.solve(vv)
                        break


def test_matvec_vecmat_outer():
    F = gf.field_create(3, 1)
    M = Mat(F, [(1, 2), (0, 1)])
    assert M.matvec((1, 1)) == (0, 1)
    assert M.vecmat((1, 1)) == (1, 0)
    O = outer(F, (1, 2), (0, 1))
    assert O.rows == ((0, 1), (0, 2))
    assert O.rank() == 1


def test_transpose_trace_pow():
    F = gf.field_create(5, 1)
    M = Mat(F, [(1, 2), (3, 4)])
    assert M.transpose().rows == ((1, 3), (2, 4))
    assert M.trace() == 0  # 1+4 = 5 = 0
    assert M.pow(0).is_identity()
    assert M.pow(3) == M.mul(M).mul(M)
    if M.det() != 0:
        assert M.pow(-1) == M.inv()


def test_subspace_canonical_equality():
    F = gf.field_create(3, 1)
    S1 = Subspace(F, 3, [(1, 1, 0), (0, 0, 1)])
    S2 = Subspace(F, 3, [(2, 2, 1), (1, 1, 1)])
    assert S1 == S2
    assert hash(S1) == hash(S2)
    assert S1.dim == 2


def test_subspace_lattice_fuzz():
    rng = random.Random(17)
    for F in [gf.field_create(2, 1), gf.field_create(3, 1), gf.field_create(2, 2)]:
        n = 4
        for _ in range(30):
            A = Subspace(F, n, [tuple(rng.randrange(F.q) for _ in range(n))
                                for _ in range(rng.randrange(3))])
            B = Subspace(F, n, [tuple(rng.randrange(F.q) for _ in range(n))
                                for _ in range(rng.randrange(3))])
            S = A.sum(B)
            I = A.intersect(B)
            assert contains_space(S, A) and contains_space(S, B)
            assert contains_space(A, I) and contains_space(B, I)
            assert S.dim + I.dim == A.dim + B.dim
            # double annihilator is the identity
            assert A.perp().perp() == A
            assert A.perp().dim == n - A.dim
            for row in A.perp().basis:
                for v in A.basis:
                    assert dot(F, row, v) == 0


def test_lex_least_nonzero():
    F = gf.field_create(3, 1)
    S = Subspace(F, 3, [(1, 0, 2), (0, 1, 1)])
    least = S.lex_least_nonzero()
    assert least == (0, 1, 1)
    # exhaustive confirmation
    all_nonzero = [v for v in elements(S) if not is_zero_vec(v)]
    assert min(all_nonzero) == least


def test_subspace_elements_count():
    F = gf.field_create(2, 2)
    S = Subspace(F, 3, [(1, 0, 0), (0, 1, 0)])
    els = list(elements(S))
    assert len(els) == F.q ** 2
    assert len(set(els)) == F.q ** 2
    assert all(S.contains(v) for v in els)


def test_dimension_errors():
    F = gf.field_create(2, 1)
    M = Mat(F, [(1, 0)])
    with pytest.raises(DimensionMismatch):
        M.det()
    with pytest.raises(DimensionMismatch):
        M.matvec((1,))
    with pytest.raises(DimensionMismatch):
        Mat(F, [(1, 0), (1,)])


def test_json_roundtrip():
    F = gf.field_create(3, 2)
    M = Mat(F, [(1, 8), (0, 3)])
    assert Mat.from_json(F, M.to_json()) == M


def test_from_json_rejects_entries_outside_the_field():
    # the constructor stays unchecked for the hot paths; the JSON boundary checks
    with pytest.raises(FieldMismatch, match="5 is not an element of GF"):
        Mat.from_json(gf.field_create(2, 1), [[1, 5], [0, 1]])
    with pytest.raises(FieldMismatch):
        Mat.from_json(gf.field_create(2, 2), [[1, 0], [-1, 1]])


def test_subspace_extension_matches_rank_oracle():
    # index k is picked exactly when it raises the rank of the start basis
    # plus the vectors 0..k
    rng = random.Random(8)
    for F in [gf.field_create(2, 1), gf.field_create(3, 1), gf.field_create(2, 2),
              gf.field_create(3, 2)]:
        for _ in range(60):
            n = rng.randrange(1, 6)
            start = Subspace.span(F, n, rand_mat(F, rng.randrange(0, n + 1), n, rng).rows)
            vecs = list(rand_mat(F, rng.randrange(0, 2 * n + 1), n, rng).rows)
            if vecs and rng.random() < 0.5:
                vecs.append(vecs[0])  # a repeat never leaves the span
            got = start.extension(vecs)
            want = []
            rank = start.dim
            for k in range(len(vecs)):
                r = Mat(F, start.basis + tuple(vecs[:k + 1])).rank()
                if r > rank:
                    want.append(k)
                    rank = r
            assert got == want
            picked = [vecs[k] for k in got]
            assert start.dim + len(got) == start.sum(Subspace.span(F, n, vecs)).dim
            assert Subspace.span(F, n, start.basis + tuple(picked)) == \
                start.sum(Subspace.span(F, n, vecs))
    with pytest.raises(DimensionMismatch):
        Subspace.zero(gf.field_create(2, 1), 3).extension([(1, 0)])
