"""Linear algebra: elimination identities, subspace lattice, fuzzing."""

import itertools
import random

import pytest

from transvect import gf
from transvect.errors import (
    DimensionMismatch,
    FieldMismatch,
    NoSolution,
    Singular,
)
from transvect.linalg import (
    Mat,
    Subspace,
    _code,
    _inverse_codes,
    _null_vectors,
    dot,
    is_zero_vec,
    outer,
    vec_add,
    vec_scale,
)

from oracles import contains_space, det_oracle, elements, rref_oracle


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
                assert M.mul(Mi) == Mi.mul(M) == Mat.identity(F, n)
                assert M.rank() == n
            else:
                assert M.rank() < n
                with pytest.raises(Singular):
                    M.inv()


@pytest.mark.parametrize("p,f", [(2, 1), (3, 1), (2, 2)])
def test_det_matches_the_permutation_expansion_on_every_small_matrix(p, f):
    # det is linear in the last row, so the expansion is read on the unit
    # last rows once per choice of the rows above
    F = gf.field_create(p, f)
    for n in (2, 3):
        units = Mat.identity(F, n).rows
        values = set()
        for top in itertools.product(range(F.q), repeat=(n - 1) * n):
            top = [top[i * n:(i + 1) * n] for i in range(n - 1)]
            cofactors = [det_oracle(Mat(F, top + [e])) for e in units]
            for last in itertools.product(range(F.q), repeat=n):
                want = 0
                for a, c in zip(last, cofactors):
                    want = F.add(want, F.mul(a, c))
                d = Mat(F, top + [last]).det()
                assert d == want, (top, last)
                values.add(d)
        assert values == set(range(F.q))


def test_det_matches_the_permutation_expansion_on_seeded_matrices():
    # odd permutations of the pivots only show over odd q, where -1 != 1
    rng = random.Random(31)
    for p, f in [(5, 1), (3, 2), (2, 4)]:
        F = gf.field_create(p, f)
        for n in (4, 5):
            for _ in range(60):
                M = rand_mat(F, n, n, rng)
                if rng.random() < 0.2:  # a repeated row
                    M = Mat(F, M.rows[:-1] + M.rows[:1])
                assert M.det() == det_oracle(M)


def codes(M):
    return tuple(_code(M.F.q, r) for r in M.rows)


def inverse_oracle(M):
    """M^-1 from the tuple Gauss-Jordan on [M | I], or None when M is singular."""
    F, n = M.F, M.nrows
    red, piv = rref_oracle(Mat(F, [r + e for r, e in zip(M.rows, Mat.identity(F, n).rows)]))
    return Mat(F, [r[n:] for r in red.rows]) if piv[:n] == tuple(range(n)) else None


@pytest.mark.parametrize("p,f,n,gl_order", [
    (2, 1, 2, 6), (2, 1, 3, 168), (3, 1, 2, 48), (2, 2, 2, 180),
])
def test_inverse_codes_on_every_matrix(p, f, n, gl_order):
    # Gauss-Jordan on row codes agrees with the tuple oracle on every
    # invertible matrix and returns None on every other
    F = gf.field_create(p, f)
    invertible = 0
    for entries in itertools.product(range(F.q), repeat=n * n):
        M = Mat(F, [entries[i * n:(i + 1) * n] for i in range(n)])
        if M.det():
            assert _inverse_codes(F, codes(M)) == codes(inverse_oracle(M))
            invertible += 1
        else:
            assert _inverse_codes(F, codes(M)) is None
    assert invertible == gl_order


def test_inverse_codes_on_seeded_matrices():
    rng = random.Random(20)
    for p, f in [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (2, 4), (5, 2)]:
        F = gf.field_create(p, f)
        for n in range(1, 9):
            M = rand_mat(F, n, n, rng)
            while not M.det():
                M = rand_mat(F, n, n, rng)
            assert _inverse_codes(F, codes(M)) == codes(inverse_oracle(M))
            # the last row repeats the first (or is zero when n = 1)
            singular = Mat(F, M.rows[:-1] + (M.rows[0] if n > 1 else (0,),))
            assert _inverse_codes(F, codes(singular)) is None


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
            ker = Subspace(F, nc, M.rows).perp().basis
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
                img = Subspace(F, nr, M.transpose().rows)
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
            start = Subspace(F, n, rand_mat(F, rng.randrange(0, n + 1), n, rng).rows)
            vecs = list(rand_mat(F, rng.randrange(0, 2 * n + 1), n, rng).rows)
            if vecs and rng.random() < 0.5:
                vecs.append(vecs[0])  # a repeat never leaves the span
            got = start.extension(vecs)
            assert got == extension_oracle(F, start.basis, vecs)
            picked = [vecs[k] for k in got]
            assert start.dim + len(got) == start.sum(Subspace(F, n, vecs)).dim
            assert Subspace(F, n, start.basis + tuple(picked)) == \
                start.sum(Subspace(F, n, vecs))
    with pytest.raises(DimensionMismatch):
        Subspace.zero(gf.field_create(2, 1), 3).extension([(1, 0)])


# -- differential tests against the Gauss-Jordan on digit tuples -----------


def span_oracle(F, vecs):
    """The RREF basis of the span of vecs."""
    if not vecs:
        return ()
    red, piv = rref_oracle(Mat(F, vecs))
    return red.rows[:len(piv)]


def extension_oracle(F, basis, vecs):
    want, rank = [], len(span_oracle(F, list(basis)))
    for k in range(len(vecs)):
        r = len(span_oracle(F, list(basis) + list(vecs[:k + 1])))
        if r > rank:
            want.append(k)
            rank = r
    return want


def null_vectors_oracle(M):
    """One null vector per free column of the oracle's RREF."""
    red, piv = rref_oracle(M)
    null = []
    for fc in range(M.ncols):
        if fc not in piv:
            v = [0] * M.ncols
            v[fc] = 1
            for r, pc in enumerate(piv):
                v[pc] = M.F.neg(red.rows[r][fc])
            null.append(tuple(v))
    return null


def kernel_oracle(M):
    return list(span_oracle(M.F, null_vectors_oracle(M)))


def perp_oracle(F, n, basis):
    if not basis:
        return Mat.identity(F, n).rows
    return tuple(kernel_oracle(Mat(F, basis)))


def intersect_oracle(F, n, A, B):
    # Zassenhaus: reduce the rows (a | a) and (b | 0); the rows whose left
    # half vanishes span the intersection in their right half
    rows = [a + a for a in A] + [b + (0,) * n for b in B]
    both = span_oracle(F, rows)
    return span_oracle(F, [r[n:] for r in both if not any(r[:n])])


def check_against_oracle(M, rng):
    F, nr, nc = M.F, M.nrows, M.ncols
    red, piv = rref_oracle(M)
    assert M.rref() == (red, piv)
    assert M.rank() == len(piv)
    if nr == nc:
        inverse = inverse_oracle(M)
        if inverse is None:
            with pytest.raises(Singular):
                M.inv()
        else:
            assert M.inv() == inverse
    assert _null_vectors(F, nc, red.rows[:len(piv)]) == null_vectors_oracle(M)
    assert list(Subspace(F, nc, M.rows).perp().basis) == kernel_oracle(M)
    b = tuple(rng.randrange(F.q) for _ in range(nr))
    bred, bpiv = rref_oracle(Mat(F, [r + (c,) for r, c in zip(M.rows, b)]))
    if nc in bpiv:
        with pytest.raises(NoSolution):
            M.solve(b)
    else:
        x = [0] * nc
        for r, pc in enumerate(bpiv):
            x[pc] = bred.rows[r][nc]
        assert M.solve(b) == tuple(x)
    A = Subspace(F, nc, M.rows)
    assert A.basis == span_oracle(F, list(M.rows))
    assert A.perp().basis == perp_oracle(F, nc, A.basis)
    other = [tuple(rng.randrange(F.q) for _ in range(nc)) for _ in range(rng.randrange(3))]
    B = Subspace(F, nc, other)
    assert A.intersect(B).basis == intersect_oracle(F, nc, A.basis, B.basis)
    vecs = [tuple(rng.randrange(F.q) for _ in range(nc)) for _ in range(rng.randrange(4))]
    vecs += [r for r in M.rows if rng.random() < 0.5]
    assert B.extension(vecs) == extension_oracle(F, B.basis, vecs)
    for v in vecs:
        assert B.contains(v) == (len(span_oracle(F, list(B.basis) + [v])) == B.dim)


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("nr,nc", [(2, 2), (2, 3)])
def test_every_small_matrix_against_the_tuple_oracle(q, nr, nc):
    F = gf.field_create(*{2: (2, 1), 3: (3, 1), 4: (2, 2)}[q])
    rng = random.Random(q * 10 + nc)
    for entries in itertools.product(range(q), repeat=nr * nc):
        check_against_oracle(Mat(F, [entries[i * nc:(i + 1) * nc] for i in range(nr)]), rng)


def test_seeded_matrices_against_the_tuple_oracle():
    # zero rows and rows combined from earlier rows make rank-deficient
    # matrices common
    rng = random.Random(25)
    for p, f in [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (5, 2)]:
        F = gf.field_create(p, f)
        for _ in range(40):
            nr, nc = rng.randrange(1, 7), rng.randrange(1, 9)
            rows = []
            for _ in range(nr):
                kind = rng.random()
                if kind < 0.15:
                    rows.append((0,) * nc)
                elif kind < 0.4 and rows:
                    u, w = rng.choice(rows), rng.choice(rows)
                    c = rng.randrange(F.q)
                    rows.append(vec_add(F, u, vec_scale(F, c, w)))
                else:
                    rows.append(tuple(rng.randrange(F.q) for _ in range(nc)))
            check_against_oracle(Mat(F, rows), rng)


@pytest.mark.parametrize("p,bad", [(3, 5), (3, -1), (2, True)], ids=["gf3-5", "gf3-neg", "gf2-bool"])
@pytest.mark.parametrize("op", ["rref", "inv", "det", "solve", "solve-rhs", "Subspace",
                                "contains"])
def test_entries_outside_the_field_are_rejected(p, bad, op):
    F = gf.field_create(p, 1)
    M = Mat(F, [(bad, 0), (0, 1)])
    call = {
        "rref": M.rref,
        "inv": M.inv,
        "det": M.det,
        "solve": lambda: M.solve((1, 0)),
        "solve-rhs": lambda: Mat.identity(F, 2).solve((bad, 0)),
        "Subspace": lambda: Subspace(F, 2, [(bad, 0)]),
        "contains": lambda: Subspace.zero(F, 2).contains((bad, 0)),
    }[op]
    with pytest.raises(FieldMismatch, match="is not an element of"):
        call()
