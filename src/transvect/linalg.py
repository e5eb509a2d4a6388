"""Exact linear algebra over GF(p^f): matrices, row reduction, subspaces.

Vectors and covectors are plain int tuples (covectors act through the
standard dot product).  Matrices are immutable row-major tuples so they can
be dict keys.  Subspaces are stored by their reduced-row-echelon basis, which
makes equality structural.

The package has one codec and one Gauss-Jordan elimination, both here.
`_code` packs a vector x as the integer sum(x_j q^j), first coordinate
least significant, and `_digits` unpacks it; the Cayley searches, the
stabilizer chain, the graph pairings, the density scans and `Subspace`
all use it.  `_echelon`, Gauss-Jordan on row codes, is every reduction
of `Mat`, the `Subspace` constructor and the chain's inverses; only
`Mat.det`, and `Subspace.extension`, which reduces one new vector at a
time against the rows it holds, keep a loop of their own.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Sequence

from .errors import DimensionMismatch, FieldMismatch, NoSolution, Singular
from .gf import Field

Vec = tuple[int, ...]

__all__ = ["Mat", "Subspace", "dot", "vec_add", "vec_sub", "vec_scale",
           "outer", "is_zero_vec"]


# -- vector helpers -----------------------------------------------------------

def dot(F: Field, phi: Sequence[int], v: Sequence[int]) -> int:
    if len(phi) != len(v):
        raise DimensionMismatch(f"dot: {len(phi)} vs {len(v)}")
    acc = 0
    for a, b in zip(phi, v):
        if a and b:
            acc = F.add(acc, F.mul(a, b))
    return acc


def vec_add(F: Field, u: Sequence[int], v: Sequence[int]) -> Vec:
    return tuple(F.add(a, b) for a, b in zip(u, v))


def vec_sub(F: Field, u: Sequence[int], v: Sequence[int]) -> Vec:
    return tuple(F.sub(a, b) for a, b in zip(u, v))


def vec_scale(F: Field, c: int, v: Sequence[int]) -> Vec:
    return tuple(F.mul(c, a) for a in v)


def _code(base: int, digits: Sequence[int]) -> int:
    """sum(digits[j] * base^j)."""
    code = 0
    for x in reversed(digits):
        code = code * base + x
    return code


def _digits(base: int, n: int, code: int) -> tuple[int, ...]:
    """The n base-`base` digits of code, least significant first."""
    out = []
    for _ in range(n):
        code, x = divmod(code, base)
        out.append(x)
    return tuple(out)


def _echelon(F: Field, rows: list[int], ncols: int, width: int) -> list[int]:
    """Gauss-Jordan in place on the row codes of a matrix with `width`
    columns, pivoting on columns 0..ncols-1; returns the pivot columns.
    Row k ends as the k-th pivot row, 1 at its pivot, which is clear in
    every other row.  Over GF(2) rows are bit masks combined by XOR;
    otherwise digit lists combined through the field operations."""
    pivots: list[int] = []
    if F.q == 2:
        for c in range(ncols):
            bit, k = 1 << c, len(pivots)
            r = next((i for i in range(k, len(rows)) if rows[i] & bit), None)
            if r is not None:
                rows[r], rows[k] = rows[k], rows[r]
                pivot = rows[k]
                for i, row in enumerate(rows):
                    if row & bit and i != k:
                        rows[i] = row ^ pivot
                pivots.append(c)
        return pivots
    q, mul, sub, inv = F.q, F.mul, F.sub, F.inv
    aug = [list(_digits(q, width, r)) for r in rows]
    for c in range(ncols):
        k = len(pivots)
        r = next((i for i in range(k, len(aug)) if aug[i][c]), None)
        if r is None:
            continue
        # columns before c are zero in the pivot row: only the tail changes
        aug[r], aug[k] = aug[k], aug[r]
        pivot = aug[k][c:]
        x = inv(pivot[0])
        if x != 1:
            pivot = aug[k][c:] = [mul(x, a) for a in pivot]
        for i, row in enumerate(aug):
            m = row[c]
            if m and i != k:
                row[c:] = [sub(a, mul(m, b)) for a, b in zip(row[c:], pivot)]
        pivots.append(c)
    rows[:] = [_code(q, row) for row in aug]
    return pivots


def _inverse_codes(F: Field, rows: Sequence[int]) -> tuple[int, ...] | None:
    """The row codes of M^-1, for the square matrix M over F given by its
    row codes, or None when M is singular: Gauss-Jordan on [M | I]."""
    n, q = len(rows), F.q
    aug = [r + q ** (n + i) for i, r in enumerate(rows)]
    if len(_echelon(F, aug, n, 2 * n)) < n:
        return None
    return tuple(a // q**n for a in aug)


def _null_vectors(F: Field, n: int, rows: Sequence[Vec]) -> list[Vec]:
    """A basis of the x in F^n with r . x = 0 for every row r of a reduced
    row echelon basis: for each column c without a pivot, 1 at c, -r[c] at
    the pivot of each r and 0 elsewhere."""
    pivots = [next(j for j, a in enumerate(r) if a) for r in rows]
    out = []
    for c in range(n):
        if c not in pivots:
            x = [0] * n
            x[c] = 1
            for r, j in zip(rows, pivots):
                x[j] = F.neg(r[c])
            out.append(tuple(x))
    return out


def _check_entries(F: Field, rows: Iterable[Sequence[int]]) -> None:
    """Raise FieldMismatch unless every entry of the rows lies in F, which
    `Mat` itself does not check.  Entries of type int in range pass three
    C-level scans; otherwise each entry goes through `F.check`, which
    raises, or accepts an int subclass."""
    flat = list(chain.from_iterable(rows))
    if flat and (set(map(type, flat)) != {int} or min(flat) < 0 or max(flat) >= F.q):
        for a in flat:
            F.check(a)


def is_zero_vec(v: Sequence[int]) -> bool:
    return all(a == 0 for a in v)


def outer(F: Field, v: Sequence[int], phi: Sequence[int]) -> "Mat":
    rows = tuple(tuple(F.mul(a, b) for b in phi) for a in v)
    return Mat(F, rows)


# -- matrices ------------------------------------------------------------------

class Mat:
    """Immutable row-major matrix over a fixed field."""

    __slots__ = ("F", "rows", "nrows", "ncols")

    def __init__(self, F: Field, rows: Iterable[Sequence[int]]):
        rs = tuple(tuple(r) for r in rows)
        if rs:
            w = len(rs[0])
            for r in rs:
                if len(r) != w:
                    raise DimensionMismatch("ragged rows")
        self.F = F
        self.rows = rs
        self.nrows = len(rs)
        self.ncols = len(rs[0]) if rs else 0

    @staticmethod
    def identity(F: Field, n: int) -> "Mat":
        return Mat(F, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @staticmethod
    def zero(F: Field, nrows: int, ncols: int) -> "Mat":
        return Mat(F, tuple((0,) * ncols for _ in range(nrows)))

    def __eq__(self, other) -> bool:
        return isinstance(other, Mat) and self.F == other.F and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"Mat({self.F!r}, {list(map(list, self.rows))})"

    def _samefield(self, other: "Mat") -> None:
        if self.F != other.F:
            raise FieldMismatch("matrices over different fields")

    def add(self, other: "Mat") -> "Mat":
        self._samefield(other)
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise DimensionMismatch("add: shape mismatch")
        F = self.F
        return Mat(F, tuple(tuple(F.add(a, b) for a, b in zip(r1, r2))
                            for r1, r2 in zip(self.rows, other.rows)))

    def sub(self, other: "Mat") -> "Mat":
        self._samefield(other)
        F = self.F
        return Mat(F, tuple(tuple(F.sub(a, b) for a, b in zip(r1, r2))
                            for r1, r2 in zip(self.rows, other.rows)))

    def mul(self, other: "Mat") -> "Mat":
        self._samefield(other)
        if self.ncols != other.nrows:
            raise DimensionMismatch("mul: inner dimensions differ")
        F = self.F
        ocols = list(zip(*other.rows))
        out = []
        for r in self.rows:
            row = []
            for c in ocols:
                acc = 0
                for a, b in zip(r, c):
                    if a and b:
                        acc = F.add(acc, F.mul(a, b))
                row.append(acc)
            out.append(tuple(row))
        return Mat(F, tuple(out))

    def matvec(self, v: Sequence[int]) -> Vec:
        """M . v with v a column vector."""
        if len(v) != self.ncols:
            raise DimensionMismatch("matvec: length mismatch")
        F = self.F
        return tuple(dot(F, r, v) for r in self.rows)

    def vecmat(self, phi: Sequence[int]) -> Vec:
        """phi . M with phi a row covector (i.e. phi composed with M)."""
        if len(phi) != self.nrows:
            raise DimensionMismatch("vecmat: length mismatch")
        F = self.F
        cols = zip(*self.rows)
        return tuple(dot(F, phi, c) for c in cols)

    def transpose(self) -> "Mat":
        return Mat(self.F, tuple(zip(*self.rows))) if self.rows else self

    def trace(self) -> int:
        F = self.F
        acc = 0
        for i in range(min(self.nrows, self.ncols)):
            acc = F.add(acc, self.rows[i][i])
        return acc

    def map_entries(self, fn) -> "Mat":
        return Mat(self.F, tuple(tuple(fn(a) for a in r) for r in self.rows))

    # -- elimination ----------------------------------------------------------

    def rref(self) -> tuple["Mat", tuple[int, ...]]:
        """Reduced row echelon form and the pivot column indices, by
        `_echelon` on the row codes."""
        F, nc = self.F, self.ncols
        _check_entries(F, self.rows)
        codes = [_code(F.q, r) for r in self.rows]
        pivots = _echelon(F, codes, nc, nc)
        return Mat(F, (_digits(F.q, nc, c) for c in codes)), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def det(self) -> int:
        """The product of the pivots of a forward elimination, negated per
        row swap.  This is the one elimination loop besides `_echelon`,
        which scales every pivot to 1 and so loses that product."""
        if self.nrows != self.ncols:
            raise DimensionMismatch("det: square matrices only")
        F = self.F
        _check_entries(F, self.rows)
        rows = [list(r) for r in self.rows]
        n = self.nrows
        det = 1
        for c in range(n):
            sel = None
            for i in range(c, n):
                if rows[i][c]:
                    sel = i
                    break
            if sel is None:
                return 0
            if sel != c:
                rows[c], rows[sel] = rows[sel], rows[c]
                det = F.neg(det)
            det = F.mul(det, rows[c][c])
            inv = F.inv(rows[c][c])
            for i in range(c + 1, n):
                if rows[i][c]:
                    m = F.mul(inv, rows[i][c])
                    rows[i] = [F.sub(a, F.mul(m, b)) for a, b in zip(rows[i], rows[c])]
        return det

    def inv(self) -> "Mat":
        if self.nrows != self.ncols:
            raise DimensionMismatch("inv: square matrices only")
        F, n = self.F, self.nrows
        _check_entries(F, self.rows)
        codes = _inverse_codes(F, [_code(F.q, r) for r in self.rows])
        if codes is None:
            raise Singular("matrix is not invertible")
        return Mat(F, (_digits(F.q, n, c) for c in codes))

    def solve(self, b: Sequence[int]) -> Vec:
        """One solution of M x = b (free variables set to 0); NoSolution if none."""
        if len(b) != self.nrows:
            raise DimensionMismatch("solve: rhs length mismatch")
        F = self.F
        aug = Mat(F, tuple(r + (bb,) for r, bb in zip(self.rows, b)))
        red, piv = aug.rref()
        if self.ncols in piv:
            raise NoSolution("inconsistent linear system")
        x = [0] * self.ncols
        for r, pc in enumerate(piv):
            x[pc] = red.rows[r][self.ncols]
        return tuple(x)

    def to_json(self) -> list[list[int]]:
        return [list(r) for r in self.rows]

    @staticmethod
    def from_json(F: Field, data: Sequence[Sequence[int]]) -> "Mat":
        rows = tuple(tuple(F.check(a) for a in r) for r in data)
        return Mat(F, rows)


# -- subspaces -----------------------------------------------------------------

class Subspace:
    """Subspace of F^n stored by its canonical RREF basis."""

    __slots__ = ("F", "n", "basis")

    def __init__(self, F: Field, n: int, basis: Iterable[Sequence[int]] = ()):
        self.F = F
        self.n = n
        rows = [tuple(r) for r in basis]
        for r in rows:
            if len(r) != n:
                raise DimensionMismatch("basis vector of wrong length")
        _check_entries(F, rows)
        codes = [_code(F.q, r) for r in rows]  # reduced by `_echelon`
        rank = len(_echelon(F, codes, n, n))
        self.basis = tuple(_digits(F.q, n, c) for c in codes[:rank])

    @staticmethod
    def zero(F: Field, n: int) -> "Subspace":
        return Subspace(F, n, ())

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace) and self.F == other.F
                and self.n == other.n and self.basis == other.basis)

    def __hash__(self) -> int:
        return hash((self.n, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, n={self.n})"

    def contains(self, v: Sequence[int]) -> bool:
        return not self.extension([v])

    def extension(self, vectors: Iterable[Sequence[int]]) -> list[int]:
        """Indices of the vectors that, taken in order, each leave the span
        of this subspace and the vectors picked before them; the picked
        vectors extend a basis of this subspace to one of the sum.

        The rows held start as the basis.  Each vector is reduced against
        them in insertion order, clearing its entry at each row's leading
        column; a remainder left over is picked and held, scaled to 1 at
        its first nonzero column.  Every held row is zero at the leading
        columns of the rows before it, so a reduction step never refills a
        column cleared earlier, and the remainder is zero exactly when the
        vector lies in the span.  Over GF(2) rows are bit masks."""
        F, n = self.F, self.n
        picked = []
        if F.q == 2:
            held = [(m & -m, m) for m in (_code(2, r) for r in self.basis)]
            for k, v in enumerate(vectors):
                if len(v) != n:
                    raise DimensionMismatch("vector of wrong length")
                _check_entries(F, (v,))
                x = _code(2, v)
                for lead, row in held:
                    if x & lead:
                        x ^= row
                if x:
                    held.append((x & -x, x))
                    picked.append(k)
            return picked
        mul, sub, inv = F.mul, F.sub, F.inv
        tails = []  # (leading column c, the row's entries from c on, 1 first)
        for r in self.basis:
            c = next(j for j, a in enumerate(r) if a)
            tails.append((c, r[c:]))
        for k, v in enumerate(vectors):
            if len(v) != n:
                raise DimensionMismatch("vector of wrong length")
            _check_entries(F, (v,))
            x = list(v)
            for c, tail in tails:
                m = x[c]
                if m:
                    x[c:] = [sub(a, mul(m, b)) for a, b in zip(x[c:], tail)]
            c = next((j for j, a in enumerate(x) if a), None)
            if c is not None:
                y = inv(x[c])
                tails.append((c, [mul(y, a) for a in x[c:]] if y != 1 else x[c:]))
                picked.append(k)
        return picked

    def sum(self, other: "Subspace") -> "Subspace":
        self._compat(other)
        return Subspace(self.F, self.n, self.basis + other.basis)

    def intersect(self, other: "Subspace") -> "Subspace":
        self._compat(other)
        return self.perp().sum(other.perp()).perp()

    def perp(self) -> "Subspace":
        """Annihilator under the standard dot pairing, read off the RREF
        basis."""
        return Subspace(self.F, self.n, _null_vectors(self.F, self.n, self.basis))

    def lex_least_nonzero(self) -> Vec:
        """Smallest nonzero member in tuple-lexicographic order."""
        if not self.basis:
            raise NoSolution("zero subspace has no nonzero member")
        # with an RREF basis this is the row whose pivot is furthest right
        return self.basis[-1]

    def _compat(self, other: "Subspace") -> None:
        if self.F != other.F:
            raise FieldMismatch("subspaces over different fields")
        if self.n != other.n:
            raise DimensionMismatch("subspaces of different ambient dimension")
