"""Exact linear algebra over GF(p^f): matrices, row reduction, subspaces.

Vectors and covectors are plain int tuples (covectors act through the
standard dot product).  Matrices are immutable row-major tuples so they can
be dict keys.  Subspaces are stored by their reduced-row-echelon basis, which
makes equality structural.

The package has one codec and one row reduction, both here.  `_code`
packs a vector x as the integer sum(x_j q^j), first coordinate least
significant, and `_digits` unpacks it.  All row arithmetic is in
`_reduce`, which subtracts held pivot rows from a row, and `_hold`, which
scales a remainder to 1 at its pivot and keeps it, on bit masks over
GF(2) and digit lists otherwise.  Their Gauss-Jordan, `_echelon`, is
every reduction of `Mat`, `Subspace` and the chain's inverses; `Mat.det`
multiplies what `_hold` scaled by; `Subspace.contains` and `extension`
reduce against the rows a `Subspace` keeps; and `classify` finds its
Artin-Schreier roots with the two helpers.
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


def _row_forms(F: Field, vectors: Sequence[Sequence[int]]) -> list:
    """The row forms of vectors with entries in F: their codes, bit masks,
    over GF(2), else lists."""
    _check_entries(F, vectors)
    return [_code(2, v) for v in vectors] if F.q == 2 else list(map(list, vectors))


def _vec(F: Field, n: int, row) -> Vec:
    """The vector of a row form of length n."""
    return _digits(2, n, row) if F.q == 2 else tuple(row)


def _reduce(F: Field, held: Sequence[tuple], x):
    """x, in place when a list, minus each held (pivot, row) times x's entry
    at the pivot, in order.  A row is 1 at its pivot and 0 before it (over
    GF(2) the pivot is its lowest set bit); when each is 0 at the pivots
    held before it, x ends 0 at every pivot."""
    if F.q == 2:
        for bit, row in held:
            if x & bit:
                x ^= row
        return x
    mul, sub = F.mul, F.sub
    for c, row in held:
        m = x[c]
        if m:
            for j in range(c, len(x)):
                if row[j]:
                    x[j] = sub(x[j], mul(m, row[j]))
    return x


def _hold(F: Field, held: list[tuple], x, ncols: int) -> int:
    """Scale x to 1 at its first nonzero column below ncols, append it to
    `held` and return the entry it was scaled from; return 0, holding
    nothing, when x is zero on those columns."""
    if F.q == 2:
        if not x & (1 << ncols) - 1:
            return 0
        held.append((x & -x, x))
        return 1
    for c in range(ncols):
        if x[c]:
            break
    else:
        return 0
    a = x[c]
    if a != 1:
        y = F.inv(a)
        for j in range(c, len(x)):
            if x[j]:
                x[j] = F.mul(y, x[j])
    held.append((c, x))
    return a


def _echelon(F: Field, rows: Iterable, ncols: int) -> list[tuple]:
    """Gauss-Jordan on row forms, pivoting below ncols: the held rows of
    the reduced row echelon form, by pivot.  Rows are reduced and held in
    turn, then each, last first, against the reduced rows held after it."""
    held: list[tuple] = []
    for x in rows:
        _hold(F, held, _reduce(F, held, x), ncols)
    for i in range(len(held) - 2, -1, -1):
        c, row = held[i]
        held[i] = c, _reduce(F, held[i + 1:], row)
    held.sort()
    return held


def _inverse_codes(F: Field, rows: Sequence[int]) -> tuple[int, ...] | None:
    """The row codes of M^-1, for the square matrix M over F given by its
    row codes, or None when M is singular: Gauss-Jordan on [M | I]."""
    q, n = F.q, len(rows)
    if q == 2:
        aug = [r | 1 << n + i for i, r in enumerate(rows)]
    else:
        aug = [[*_digits(q, n, r), *(int(j == i) for j in range(n))]
               for i, r in enumerate(rows)]
    held = _echelon(F, aug, n)
    if len(held) < n:
        return None
    return tuple(row >> n if q == 2 else _code(q, row[n:]) for _, row in held)


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
        """Reduced row echelon form and the pivot columns, by `_echelon`."""
        F, nc = self.F, self.ncols
        held = _echelon(F, _row_forms(F, self.rows), nc)
        rows = [_vec(F, nc, row) for _, row in held]
        rows += [(0,) * nc] * (self.nrows - len(held))
        pivots = (c.bit_length() - 1 if F.q == 2 else c for c, _ in held)
        return Mat(F, rows), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def det(self) -> int:
        """The product of the entries `_hold` scales the rows from, negated
        when their pivots are an odd permutation; 0 at a row with no pivot."""
        if self.nrows != self.ncols:
            raise DimensionMismatch("det: square matrices only")
        F, n = self.F, self.nrows
        held, det = [], 1
        for x in _row_forms(F, self.rows):
            a = _hold(F, held, _reduce(F, held, x), n)
            if not a:
                return 0
            det = F.mul(det, a)
        pivots = [c for c, _ in held]
        odd = sum(c > d for i, c in enumerate(pivots) for d in pivots[i + 1:]) % 2
        return F.neg(det) if odd else det

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
    """Subspace of F^n stored by its canonical RREF basis and its rows."""

    __slots__ = ("F", "n", "basis", "_held")

    def __init__(self, F: Field, n: int, basis: Iterable[Sequence[int]] = ()):
        self.F = F
        self.n = n
        self._held = _echelon(F, self._checked_rows(basis), n)
        self.basis = tuple(_vec(F, n, row) for _, row in self._held)

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

    def _checked_rows(self, vectors: Iterable[Sequence[int]]) -> list:
        """The row forms of vectors of length n with entries in F."""
        vs = list(map(tuple, vectors))
        if set(map(len, vs)) - {self.n}:
            raise DimensionMismatch("vector of wrong length")
        return _row_forms(self.F, vs)

    def contains(self, v: Sequence[int]) -> bool:
        """Whether v reduces to zero against the held rows."""
        x = _reduce(self.F, self._held, self._checked_rows([v])[0])
        return not (x if self.F.q == 2 else any(x))

    def extension(self, vectors: Iterable[Sequence[int]]) -> list[int]:
        """Indices of the vectors that, taken in order, each leave the span
        of this subspace and the vectors picked before them; the picked
        vectors extend a basis of this subspace to one of the sum.  A vector
        is picked when it leaves a remainder against the rows held so far."""
        F, n = self.F, self.n
        held, picked = list(self._held), []
        for k, x in enumerate(self._checked_rows(vectors)):
            if _hold(F, held, _reduce(F, held, x), n):
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
