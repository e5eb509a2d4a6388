"""Transvections t = 1 + v*phi with phi(v) = 0, in canonically scaled form.

The (v, phi) pair of a transvection is only determined up to v -> c v,
phi -> c^-1 phi.  We pin the representative by scaling so the first nonzero
entry of v is 1; two objects are equal iff they are the same linear map.
"""

from __future__ import annotations

from typing import Sequence

from .errors import (
    BadParameters,
    DimensionMismatch,
    FieldMismatch,
    NotIsotropic,
    NotTransvection,
    UnsupportedKind,
    ZeroVector,
)
from .gf import Field
from .linalg import Mat, Vec, dot, is_zero_vec, outer, vec_scale

__all__ = ["Transvection", "tv_from_matrix", "standard_full_field_set"]


class Transvection:
    """The map x -> x + phi(x) v on F^n, with phi(v) = 0."""

    __slots__ = ("F", "n", "v", "phi")

    def __init__(self, F: Field, v: Sequence[int], phi: Sequence[int]):
        v = tuple(map(F.check, v))
        phi = tuple(map(F.check, phi))
        if len(v) != len(phi):
            raise DimensionMismatch("v and phi of different lengths")
        if is_zero_vec(v) or is_zero_vec(phi):
            raise ZeroVector("transvection needs nonzero v and phi")
        if dot(F, phi, v) != 0:
            raise NotIsotropic("phi(v) != 0")
        # canonical scaling: first nonzero coordinate of v becomes 1
        c = next(a for a in v if a)
        if c != 1:
            ci = F.inv(c)
            v = vec_scale(F, ci, v)
            phi = vec_scale(F, c, phi)
        self.F = F
        self.n = len(v)
        self.v = v
        self.phi = phi

    def __eq__(self, other) -> bool:
        return (isinstance(other, Transvection) and self.F == other.F
                and self.v == other.v and self.phi == other.phi)

    def __hash__(self) -> int:
        return hash((self.v, self.phi))

    def __repr__(self) -> str:
        return f"Transvection(v={list(self.v)}, phi={list(self.phi)})"

    def matrix(self) -> Mat:
        F = self.F
        rows = []
        for i in range(self.n):
            vi = self.v[i]
            row = [F.mul(vi, b) for b in self.phi] if vi else [0] * self.n
            row[i] = F.add(row[i], 1)
            rows.append(tuple(row))
        return Mat(F, tuple(rows))

    def apply(self, u: Sequence[int]) -> Vec:
        """t(u) = u + phi(u) v."""
        F = self.F
        c = dot(F, self.phi, u)
        if c == 0:
            return tuple(u)
        return tuple(F.add(a, F.mul(c, b)) for a, b in zip(u, self.v))

    def coapply(self, psi: Sequence[int]) -> Vec:
        """psi o t = psi + psi(v) phi."""
        F = self.F
        c = dot(F, psi, self.v)
        if c == 0:
            return tuple(psi)
        return tuple(F.add(a, F.mul(c, b)) for a, b in zip(psi, self.phi))

    def inverse(self) -> "Transvection":
        F = self.F
        return Transvection(F, self.v, vec_scale(F, F.neg(1), self.phi))

    def conjugate(self, g: Mat, g_inv: Mat | None = None) -> "Transvection":
        """g t g^-1 = 1 + (g v) * (phi o g^-1)."""
        if g.F != self.F:
            raise FieldMismatch("conjugating matrix over a different field")
        if g_inv is None:
            g_inv = g.inv()
        return Transvection(self.F, g.matvec(self.v), g_inv.vecmat(self.phi))

    def to_json(self) -> dict:
        return {"v": list(self.v), "phi": list(self.phi)}

    @staticmethod
    def from_json(F: Field, data: dict) -> "Transvection":
        if "matrix" in data:
            return tv_from_matrix(Mat.from_json(F, data["matrix"]))
        try:
            v, phi = data["v"], data["phi"]
        except KeyError as e:
            raise BadParameters(f"transvection record missing {e}") from e
        return Transvection(F, v, phi)


def tv_from_matrix(M: Mat) -> Transvection:
    """Recover (v, phi) from a matrix; NotTransvection unless rank(M-1) = 1
    and det(M) = 1."""
    if M.nrows != M.ncols:
        raise DimensionMismatch("transvection matrices are square")
    F = M.F
    n = M.nrows
    D = M.sub(Mat.identity(F, n))
    pos = None
    for i in range(n):
        for j in range(n):
            if D.rows[i][j]:
                pos = (i, j)
                break
        if pos:
            break
    if pos is None:
        raise NotTransvection("M is the identity")
    i0, j0 = pos
    inv = F.inv(D.rows[i0][j0])
    v = tuple(D.rows[i][j0] for i in range(n))
    phi = tuple(F.mul(inv, D.rows[i0][j]) for j in range(n))
    if outer(F, v, phi).rows != D.rows:
        raise NotTransvection("M - 1 has rank > 1")
    if dot(F, phi, v) != 0:
        raise NotTransvection("det(M) != 1")
    return Transvection(F, v, phi)


def _e(n: int, i: int) -> Vec:
    return tuple(1 if j == i else 0 for j in range(n))


def standard_full_field_set(kind: str, F: Field, n: int,
                            lam: int | None = None) -> list[Transvection]:
    """Small witness sets whose cycle weights generate the field of lam.

    By default lam is a primitive element, so the weights generate the whole
    field.  An explicit lam must be a nonzero element of F (FieldMismatch
    otherwise).

    kind 'SL':      2 transvections, weight of the 2-cycle is lam.
    kind 'SP':      the same pair read as symplectic transvections (n even).
    kind 'SU3':     3 transvections preserving the standard hermitian form on
                    the first 3 coordinates; the 3-cycle weight is lam.
    kind 'O_char2': 2 orthogonal transvections (p = 2, n >= 4 even); the
                    2-cycle weight is lam squared.
    """
    if lam is None:
        lam = F.primitive_element()
    elif F.check(lam) == 0:
        raise BadParameters("lam must be nonzero")
    if kind == "SL" or kind == "SP":
        if n < 2:
            raise BadParameters("need n >= 2")
        if kind == "SP" and n % 2:
            raise BadParameters("symplectic dimension must be even")
        t = Transvection(F, _e(n, 0), vec_scale(F, lam, _e(n, 1)))
        s = Transvection(F, _e(n, 1), _e(n, 0))
        return [t, s]
    if kind == "SU3":
        if not F.has_involution():
            raise UnsupportedKind("unitary kinds need a square field")
        if n < 3:
            raise BadParameters("need n >= 3")
        th = F.involution
        eps = next((x for x in F.nonzero() if F.add(x, th(x)) == 0), None)
        if eps is None:
            raise UnsupportedKind("no eps with eps^theta = -eps")  # pragma: no cover
        # hermitian form x1 y2^th + x2 y1^th + x3 y3^th on the first 3 coords
        def dual(v: Vec) -> Vec:
            out = [0] * n
            out[0] = th(v[1])
            out[1] = th(v[0])
            out[2] = th(v[2])
            return tuple(out)

        a = F.mul(F.pow(eps, -3), lam)
        z = F.solve_norm(F.neg(F.add(a, th(a))))
        v3 = [0] * n
        v3[0], v3[1], v3[2] = a, 1, z
        vs = [_e(n, 0), _e(n, 1), tuple(v3)]
        return [Transvection(F, v, vec_scale(F, eps, dual(v))) for v in vs]
    if kind == "O_char2":
        if F.p != 2:
            raise UnsupportedKind("orthogonal transvections exist only for p = 2")
        if n < 4 or n % 2:
            raise BadParameters("need even n >= 4")
        # Q(x) = x1 x2 + x3 x4 (+ further hyperbolic blocks)
        u = tuple(1 if i < 2 else 0 for i in range(n))
        v = tuple([lam, 0, 1, 1] + [0] * (n - 4))
        def polar_dual(w: Vec) -> Vec:
            out = [0] * n
            for i in range(0, n, 2):
                out[i] = w[i + 1]
                out[i + 1] = w[i]
            return tuple(out)
        return [Transvection(F, u, polar_dual(u)), Transvection(F, v, polar_dual(v))]
    raise UnsupportedKind(f"unknown kind {kind!r}")
