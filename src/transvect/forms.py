"""Invariant forms for transvection groups.

Detection and reconstruction of an invariant sesquilinear form from the
transvection graph alone (symplectic for the identity twist, unitary for the
field involution), recovery of the quadratic form in characteristic 2, the
coefficient relation form Q-tilde, and the transvective-vector toolkit used
to decompose vectors into short transvective sums.

Conventions.  A form is f(x, y) = x^T gram theta(y) where theta is applied
entrywise to y.  It is twisted-antisymmetric: gram + theta(gram^T) = 0, so
f(y, x) = -theta(f(x, y)).  A transvection 1 + v (x) phi preserves f exactly
when v^T gram = lam * theta(phi) for a nonzero lam fixed by theta; lam is the
scalar tying phi to the f-dual of v.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import (
    BadParameters,
    DimensionMismatch,
    IndexMismatch,
    InternalError,
    MissingForm,
    NoInvolution,
    NotFound,
    NotInvariantForm,
    NotIrreducible,
    NoWitness,
    Singular,
    UnsupportedKind,
    WrongCharacteristic,
    _require,
)
from .gf import Field
from .linalg import Mat, Subspace, Vec, dot, is_zero_vec, vec_add, vec_scale, vec_sub
from .tgraph import (
    WALK_BUDGET,
    TransvectionGraph,
    _closed_walks,
    _distances,
    cycle_weight,
    directed_diameter,
    is_irreducible,
)

__all__ = [
    "SesquiForm",
    "QuadraticForm",
    "ObstructionCycle",
    "QuadraticObstruction",
    "RelationForm",
    "detect_invariant_form",
    "recover_quadratic",
    "tilde_q",
    "tilde_f",
    "relation_check",
    "is_transvective",
    "transvective_fixup",
    "transvective_split",
    "solve_q_on_affine",
    "POINT_BUDGET",
    "TRIAL_BUDGET",
]

POINT_BUDGET = 2**20
TRIAL_BUDGET = 10**6

KINDS = ("linear", "symplectic", "unitary", "orthogonal")


def _twist_fn(F: Field, twist: str) -> Callable[[int], int]:
    if twist == "identity":
        return lambda x: x
    if twist == "theta":
        if not F.has_involution():
            raise NoInvolution("the theta twist needs a square field")
        return F.involution
    raise BadParameters(f"unknown twist {twist!r}")


class SesquiForm:
    """Nondegenerate twisted-antisymmetric sesquilinear form."""

    __slots__ = ("F", "n", "gram", "twist", "_theta")

    def __init__(self, F: Field, gram: Mat, twist: str = "identity"):
        th = _twist_fn(F, twist)
        if gram.nrows != gram.ncols:
            raise DimensionMismatch("gram matrix must be square")
        if gram.det() == 0:
            raise Singular("gram matrix is degenerate")
        twisted = gram.transpose().map_entries(th)
        if gram.add(twisted).rows != Mat.zero(F, gram.nrows, gram.nrows).rows:
            raise NotInvariantForm("gram + theta(gram^T) != 0")
        if twist == "identity" and F.p == 2:
            if any(gram.rows[i][i] != 0 for i in range(gram.nrows)):
                raise NotInvariantForm("alternating form needs a zero diagonal")
        self.F = F
        self.n = gram.nrows
        self.gram = gram
        self.twist = twist
        self._theta = th

    def theta(self, x: int) -> int:
        return self._theta(x)

    def evaluate(self, x: Sequence[int], y: Sequence[int]) -> int:
        F = self.F
        ty = tuple(self._theta(a) for a in y)
        col = self.gram.matvec(ty)
        return dot(F, tuple(x), col)

    def dual_covector(self, v: Sequence[int]) -> Vec:
        """The covector f(., v)."""
        tv = tuple(self._theta(a) for a in v)
        return self.gram.matvec(tv)

    def is_isotropic(self, v: Sequence[int]) -> bool:
        return self.evaluate(v, v) == 0

    def invariant_under(self, M: Mat) -> bool:
        tm = M.map_entries(self._theta)
        return M.transpose().mul(self.gram).mul(tm).rows == self.gram.rows

    def __repr__(self) -> str:
        return f"SesquiForm(twist={self.twist}, gram={self.gram.rows})"


class QuadraticForm:
    """Quadratic form in characteristic 2, stored as upper-triangular
    coefficients; its polarization must be nondegenerate."""

    __slots__ = ("F", "n", "coeffs", "polar")

    def __init__(self, F: Field, coeffs: Mat):
        if F.p != 2:
            raise WrongCharacteristic("quadratic recovery applies in characteristic 2")
        n = coeffs.nrows
        if coeffs.ncols != n:
            raise DimensionMismatch("coefficient matrix must be square")
        if any(coeffs.rows[i][j] != 0 for i in range(n) for j in range(i)):
            raise BadParameters("coefficients must be upper-triangular")
        self.F = F
        self.n = n
        self.coeffs = coeffs
        gram = coeffs.add(coeffs.transpose())
        self.polar = SesquiForm(F, gram, "identity")

    def evaluate(self, x: Sequence[int]) -> int:
        F = self.F
        acc = 0
        for i in range(self.n):
            if x[i] == 0:
                continue
            for j in range(i, self.n):
                acc = F.add(acc, F.mul(self.coeffs.rows[i][j], F.mul(x[i], x[j])))
        return acc

    def polarization(self) -> SesquiForm:
        return self.polar

    def preserved_by(self, M: Mat) -> bool:
        """Q(Mx) = Q(x) as polynomial identity."""
        F = self.F
        D = M.transpose().mul(self.coeffs).mul(M)
        n = self.n
        for i in range(n):
            if D.rows[i][i] != self.coeffs.rows[i][i]:
                return False
            for j in range(i + 1, n):
                if F.add(D.rows[i][j], D.rows[j][i]) != self.coeffs.rows[i][j]:
                    return False
        return True

    def __repr__(self) -> str:
        return f"QuadraticForm(coeffs={self.coeffs.rows})"


@dataclass(frozen=True)
class ObstructionCycle:
    verts: tuple[int, ...]
    weight_fwd: int
    weight_rev: int
    defect: int
    twist: str


@dataclass(frozen=True)
class QuadraticObstruction:
    index: int
    value: int


# -- invariant-form detection -------------------------------------------------


def _cycle_defect(G: TransvectionGraph, verts: tuple[int, ...],
                  th: Callable[[int], int]) -> tuple[int, int, int]:
    F = G.F
    wf = cycle_weight(G, verts)
    wr = cycle_weight(G, tuple(reversed(verts)))
    if len(verts) % 2 == 0:
        d = F.sub(wf, th(wr))
    else:
        d = F.add(wf, th(wr))
    return wf, wr, d


def _first_obstruction(G: TransvectionGraph, th: Callable[[int], int],
                       twist: str, limit: int,
                       budget_walks: int) -> ObstructionCycle:
    """First non-conforming cycle in enumeration order (length, then vertex
    tuple); one of length <= limit is guaranteed to exist when detection has
    failed, since a failed check pins an explicit short witness."""
    for rec in _closed_walks(G, limit, budget_walks):
        wf, wr, d = _cycle_defect(G, rec.verts, th)
        if d != 0:
            return ObstructionCycle(rec.verts, wf, wr, d, twist)
    raise InternalError(
        "detection failed but no obstruction cycle found within its bound")


def detect_invariant_form(G: TransvectionGraph, twist: str = "identity",
                          budget_walks: int = WALK_BUDGET):
    """Find the invariant form of an irreducible transvection group, or the
    first cycle witnessing that none exists.

    An invariant form forces every cycle to conform (defect zero).  The
    converse is realized constructively: once all edges are two-way, scaling
    factors lam_t propagate along a breadth-first tree from the first vertex
    via lam_s = -lam_t phi_t(v_s) / theta(phi_s(v_t)); the checks below are
    exactly the obstructions, and each failure localizes a non-conforming
    cycle of length at most 2D+1 (D the directed diameter):

    - a one-way edge t->s closes to a cycle through a shortest return path;
    - a 2-cycle weight outside Fix(theta) is its own obstruction;
    - an edge violating lam_t phi_t(v_s) + lam_s theta(phi_s(v_t)) = 0 closes
      a non-conforming cycle through the two tree paths;
    - lam_t outside Fix(theta) makes the tree path there-and-back
      non-conforming.

    On success the Gram matrix is the unique solution of v_t^T gram =
    lam_t theta(phi_t) over a basis of v_t's; nondegeneracy and generator
    invariance follow (and are verified before returning).
    """
    rep = is_irreducible(G)
    if not rep.irreducible:
        raise NotIrreducible(f"form detection needs irreducibility "
                             f"({rep.failed_condition})", witness=rep.witness)
    F = G.F
    th = _twist_fn(F, twist)
    N = len(G.verts)
    P = G.pair
    diam = directed_diameter(G)
    limit = 2 * diam + 1

    def hunt(bound: int) -> ObstructionCycle:
        return _first_obstruction(G, th, twist, min(bound, limit), budget_walks)

    # 1. every edge must be two-way
    for i in range(N):
        for j in G.succ[i]:
            if P[j][i] == 0:
                return hunt(1 + _distances(G, j)[i])

    # 2. 2-cycle weights must be fixed by theta
    for i in range(N):
        for j in G.succ[i]:
            if j < i:
                continue
            w2 = F.mul(P[i][j], P[j][i])
            if th(w2) != w2:
                return hunt(2)

    # 3. propagate lam along a breadth-first tree from vertex 0
    lam: list[int | None] = [None] * N
    depth = [0] * N
    lam[0] = 1
    frontier = [0]
    while frontier:
        nxt = []
        for t in frontier:
            for s in G.succ[t]:
                if lam[s] is None:
                    lam[s] = F.neg(F.div(F.mul(lam[t], P[t][s]), th(P[s][t])))
                    depth[s] = depth[t] + 1
                    nxt.append(s)
        frontier = nxt
    _require(all(x is not None for x in lam),
             "the breadth-first tree misses a vertex of an irreducible graph")

    # 4. every edge must satisfy the pairing relation.  The tree-path cycle
    # through a bad edge is only guaranteed non-conforming when both scaling
    # factors are theta-fixed; otherwise the there-and-back walk to the
    # unfixed vertex is the short witness.
    for t in range(N):
        for s in G.succ[t]:
            if F.add(F.mul(lam[t], P[t][s]), F.mul(lam[s], th(P[s][t]))) != 0:
                if th(lam[s]) != lam[s]:
                    return hunt(2 * depth[s])
                if th(lam[t]) != lam[t]:
                    return hunt(2 * depth[t])
                return hunt(depth[t] + depth[s] + 1)

    # 5. scaling factors must be fixed by theta
    for t in range(N):
        if th(lam[t]) != lam[t]:
            return hunt(2 * depth[t])

    # 6. assemble the Gram matrix from a basis of the v_t
    basis_idx: list[int] = []
    span = Subspace.zero(F, G.n)
    for t in range(N):
        if not span.contains(G.verts[t].v):
            basis_idx.append(t)
            span = span.sum(Subspace.span(F, G.n, [G.verts[t].v]))
    B = Mat(F, tuple(G.verts[t].v for t in basis_idx))
    R = Mat(F, tuple(vec_scale(F, lam[t], tuple(th(a) for a in G.verts[t].phi))
                     for t in basis_idx))
    gram = B.inv().mul(R)

    for t in range(N):
        lhs = gram.vecmat(G.verts[t].v)
        rhs = vec_scale(F, lam[t], tuple(th(a) for a in G.verts[t].phi))
        _require(lhs == rhs, f"the assembled Gram matrix fails the pairing "
                             f"relation at vertex {t}")

    form = SesquiForm(F, gram, twist)
    for t in G.verts:
        if not form.invariant_under(t.matrix()):
            raise NotInvariantForm(
                "constructed form rejected by a generator")  # pragma: no cover
    return form


# -- quadratic recovery -------------------------------------------------------


def recover_quadratic(G: TransvectionGraph, f: SesquiForm):
    """Recover the invariant quadratic form from an invariant symplectic one
    in characteristic 2, or report the violating transvection.

    Each t = 1 + v (x) phi with phi parallel to f(., v) rescales uniquely to
    t = 1 + u (x) f(., u) (square roots are unique in characteristic 2); t
    preserves a quadratic form Q polarizing to f exactly when Q(u) = 1.  Q is
    pinned by Q = 1 on a basis of the u_t and polarization, so the remaining
    generators either confirm it or witness that none exists.

    Only V(T) = V is required (the v_t must span), not full irreducibility:
    the recovery is local to the generator vectors, so it also serves
    reducible orthogonal sets such as the six transvections of a hyperbolic
    quadratic form on GF(2)^4.
    """
    F = G.F
    if F.p != 2:
        raise WrongCharacteristic("quadratic recovery applies in characteristic 2")
    if f.twist != "identity":
        raise BadParameters("quadratic recovery needs a symplectic form")
    if G.vspace.dim < G.n:
        raise NotIrreducible("generator vectors do not span the space",
                             witness=G.vspace)
    for t in G.verts:
        if not f.invariant_under(t.matrix()):
            raise NotInvariantForm("the supplied form is not invariant under T")
    n = G.n

    # unique rescaling u_t = s v_t with phi_t = a f(., v_t), s^2 = a
    us: list[Vec] = []
    for t in G.verts:
        w = f.dual_covector(t.v)
        i0 = next(i for i in range(n) if w[i] != 0)
        a = F.div(t.phi[i0], w[i0])
        if vec_scale(F, a, tuple(w)) != t.phi:  # pragma: no cover - invariance
            raise NotInvariantForm("phi_t is not parallel to f(., v_t)")
        us.append(vec_scale(F, F.sqrt_char2(a), t.v))

    basis_idx: list[int] = []
    span = Subspace.zero(F, n)
    for i, u in enumerate(us):
        if not span.contains(u):
            basis_idx.append(i)
            span = span.sum(Subspace.span(F, n, [u]))
    B = Mat(F, tuple(us[i] for i in basis_idx)).transpose()  # columns = basis

    def q_value(x: Vec) -> int:
        c = B.solve(x)
        acc = 0
        for i in range(n):
            acc = F.add(acc, F.mul(c[i], c[i]))
            for j in range(i + 1, n):
                acc = F.add(acc, F.mul(F.mul(c[i], c[j]),
                                       f.evaluate(us[basis_idx[i]], us[basis_idx[j]])))
        return acc

    ident = Mat.identity(F, n)
    coeffs = [[0] * n for _ in range(n)]
    for i in range(n):
        coeffs[i][i] = q_value(ident.rows[i])
        for j in range(i + 1, n):
            coeffs[i][j] = f.evaluate(ident.rows[i], ident.rows[j])
    Q = QuadraticForm(F, Mat(F, tuple(tuple(r) for r in coeffs)))
    _require(Q.polar.gram.rows == f.gram.rows,
             "the recovered quadratic form does not polarize to the given form")

    for i, u in enumerate(us):
        val = Q.evaluate(u)
        if val != 1:
            return QuadraticObstruction(i, val)
    for t in G.verts:  # the generator criterion implies invariance
        _require(Q.preserved_by(t.matrix()),
                 "a generator does not preserve the recovered quadratic form")
    return Q


# -- the coefficient relation form --------------------------------------------


@dataclass(frozen=True)
class RelationForm:
    """Evaluation context for Q-tilde over a transvection vector list."""

    f: SesquiForm
    vectors: tuple[Vec, ...]

    def __post_init__(self):
        if self.f.F.p != 2:
            raise WrongCharacteristic("the relation form lives in characteristic 2")
        for v in self.vectors:
            if len(v) != self.f.n:
                raise DimensionMismatch("vector length does not match the form")


def _check_len(lam: Sequence[int], ctx: RelationForm) -> None:
    if len(lam) != len(ctx.vectors):
        raise IndexMismatch(
            f"coefficient vector of length {len(lam)} over {len(ctx.vectors)} vectors")


def tilde_q(lam: Sequence[int], ctx: RelationForm) -> int:
    """Q-tilde(lam) = sum lam_t^2 + sum_{t<s} lam_t lam_s f(v_t, v_s)."""
    _check_len(lam, ctx)
    F = ctx.f.F
    acc = 0
    for t in range(len(lam)):
        acc = F.add(acc, F.mul(lam[t], lam[t]))
        for s in range(t + 1, len(lam)):
            acc = F.add(acc, F.mul(F.mul(lam[t], lam[s]),
                                   ctx.f.evaluate(ctx.vectors[t], ctx.vectors[s])))
    return acc


def tilde_f(lam: Sequence[int], mu: Sequence[int], ctx: RelationForm) -> int:
    """f-tilde(lam, mu) = sum_{t != s} lam_t mu_s f(v_t, v_s); polarizes
    Q-tilde."""
    _check_len(lam, ctx)
    _check_len(mu, ctx)
    F = ctx.f.F
    acc = 0
    for t in range(len(lam)):
        for s in range(len(mu)):
            if t == s:
                continue
            acc = F.add(acc, F.mul(F.mul(lam[t], mu[s]),
                                   ctx.f.evaluate(ctx.vectors[t], ctx.vectors[s])))
    return acc


def relation_check(lam: Sequence[int], ctx: RelationForm) -> bool:
    """(sum lam_t v_t = 0) implies (Q-tilde(lam) = 0), for this lam."""
    _check_len(lam, ctx)
    F = ctx.f.F
    total = tuple([0] * ctx.f.n)
    for c, v in zip(lam, ctx.vectors):
        total = vec_add(F, total, vec_scale(F, c, v))
    if not is_zero_vec(total):
        return True
    return tilde_q(lam, ctx) == 0


# -- transvective vectors -----------------------------------------------------


def is_transvective(v: Sequence[int], kind: str, form=None) -> bool:
    """Whether some transvection of the given geometry moves along v.

    linear/symplectic: any nonzero vector; unitary: nonzero isotropic
    (f(v,v) = 0); orthogonal: nonsingular (Q(v) != 0).  The zero vector is
    never transvective.
    """
    if kind not in KINDS:
        raise UnsupportedKind(f"unknown kind {kind!r}")
    v = tuple(v)
    if is_zero_vec(v):
        return False
    if kind in ("linear", "symplectic"):
        return True
    if kind == "unitary":
        if not isinstance(form, SesquiForm):
            raise MissingForm("unitary kind needs the sesquilinear form")
        return form.evaluate(v, v) == 0
    if not isinstance(form, QuadraticForm):
        raise MissingForm("orthogonal kind needs the quadratic form")
    return form.evaluate(v) != 0


def transvective_fixup(v: Sequence[int], parts: Sequence[Vec], kind: str,
                       form=None) -> tuple[int, int, int, int]:
    """Witnesses (i, j, lam, mu) making v - lam*parts[i] - mu*parts[j]
    transvective, where v = sum(parts) and every part is transvective.

    Already-transvective v gets (0, 0, 0, 0).  Unitary geometry needs a
    single correction (scan lam; the trace form is onto, so some part and
    scalar work).  Orthogonal geometry scans single corrections and falls
    back to the two-index correction v - parts[i] - parts[j] over GF(2).
    """
    if kind not in KINDS:
        raise UnsupportedKind(f"unknown kind {kind!r}")
    v = tuple(v)
    parts = [tuple(p) for p in parts]
    for part in parts:
        if not is_transvective(part, kind, form):
            raise NoWitness("a part is not transvective")
    if is_transvective(v, kind, form):
        return (0, 0, 0, 0)
    if kind in ("linear", "symplectic"):
        if not parts:
            raise NoWitness("cannot fix the zero vector without parts")
        return (0, 0, 1, 0)
    F = form.F
    acc = tuple([0] * len(v))
    for part in parts:
        acc = vec_add(F, acc, part)
    if acc != v:
        raise NoWitness("parts do not sum to v")
    if kind == "unitary":
        for i, part in enumerate(parts):
            for lam in F.nonzero():
                cand = vec_sub(F, v, vec_scale(F, lam, part))
                if is_transvective(cand, kind, form):
                    return (i, 0, lam, 0)
        raise NoWitness("no single unitary correction exists")
    # orthogonal
    for i, part in enumerate(parts):
        for lam in F.nonzero():
            cand = vec_sub(F, v, vec_scale(F, lam, part))
            if is_transvective(cand, kind, form):
                return (i, 0, lam, 0)
    for i in range(len(parts)):
        for j in range(len(parts)):
            if i == j:
                continue
            cand = vec_sub(F, vec_sub(F, v, parts[i]), parts[j])
            if is_transvective(cand, kind, form):
                return (i, j, 1, 1)
    raise NoWitness("no orthogonal correction exists")


def transvective_split(v: Sequence[int], basis: Sequence[Vec], kind: str,
                       form=None, F: Field | None = None) -> list[Vec]:
    """Split a transvective v into 4 transvective vectors summing to v, each
    supported on at most k/2 + 2 basis vectors (k = support of v).

    Follows the halving construction: v = u1 + u2 on support halves, fixups
    turn u1 and the corrected u2 into transvective v1, v2, and the correction
    terms become the basis-multiple parts v3, v4.  Zero correction terms are
    not transvective, so they are repaired by canceling pairs (b, -b), scalar
    splits of the other term, or, over GF(2), partner sums p + b, b.
    """
    if isinstance(form, (SesquiForm, QuadraticForm)):
        F = form.F
    if F is None:
        raise BadParameters("need a field (via the form or explicitly)")
    v = tuple(v)
    n = len(v)
    if len(basis) != n:
        raise BadParameters("need a full basis")
    for b in basis:
        if not is_transvective(b, kind, form):
            raise NoWitness("basis vector is not transvective")
    if not is_transvective(v, kind, form):
        raise BadParameters("v must be transvective")
    B = Mat(F, tuple(tuple(b) for b in basis)).transpose()  # columns = basis
    coords = B.solve(v)
    support = [i for i in range(n) if coords[i] != 0]
    k = len(support)

    def component(i: int) -> Vec:
        return vec_scale(F, coords[i], tuple(basis[i]))

    def first_partner(x: Vec) -> Vec:
        """First basis vector b with x + b transvective."""
        for b in basis:
            cand = vec_add(F, x, tuple(b))
            if is_transvective(cand, kind, form):
                return tuple(b)
        raise NoWitness("no partner basis vector found")

    half = (k + 1) // 2
    first, second = support[:half], support[half:]
    u1 = tuple([0] * n)
    for i in first:
        u1 = vec_add(F, u1, component(i))
    u2 = vec_sub(F, v, u1)

    parts1 = [component(i) for i in first]
    i1, j1, lam, mu = transvective_fixup(u1, parts1, kind, form)
    corr = vec_add(F, vec_scale(F, lam, parts1[i1]), vec_scale(F, mu, parts1[j1]))
    v1 = vec_sub(F, u1, corr)
    u2p = vec_add(F, u2, corr)

    if is_zero_vec(u2p):
        # k = 1 and no correction was needed: pad with parts summing to zero
        if F.q > 2:
            b = tuple(basis[0])
            if F.p == 2:
                om = F.primitive_element()
                tail = [b, vec_scale(F, om, b), vec_scale(F, F.add(1, om), b)]
            else:
                tail = [b, b, vec_scale(F, F.neg(2 % F.p), b)]
            out = [v1] + tail
        else:
            b = first_partner(v1)
            out = [vec_add(F, v1, b), b, b, b]
    else:
        coords2 = B.solve(u2p)
        idx2 = [i for i in range(n) if coords2[i] != 0]
        parts2 = [vec_scale(F, coords2[i], tuple(basis[i])) for i in idx2]
        i2, j2, lam2, mu2 = transvective_fixup(u2p, parts2, kind, form)
        t3 = vec_scale(F, lam2, parts2[i2])
        t4 = vec_scale(F, mu2, parts2[j2])
        v2 = vec_sub(F, vec_sub(F, u2p, t3), t4)
        if is_zero_vec(t3) and is_zero_vec(t4):
            b = tuple(basis[0])
            t3, t4 = b, vec_scale(F, F.neg(1), b)
        elif is_zero_vec(t3) or is_zero_vec(t4):
            live = t4 if is_zero_vec(t3) else t3
            if F.q > 2:
                alpha = next(a for a in F.nonzero() if F.sub(1, a) != 0)
                t3 = vec_scale(F, alpha, live)
                t4 = vec_scale(F, F.sub(1, alpha), live)
            else:
                b = first_partner(live)
                t3, t4 = vec_add(F, live, b), b
        out = [v1, v2, t3, t4]

    total = tuple([0] * n)
    for x in out:
        total = vec_add(F, total, x)
    _require(total == v, "the transvective parts do not sum to the vector")
    for x in out:
        _require(is_transvective(x, kind, form),
                 f"a part of the split is not {kind}-transvective")
        sx = sum(1 for c in B.solve(x) if c != 0)
        _require(2 * sx <= k + 4, f"a part of the split has support {sx} "
                                  f"> (k + 4) / 2 with k = {k}")
    return out


# -- solving Q on an affine subspace ------------------------------------------


def solve_q_on_affine(Q: QuadraticForm, w: Sequence[int], H: Subspace, c: int,
                      budget_points: int = POINT_BUDGET,
                      budget_trials: int = TRIAL_BUDGET,
                      rng: random.Random | None = None) -> Vec:
    """A point x in w + H with Q(x) = c.

    Exhaustive when the coset is small enough, otherwise randomized trials.
    Existence is guaranteed only from dimension 10 up (codimension-2 H), so
    NotFound is a legitimate answer below that.
    """
    F = Q.F
    w = tuple(w)
    if H.n != Q.n or len(w) != Q.n:
        raise DimensionMismatch("ambient dimensions do not match")
    if F.q ** H.dim <= budget_points:
        for h in H.elements():
            x = vec_add(F, w, h)
            if Q.evaluate(x) == c:
                return x
        raise NotFound("no point of the coset attains the value")
    if rng is None:
        rng = random.Random(0)
    basis = H.basis
    for _ in range(budget_trials):
        x = w
        for b in basis:
            x = vec_add(F, x, vec_scale(F, rng.randrange(F.q), b))
        if Q.evaluate(x) == c:
            return x
    raise NotFound("randomized search exhausted its trial budget")
