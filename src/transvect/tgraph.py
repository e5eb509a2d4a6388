"""Directed graphs on transvection sets.

For a set T of transvections there is a directed edge t -> s exactly when
phi_t(v_s) != 0, equivalently when (t-1)(s-1) != 0.  Cycle weights, strong
connectivity, and the spans V(T) = <v_t>, V*(T) = <phi_t> control everything
else in this package: irreducibility, the defining field, invariant forms,
and the constructive procedures (densify / connect_up / winkle) that massage
a generating set while staying inside a bounded power of T.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import (
    BadParameters,
    CapExceeded,
    DimensionMismatch,
    FieldMismatch,
    NotDense,
    NotInvariantForm,
    NotIrreducible,
    NotStronglyConnected,
    _require,
)
from .gf import Field
from .linalg import Mat, Subspace, Vec, _digits, dot
from .transvections import Transvection

__all__ = [
    "WALK_BUDGET",
    "PROJECTIVE_BUDGET",
    "MAX_CYCLE_LEN",
    "TransvectionGraph",
    "CycleRecord",
    "IrreducibilityReport",
    "DefiningFieldReport",
    "SectionRestriction",
    "build_graph",
    "scc",
    "is_strongly_connected",
    "directed_diameter",
    "is_irreducible",
    "cycle_weight",
    "cycles_up_to",
    "cycle_symplectic_defect",
    "cycle_unitary_defect",
    "defining_field",
    "projective_points",
    "is_dense",
    "shorten_path",
    "densify",
    "connect_up",
    "defect",
    "winkle",
    "restrict_to_section",
    "word_matrix",
]

WALK_BUDGET = 10**6
PROJECTIVE_BUDGET = 2**20
MAX_CYCLE_LEN = 8

# A word is a tuple of (generator index, exponent +1/-1) pairs.
Word = tuple


class TransvectionGraph:
    """The graph of a transvection set, with pairing values cached.

    pair[i][j] = phi_i(v_j); adj[i][j] = (pair[i][j] != 0).  No self-loops
    (phi(v) = 0 by isotropy).
    """

    __slots__ = ("F", "n", "verts", "pair", "adj", "succ", "vspace", "dual_space")

    def __init__(self, verts: Sequence[Transvection]):
        verts = list(verts)
        if not verts:
            raise BadParameters("need a nonempty transvection set")
        F = verts[0].F
        n = verts[0].n
        for t in verts:
            if t.F != F:
                raise FieldMismatch("transvections over different fields")
            if t.n != n:
                raise DimensionMismatch("transvections of different ambient dimension")
        self.F = F
        self.n = n
        self.verts = verts
        N = len(verts)
        pair = tuple(tuple(dot(F, t.phi, s.v) for s in verts) for t in verts)
        self.pair = pair
        self.adj = tuple(tuple(bool(x) for x in row) for row in pair)
        self.succ = [[j for j in range(N) if pair[i][j]] for i in range(N)]
        self.vspace = Subspace.span(F, n, [t.v for t in verts])
        self.dual_space = Subspace.span(F, n, [t.phi for t in verts])

    def __len__(self) -> int:
        return len(self.verts)


def build_graph(T: Sequence[Transvection]) -> TransvectionGraph:
    return TransvectionGraph(T)


def scc(G: TransvectionGraph) -> list[list[int]]:
    """Strongly connected components (Tarjan), each sorted, ordered by their
    smallest vertex index."""
    N = len(G.verts)
    index = [-1] * N
    low = [0] * N
    on = [False] * N
    st: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(N):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        st.append(root)
        on[root] = True
        work = [(root, iter(G.succ[root]))]
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    st.append(w)
                    on[w] = True
                    work.append((w, iter(G.succ[w])))
                    advanced = True
                    break
                if on[w] and index[w] < low[v]:
                    low[v] = index[w]
            if advanced:
                continue
            work.pop()
            if work and low[v] < low[work[-1][0]]:
                low[work[-1][0]] = low[v]
            if low[v] == index[v]:
                comp = []
                while True:
                    w = st.pop()
                    on[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comp.sort()
                comps.append(comp)
    comps.sort(key=lambda c: c[0])
    return comps


def is_strongly_connected(G: TransvectionGraph) -> bool:
    return len(scc(G)) == 1


def _distances(G: TransvectionGraph, s: int) -> list[int]:
    """Edge distances from vertex s, with -1 where s does not reach."""
    dist = [-1] * len(G.verts)
    dist[s] = 0
    frontier = [s]
    while frontier:
        nxt = []
        for u in frontier:
            for w in G.succ[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def directed_diameter(G: TransvectionGraph) -> int:
    best = 0
    for s in range(len(G.verts)):
        dist = _distances(G, s)
        if min(dist) < 0:
            raise NotStronglyConnected("diameter undefined: graph not strongly connected")
        best = max(best, max(dist))
    return best


@dataclass(frozen=True)
class IrreducibilityReport:
    irreducible: bool
    failed_condition: str | None = None
    witness: Subspace | None = None


def is_irreducible(G: TransvectionGraph) -> IrreducibilityReport:
    """<T> acts irreducibly iff V(T) = V, V*(T) = V*, and the graph is
    strongly connected.  On failure the report carries a proper nonzero
    invariant subspace:

    - v_span: V(T) itself (each t maps it into itself);
    - dual_span: the annihilator of V*(T) (fixed pointwise);
    - connectivity: V(S) for a source component S (no edges enter S, so no
      phi_t with t outside S is nonzero on it).
    """
    F, n = G.F, G.n
    if G.vspace.dim < n:
        return IrreducibilityReport(False, "v_span", G.vspace)
    if G.dual_space.dim < n:
        return IrreducibilityReport(False, "dual_span", G.dual_space.perp())
    comps = scc(G)
    if len(comps) > 1:
        cid = [0] * len(G.verts)
        for c, comp in enumerate(comps):
            for i in comp:
                cid[i] = c
        incoming = [False] * len(comps)
        for i in range(len(G.verts)):
            for j in G.succ[i]:
                if cid[i] != cid[j]:
                    incoming[cid[j]] = True
        source = next(comp for c, comp in enumerate(comps) if not incoming[c])
        U = Subspace.span(F, n, [G.verts[i].v for i in source])
        return IrreducibilityReport(False, "connectivity", U)
    return IrreducibilityReport(True)


def _require_irreducible(G: TransvectionGraph) -> None:
    rep = is_irreducible(G)
    if not rep.irreducible:
        raise NotIrreducible(f"action is reducible ({rep.failed_condition})",
                             witness=rep.witness)


# -- cycles and weights ----------------------------------------------------


@dataclass(frozen=True)
class CycleRecord:
    verts: tuple[int, ...]
    weight: int


def cycle_weight(G: TransvectionGraph, verts: Sequence[int]) -> int:
    """Product phi_1(v_2) ... phi_k(v_1); zero unless every arc is an edge."""
    F = G.F
    w = 1
    k = len(verts)
    for i in range(k):
        w = F.mul(w, G.pair[verts[i]][verts[(i + 1) % k]])
        if w == 0:
            return 0
    return w


def _canonical_rotation(verts: tuple[int, ...]) -> tuple[int, ...]:
    return min(verts[i:] + verts[:i] for i in range(len(verts)))


def cycles_up_to(G: TransvectionGraph, L: int,
                 budget_walks: int = WALK_BUDGET) -> list[CycleRecord]:
    """All closed walks of length 2..L with nonzero weight, one record per
    rotation class (canonical rotation = lexicographically least), sorted by
    (length, vertex tuple)."""
    if L > MAX_CYCLE_LEN:
        raise BadParameters(f"cycle length cap is {MAX_CYCLE_LEN}, got {L}")
    return _closed_walks(G, L, budget_walks)


def _closed_walks(G: TransvectionGraph, L: int,
                  budget_walks: int) -> list[CycleRecord]:
    """cycles_up_to without the length cap; form detection needs lengths
    up to 2D+1 for the directed diameter D."""
    F = G.F
    N = len(G.verts)
    found: dict[tuple[int, ...], int] = {}
    steps = 0
    path: list[int] = []

    def dfs(start: int, u: int, w: int) -> None:
        nonlocal steps
        steps += 1
        if steps > budget_walks:
            raise CapExceeded("closed-walk enumeration budget exhausted",
                              count=budget_walks)
        if len(path) >= 2 and G.pair[u][start]:
            key = _canonical_rotation(tuple(path))
            if key not in found:
                found[key] = F.mul(w, G.pair[u][start])
        if len(path) == L:
            return
        for t in G.succ[u]:
            if t < start:
                continue
            path.append(t)
            dfs(start, t, F.mul(w, G.pair[u][t]))
            path.pop()

    for s in range(N):
        path = [s]
        dfs(s, s, 1)
    records = [CycleRecord(v, w) for v, w in found.items()]
    records.sort(key=lambda r: (len(r.verts), r.verts))
    return records


def cycle_symplectic_defect(cycle, G: TransvectionGraph) -> int:
    """d_s = w(t_1..t_k) - (-1)^k w(t_k..t_1); zero on every cycle iff an
    invariant alternating form exists (given irreducibility)."""
    verts = tuple(cycle.verts if isinstance(cycle, CycleRecord) else cycle)
    F = G.F
    wf = cycle_weight(G, verts)
    wr = cycle_weight(G, tuple(reversed(verts)))
    if len(verts) % 2 == 0:
        return F.sub(wf, wr)
    return F.add(wf, wr)


def cycle_unitary_defect(cycle, G: TransvectionGraph,
                         theta: Callable[[int], int] | None = None) -> int:
    """d_theta = w(t_1..t_k) - (-1)^k theta(w(t_k..t_1))."""
    verts = tuple(cycle.verts if isinstance(cycle, CycleRecord) else cycle)
    F = G.F
    th = theta if theta is not None else F.involution
    wf = cycle_weight(G, verts)
    wr = th(cycle_weight(G, tuple(reversed(verts))))
    if len(verts) % 2 == 0:
        return F.sub(wf, wr)
    return F.add(wf, wr)


# -- defining field --------------------------------------------------------


@dataclass(frozen=True)
class DefiningFieldReport:
    degree: int
    status: str  # "dense" | "stabilized" | "cap-limited"
    witnesses: tuple[CycleRecord, ...]
    history: tuple[tuple[int, int], ...]  # (max length, degree) pairs


def _witness_cycles(F: Field, records: list[CycleRecord],
                    target: int) -> tuple[CycleRecord, ...]:
    out: list[CycleRecord] = []
    weights: list[int] = []
    for r in records:
        if F.subfield_generated(weights) == target:
            break
        if F.subfield_generated(weights + [r.weight]) > F.subfield_generated(weights):
            out.append(r)
            weights.append(r.weight)
    return tuple(out)


def defining_field(G: TransvectionGraph, dense_hint: bool = False,
                   budget_walks: int = WALK_BUDGET) -> DefiningFieldReport:
    """Degree over F_p of the subfield generated by cycle weights.

    With dense_hint, weights of cycles of length <= 5 already generate the
    whole trace field, so a single enumeration suffices.  Otherwise the
    length bound is raised until the degree is the full field, holds for 3
    consecutive bounds ("stabilized"), or hits the cap ("cap-limited").
    """
    F = G.F
    if dense_hint:
        records = cycles_up_to(G, 5, budget_walks)
        deg = F.subfield_generated([r.weight for r in records])
        return DefiningFieldReport(deg, "dense", _witness_cycles(F, records, deg),
                                   ((5, deg),))
    history: list[tuple[int, int]] = []
    prev = -1
    stable = 0
    deg = 1
    records: list[CycleRecord] = []
    for k in range(2, MAX_CYCLE_LEN + 1):
        records = cycles_up_to(G, k, budget_walks)
        deg = F.subfield_generated([r.weight for r in records])
        history.append((k, deg))
        if deg == F.f:
            return DefiningFieldReport(deg, "stabilized",
                                       _witness_cycles(F, records, deg),
                                       tuple(history))
        stable = stable + 1 if deg == prev else 1
        prev = deg
        if stable >= 3:
            return DefiningFieldReport(deg, "stabilized",
                                       _witness_cycles(F, records, deg),
                                       tuple(history))
    return DefiningFieldReport(deg, "cap-limited",
                               _witness_cycles(F, records, deg), tuple(history))


# -- density ---------------------------------------------------------------

_POINT_CACHE: dict[tuple[int, int, int], tuple[Vec, ...]] = {}


def projective_points(F: Field, n: int) -> tuple[Vec, ...]:
    """Canonical representatives (first nonzero entry 1) of the projective
    points of F^n, ordered by integer encoding (first coordinate least
    significant).

    A point whose first nonzero coordinate is k has the code
    q^k (1 + q m) for some m < q^(n-k-1), so the codes are generated
    directly, sorted and decoded."""
    key = (F.p, F.f, n)
    cached = _POINT_CACHE.get(key)
    if cached is not None:
        return cached
    q = F.q
    codes = sorted(c for k in range(n) for c in range(q**k, q**n, q ** (k + 1)))
    pts = tuple(_digits(q, n, c) for c in codes)
    _POINT_CACHE[key] = pts
    return pts


def _coverage_masks(F: Field, pts: tuple[Vec, ...],
                    t: Transvection) -> tuple[int, int]:
    """(A, B): A marks points v with phi_t(v) != 0, B marks points phi with
    phi(v_t) != 0."""
    a = 0
    b = 0
    for i, x in enumerate(pts):
        if dot(F, t.phi, x):
            a |= 1 << i
        if dot(F, x, t.v):
            b |= 1 << i
    return a, b


def is_dense(G: TransvectionGraph,
             budget_projective: int = PROJECTIVE_BUDGET) -> tuple[bool, tuple[Vec, Vec] | None]:
    """T is dense when every pair (v, phi) of nonzero vector and covector has
    a witness t with phi(v_t) != 0 and phi_t(v) != 0.  Scans projective
    points; on failure returns the first violating (v, phi)."""
    F, n = G.F, G.n
    if F.q**n > budget_projective:
        raise CapExceeded("projective scan budget exhausted", count=budget_projective)
    pts = projective_points(F, n)
    P = len(pts)
    full = (1 << P) - 1
    masks = [_coverage_masks(F, pts, t) for t in G.verts]
    for j in range(P):
        covered = 0
        for a, b in masks:
            if (b >> j) & 1:
                covered |= a
        if covered != full:
            i = next(i for i in range(P) if not ((covered >> i) & 1))
            return False, (pts[i], pts[j])
    return True, None


# -- constructive procedures -----------------------------------------------


def word_matrix(T: Sequence[Transvection], word: Word) -> Mat:
    """Evaluate a word (list of (index, +-1) pairs) over the set T."""
    F = T[0].F
    M = Mat.identity(F, T[0].n)
    for i, e in word:
        t = T[i] if e == 1 else T[i].inverse()
        M = M.mul(t.matrix())
    return M


def shorten_path(G: TransvectionGraph, phi: Vec, v: Vec) -> tuple[Transvection, Word]:
    """A transvection t' with phi(v_{t'}) != 0 and phi_{t'}(v) != 0, as a word
    of length 2m-1 <= 2n-1 in T.

    Takes a shortest chain phi -> t_1 -> ... -> t_m -> v (multi-source BFS)
    and conjugates: t' = (t_1..t_{m-1}) t_m (t_1..t_{m-1})^-1.  Minimality
    makes the v_{t_i} independent, so m <= n.
    """
    _require_irreducible(G)
    F = G.F
    starts = [i for i, t in enumerate(G.verts) if dot(F, phi, t.v)]
    goals = {i for i, t in enumerate(G.verts) if dot(F, t.phi, v)}
    parent: dict[int, int | None] = {s: None for s in starts}
    found = next((s for s in starts if s in goals), None)
    frontier = starts
    while found is None and frontier:
        nxt = []
        for u in frontier:
            for w in G.succ[u]:
                if w not in parent:
                    parent[w] = u
                    nxt.append(w)
                    if w in goals:
                        found = w
                        break
            if found is not None:
                break
        frontier = nxt
    if found is None:  # pragma: no cover - impossible for irreducible input
        raise NotIrreducible("no chain from phi to v")
    rev = []
    node: int | None = found
    while node is not None:
        rev.append(node)
        node = parent[node]
    ipath = rev[::-1]
    if len(ipath) == 1:
        tprime = G.verts[ipath[0]]
        word: Word = ((ipath[0], 1),)
    else:
        g = Mat.identity(F, G.n)
        for i in ipath[:-1]:
            g = g.mul(G.verts[i].matrix())
        tprime = G.verts[ipath[-1]].conjugate(g)
        word = (tuple((i, 1) for i in ipath)
                + tuple((i, -1) for i in reversed(ipath[:-1])))
    _require(dot(F, phi, tprime.v) != 0 and dot(F, tprime.phi, v) != 0,
             "shortened witness failed its defining property")
    _require(word_matrix(G.verts, word) == tprime.matrix(),
             "the word of a shortened witness does not evaluate to it")
    return tprime, word


def densify(T: Sequence[Transvection],
            budget_projective: int = PROJECTIVE_BUDGET) -> tuple[list[Transvection], list[Word]]:
    """Extend T to a dense set using witnesses from the ball of radius 2n-1.

    Returns (T_d, words) with T as a prefix of T_d; words[i] evaluates to
    T_d[i] over T and has length <= 2n-1.
    """
    G = build_graph(T)
    _require_irreducible(G)
    F, n = G.F, G.n
    if F.q**n > budget_projective:
        raise CapExceeded("projective scan budget exhausted", count=budget_projective)
    pts = projective_points(F, n)
    P = len(pts)
    full = (1 << P) - 1
    out = list(T)
    words: list[Word] = [((i, 1),) for i in range(len(T))]
    masks = [_coverage_masks(F, pts, t) for t in out]
    for j in range(P):
        phi = pts[j]
        covered = 0
        for a, b in masks:
            if (b >> j) & 1:
                covered |= a
        for i in range(P):
            if (covered >> i) & 1:
                continue
            tprime, word = shorten_path(G, phi, pts[i])
            _require(len(word) <= 2 * n - 1,
                     f"a density witness word has length {len(word)} > 2n - 1")
            out.append(tprime)
            words.append(word)
            a, b = _coverage_masks(F, pts, tprime)
            masks.append((a, b))
            _require((b >> j) & 1 and (a >> i) & 1,
                     f"a density witness does not cover the pair ({i}, {j})")
            covered |= a
    ok, _ = is_dense(build_graph(out), budget_projective)
    _require(ok, "densify returned a set that is not dense")
    return out, words


def connect_up(T_dense: Sequence[Transvection], T0: Sequence[Transvection],
               form=None) -> list[Transvection]:
    """Extend T0 by witnesses from the dense set T_dense until its graph is
    strongly connected.

    Components are linked through their lowest-index representatives in a
    cycle (k witnesses for k components) or, when an invariant form makes
    adjacency symmetric, in an open chain (k-1 witnesses).
    """
    out = list(T0)
    G0 = build_graph(out)
    F = G0.F
    comps = scc(G0)
    k = len(comps)
    if k == 1:
        return out
    reps = [comp[0] for comp in comps]
    pairs = [(reps[i], reps[i + 1]) for i in range(k - 1)]
    if form is None:
        pairs.append((reps[k - 1], reps[0]))
    for a, b in pairs:
        ta, tb = G0.verts[a], G0.verts[b]
        u = next((u for u in T_dense
                  if dot(F, ta.phi, u.v) and dot(F, u.phi, tb.v)), None)
        if u is None:
            raise NotDense("no witness links the components",
                           counterexample=(tb.v, ta.phi))
        if u not in out:
            out.append(u)
    if not is_strongly_connected(build_graph(out)):
        raise NotInvariantForm(
            "open-chain closure failed: the supplied form does not make "
            "adjacency symmetric on these transvections")
    return out


def defect(G: TransvectionGraph) -> int:
    """min(dim V(T) cap V*(T)-perp, dim V(T)-perp cap V*(T)); zero on one
    side is weak nondegeneracy."""
    k1 = G.vspace.intersect(G.dual_space.perp())
    k2 = G.vspace.perp().intersect(G.dual_space)
    return min(k1.dim, k2.dim)


def winkle(T_dense: Sequence[Transvection],
           T0: Sequence[Transvection]) -> list[Transvection]:
    """Kill the pairing kernels of a strongly connected T0 one dimension at a
    time, using density witnesses for the lexicographically least kernel
    elements.  Adds exactly defect(T0) vertices; preserves strong
    connectivity."""
    out = list(T0)
    G = build_graph(out)
    if not is_strongly_connected(G):
        raise NotStronglyConnected("winkle needs a strongly connected start set")
    F = G.F
    while True:
        k1 = G.vspace.intersect(G.dual_space.perp())
        k2 = G.vspace.perp().intersect(G.dual_space)
        if min(k1.dim, k2.dim) == 0:
            break
        u = k1.lex_least_nonzero()
        psi = k2.lex_least_nonzero()
        t = next((t for t in T_dense if dot(F, psi, t.v) and dot(F, t.phi, u)), None)
        if t is None:
            raise NotDense("no witness for the kernel pair", counterexample=(u, psi))
        out.append(t)
        G = build_graph(out)
        k1b = G.vspace.intersect(G.dual_space.perp())
        k2b = G.vspace.perp().intersect(G.dual_space)
        _require(k1b.dim == k1.dim - 1 and k2b.dim == k2.dim - 1,
                 "a winkle step did not lower both kernel dimensions by one")
    _require(is_strongly_connected(G), "winkle lost strong connectivity")
    return out


# -- section restriction ---------------------------------------------------


@dataclass(frozen=True)
class SectionRestriction:
    U: Subspace
    W: Subspace
    tbar: tuple[Transvection, ...]
    index_map: tuple[int, ...]
    graph: TransvectionGraph
    basis_w: tuple[Vec, ...]
    basis_c: tuple[Vec, ...]


def restrict_to_section(G: TransvectionGraph) -> SectionRestriction:
    """Project T onto U/W where U = V(T) and W = V(T) cap V*(T)-perp.

    Every phi_t vanishes on W, so each t descends to a transvection of U/W;
    edges and cycle weights are preserved, and the projected action is
    irreducible.
    """
    if not is_strongly_connected(G):
        raise NotStronglyConnected("section restriction needs strong connectivity")
    F = G.F
    U = G.vspace
    W = U.intersect(G.dual_space.perp())
    span = W
    basis_c: list[Vec] = []
    for row in U.basis:
        if not span.contains(row):
            basis_c.append(row)
            span = span.sum(Subspace.span(F, G.n, [row]))
    if not basis_c:
        raise BadParameters("section has dimension zero")
    cols = tuple(W.basis) + tuple(basis_c)
    Bmat = Mat(F, cols).transpose()
    nw = len(W.basis)
    tbar: list[Transvection] = []
    seen: dict[Transvection, int] = {}
    index_map: list[int] = []
    for t in G.verts:
        coords = Bmat.solve(t.v)
        vbar = tuple(coords[nw:])
        phibar = tuple(dot(F, t.phi, c) for c in basis_c)
        tb = Transvection(F, vbar, phibar)
        idx = seen.get(tb)
        if idx is None:
            idx = len(tbar)
            seen[tb] = idx
            tbar.append(tb)
        index_map.append(idx)
    Gbar = build_graph(tbar)
    N = len(G.verts)
    _require(all(bool(G.pair[i][j]) == bool(Gbar.pair[index_map[i]][index_map[j]])
                 for i in range(N) for j in range(N)),
             "the section restriction changes an edge")
    return SectionRestriction(U, W, tuple(tbar), tuple(index_map), Gbar,
                              tuple(W.basis), tuple(basis_c))
