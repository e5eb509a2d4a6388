"""Directed graphs on transvection sets.

For a set T of transvections there is a directed edge t -> s exactly when
phi_t(v_s) != 0, equivalently when (t-1)(s-1) != 0.  Cycle weights, strong
connectivity, and the spans V(T) = <v_t>, V*(T) = <phi_t> control everything
else in this package: irreducibility, the defining field, invariant forms,
and the constructive procedures (densify / connect_up / winkle) that massage
a generating set while staying inside a bounded power of T.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Iterator

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
from .cayley import _RowTable
from .gf import Field
from .linalg import Mat, Subspace, Vec, _code, _digits, dot
from .transvections import Transvection

__all__ = [
    "WALK_BUDGET",
    "PROJECTIVE_BUDGET",
    "TransvectionGraph",
    "CycleRecord",
    "IrreducibilityReport",
    "DefiningFieldReport",
    "SectionRestriction",
    "build_graph",
    "scc",
    "is_strongly_connected",
    "is_irreducible",
    "cycle_weight",
    "cycle_symplectic_defect",
    "cycle_unitary_defect",
    "defining_field",
    "is_dense",
    "shorten_path",
    "densify",
    "connect_up",
    "defect",
    "winkle",
    "restrict_to_section",
    "word_matrix",
]

# Steps of a closed-walk stream and points of a projective scan; read when
# a search starts, so assigning the module attribute moves every guard.
WALK_BUDGET = 10**6
PROJECTIVE_BUDGET = 2**20

# A word is a tuple of (generator index, exponent +1/-1) pairs.
Word = tuple


def _pairing(F: Field, phi: Vec) -> Callable[[int], int]:
    """The covector phi as a map from the code of v (the `linalg` codec) to
    phi(v): the image of the code under the one-column row table of phi,
    over GF(2) the parity of the bits the two codes share."""
    if F.q == 2:
        c = _code(2, phi)
        return lambda v: (c & v).bit_count() & 1
    return _RowTable(F, phi, 1).image


class TransvectionGraph(Sequence):
    """The graph of a transvection set, with pairing values cached.

    pair[i][j] = phi_i(v_j), read off the codes of the v's (`_pairing`);
    succ[i] lists the j with pair[i][j] != 0.  No self-loops (phi(v) = 0 by
    isotropy).  The strongly connected components are found on first use
    and kept (`components`).  The graph is a Sequence of its vertices, so
    it can stand wherever a transvection set is read.
    """

    __slots__ = ("F", "n", "verts", "pair", "succ", "vspace", "dual_space",
                 "_components")

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
        codes = [_code(F.q, s.v) for s in verts]
        pair = tuple(tuple(map(_pairing(F, t.phi), codes)) for t in verts)
        self.pair = pair
        self.succ = [[j for j in range(N) if pair[i][j]] for i in range(N)]
        self.vspace = Subspace(F, n, [t.v for t in verts])
        self.dual_space = Subspace(F, n, [t.phi for t in verts])
        self._components: tuple[tuple[int, ...], ...] | None = None

    @property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """The strongly connected components (`_tarjan`), computed on the
        first read and kept, since the vertices and edges never change."""
        if self._components is None:
            self._components = _tarjan(self.succ)
        return self._components

    def __len__(self) -> int:
        return len(self.verts)

    def __iter__(self) -> Iterator[Transvection]:
        return iter(self.verts)

    def __getitem__(self, i):
        return self.verts[i]


def build_graph(T: Sequence[Transvection]) -> TransvectionGraph:
    """The graph of T; a graph passed as T is returned as it is, so a caller
    that holds one hands it on instead of a second build."""
    if isinstance(T, TransvectionGraph):
        return T
    return TransvectionGraph(T)


def _tarjan(succ: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    """Strongly connected components of the graph with these successor
    lists (Tarjan), each sorted, ordered by their smallest vertex."""
    N = len(succ)
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
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    st.append(w)
                    on[w] = True
                    work.append((w, iter(succ[w])))
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
    return tuple(map(tuple, comps))


def scc(G: TransvectionGraph) -> list[list[int]]:
    """Strongly connected components, each sorted, ordered by their
    smallest vertex index (a copy of `G.components`)."""
    return [list(c) for c in G.components]


def is_strongly_connected(G: TransvectionGraph) -> bool:
    return len(G.components) == 1


def _tree_edges(G: TransvectionGraph, *roots: int) -> list[tuple[int, int]]:
    """The edges t -> u of the breadth-first forest from the roots, in the
    order the search finds them, so each edge starts at a root or at the
    end of an earlier edge."""
    order, seen, edges = list(roots), set(roots), []
    for t in order:
        for u in G.succ[t]:
            if u not in seen:
                seen.add(u)
                order.append(u)
                edges.append((t, u))
    return edges


def _distances(G: TransvectionGraph, s: int) -> list[int]:
    """Edge distances from vertex s, with -1 where s does not reach."""
    dist = [-1] * len(G.verts)
    dist[s] = 0
    for t, u in _tree_edges(G, s):
        dist[u] = dist[t] + 1
    return dist


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
    comps = G.components
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
        U = Subspace(F, n, [G.verts[i].v for i in source])
        return IrreducibilityReport(False, "connectivity", U)
    return IrreducibilityReport(True)


def _require_irreducible(G: TransvectionGraph, what: str) -> None:
    """Raise NotIrreducible unless <T> acts irreducibly; the message is
    `what` followed by the failed condition in parentheses, and the
    exception carries the invariant subspace of `is_irreducible`."""
    rep = is_irreducible(G)
    if not rep.irreducible:
        raise NotIrreducible(f"{what} ({rep.failed_condition})",
                             witness=rep.witness)


def _radicals(G: TransvectionGraph) -> tuple[Subspace, Subspace]:
    """The pairing kernels (V(T) cap V*(T)-perp, V(T)-perp cap V*(T)): the
    vectors of V(T) that every phi in V*(T) kills, and the covectors of
    V*(T) that kill every v in V(T).  A side whose opposite space is all
    of F^n is zero, since only 0 pairs to zero with every vector of F^n,
    and takes no `perp` or `intersect`."""
    F, n = G.F, G.n
    zero = Subspace.zero(F, n)
    return (zero if G.dual_space.dim == n else G.vspace.intersect(G.dual_space.perp()),
            zero if G.vspace.dim == n else G.vspace.perp().intersect(G.dual_space))


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


def _closed_walks(G: TransvectionGraph, L: int
                  ) -> Iterator[tuple[int, CycleRecord | None]]:
    """Closed walks of 2..L vertices, one per rotation class, streamed in
    (length, vertex tuple) order with no length cap: form detection needs
    lengths up to 2D+1 for the directed diameter D, and the defining field
    up to 2N - 1 for N vertices.

    Level k extends each path of k - 1 vertices through the successors
    t >= its first vertex in ascending order, so paths come out sorted; a
    closing path that is its own least rotation is yielded as (k, record).
    (k, None) ends level k before any longer path is made.  Steps count the
    N roots, then each path as it is made: a full read raises CapExceeded
    exactly when they pass `WALK_BUDGET`, and a reader that stops early pays
    only for the paths made so far.

    Levels are kept in `array`s, not as tuples: each path of a level past
    the first is the index of the path of the level before that it extends
    and its last vertex (path j of level 1 is (j,)), and a path's vertex
    tuple is built only when it closes."""
    pair, succ = G.pair, G.succ
    N = len(G.verts)
    budget = WALK_BUDGET
    steps = N
    if steps > budget:
        raise CapExceeded("closed-walk enumeration budget exhausted",
                          count=budget)
    # a level's paths that start at s are its paths starts[s]..starts[s+1]-1
    starts = range(N + 1)
    last = range(N)
    ups: list[array] = []
    lasts: list[array] = []

    def walk(j: int) -> tuple[int, ...]:
        """The vertices of path j of the newest level."""
        out = []
        for up, verts in zip(reversed(ups), reversed(lasts)):
            out.append(verts[j])
            j = up[j]
        out.append(j)
        out.reverse()
        return tuple(out)

    for k in range(2, L + 1):
        up, nlast, nstarts = array("q"), array("i"), [0]
        grow = k < L
        for s in range(N):
            for j in range(starts[s], starts[s + 1]):
                head = None
                for t in succ[last[j]]:
                    if t < s:
                        continue
                    steps += 1
                    if steps > budget:
                        raise CapExceeded("closed-walk enumeration budget "
                                          "exhausted", count=budget)
                    if grow:
                        up.append(j)
                        nlast.append(t)
                    if not pair[t][s]:
                        continue
                    if head is None:
                        head = walk(j)
                    p = head + (t,)
                    # a closed walk is a record when no rotation starting at
                    # another visit to its least vertex s is smaller
                    if p.count(s) == 1 or all(
                            p[i:] + p[:i] >= p for i in range(2, k) if p[i] == s):
                        yield k, CycleRecord(p, cycle_weight(G, p))
            nstarts.append(len(nlast))
        yield k, None
        ups.append(up)
        lasts.append(nlast)
        starts, last = nstarts, nlast


def _cycle_defect(G: TransvectionGraph, verts: Sequence[int],
                  th: Callable[[int], int]) -> tuple[int, int, int]:
    """(wf, wr, d) for the cycle t_1..t_k: the forward weight
    wf = w(t_1..t_k), the reverse weight wr = w(t_k..t_1) before the twist,
    and the defect d = wf - (-1)^k th(wr)."""
    F = G.F
    verts = tuple(verts)
    wf = cycle_weight(G, verts)
    wr = cycle_weight(G, verts[::-1])
    d = F.sub(wf, th(wr)) if len(verts) % 2 == 0 else F.add(wf, th(wr))
    return wf, wr, d


def cycle_symplectic_defect(cycle, G: TransvectionGraph) -> int:
    """d_s = w(t_1..t_k) - (-1)^k w(t_k..t_1); zero on every cycle iff an
    invariant alternating form exists (given irreducibility)."""
    verts = cycle.verts if isinstance(cycle, CycleRecord) else cycle
    return _cycle_defect(G, verts, lambda x: x)[2]


def cycle_unitary_defect(cycle, G: TransvectionGraph,
                         theta: Callable[[int], int] | None = None) -> int:
    """d_theta = w(t_1..t_k) - (-1)^k theta(w(t_k..t_1))."""
    verts = cycle.verts if isinstance(cycle, CycleRecord) else cycle
    th = theta if theta is not None else G.F.involution
    return _cycle_defect(G, verts, th)[2]


# -- defining field --------------------------------------------------------


@dataclass(frozen=True)
class DefiningFieldReport:
    degree: int
    witnesses: tuple[CycleRecord, ...]


def _tree_scales(G: TransvectionGraph) -> list[int]:
    """Scales a_0 = 1 and a_s = a_t / phi_t(v_s) along the breadth-first
    tree from vertex 0 (`_tree_edges`), so that every tree edge t -> s of
    the rescaled set (a_t v_t, a_t^-1 phi_t) pairs to 1."""
    F = G.F
    a = [1] * len(G)
    tree = _tree_edges(G, 0)
    _require(len(tree) == len(G) - 1,
             "the breadth-first tree misses a vertex of a strongly connected graph")
    for t, s in tree:
        a[s] = F.div(a[t], G.pair[t][s])
    return a


def defining_field(G: TransvectionGraph) -> DefiningFieldReport:
    """Degree over F_p of the subfield generated by the cycle weights of a
    strongly connected graph, with witness cycles whose weights generate it.

    Rescaling t to (a_t v_t, a_t^-1 phi_t) keeps every cycle weight; with
    the scales of `_tree_scales` every tree edge pairs to 1.  A rescaled
    pairing (a_s / a_t) phi_t(v_s) is then the ratio of the weights of two
    closed walks that share a shortest return path from s to vertex 0: the
    tree path to t followed by the edge t -> s, and the tree path to s.
    Each has at most 2N - 1 vertices.  Every cycle weight is a product of
    rescaled pairings, so the degree is exactly that of the field the
    rescaled pairings generate.

    The witnesses are the records of one `_closed_walks` stream of at most
    2N - 1 vertices that raise the degree; the stream is left at the record
    that reaches it, and none is read at degree 1.  The walk budget counts
    every path made until then.
    """
    if not is_strongly_connected(G):
        raise NotStronglyConnected("the defining field needs a strongly "
                                   "connected graph")
    F = G.F
    e = 1
    if F.f > 1:
        a, pair, mul, div = _tree_scales(G), G.pair, F.mul, F.div
        e = F.subfield_generated(mul(div(a[s], a[t]), pair[t][s])
                                 for t, succ in enumerate(G.succ) for s in succ)
    deg = 1
    witnesses: list[CycleRecord] = []
    if e > 1:
        for _, rec in _closed_walks(G, 2 * len(G) - 1):
            if rec is None:
                continue
            d = math.lcm(deg, F.element_degree(rec.weight))
            if d > deg:
                witnesses.append(rec)
                deg = d
                if deg == e:
                    break
    _require(deg == e, f"closed walks of at most 2N - 1 vertices generate a "
                       f"degree-{deg} field, not the degree-{e} field of the "
                       f"rescaled pairings")
    return DefiningFieldReport(e, tuple(witnesses))


# -- density ---------------------------------------------------------------

_POINT_CACHE: dict[tuple[int, int, int], tuple[int, ...]] = {}


def _point_codes(F: Field, n: int) -> tuple[int, ...]:
    """The sorted codes of the canonical projective points of F^n, those
    with first nonzero coordinate 1.  A point whose first nonzero
    coordinate is k has the code q^k (1 + q m) for some m < q^(n-k-1), so
    the codes are generated directly."""
    key = (F.p, F.f, n)
    codes = _POINT_CACHE.get(key)
    if codes is None:
        q = F.q
        codes = _POINT_CACHE[key] = tuple(sorted(
            c for k in range(n) for c in range(q**k, q**n, q ** (k + 1))))
    return codes


def _coverage_masks(F: Field, codes: tuple[int, ...],
                    t: Transvection) -> tuple[int, int]:
    """(A, B) over the points with these codes: A marks points v with
    phi_t(v) != 0, B marks points phi with phi(v_t) != 0 (`_pairing`)."""
    at_phi, at_v = _pairing(F, t.phi), _pairing(F, t.v)
    return (sum(1 << i for i, c in enumerate(codes) if at_phi(c)),
            sum(1 << i for i, c in enumerate(codes) if at_v(c)))


def _uncovered(masks: list[tuple[int, int]], P: int, j: int) -> int | None:
    """The first of the P points i such that no vertex, given by its masks
    (A, B) from `_coverage_masks`, witnesses the pair (point i, covector
    j), or None."""
    covered = 0
    for a, b in masks:
        if (b >> j) & 1:
            covered |= a
    i = (~covered & (covered + 1)).bit_length() - 1  # the lowest clear bit
    return i if i < P else None


def _first_hole(masks: list[tuple[int, int]], P: int) -> tuple[int, int] | None:
    """The first pair (i, j), by covector j then point i, that no vertex
    witnesses (`_uncovered`), or None when the set is dense."""
    for j in range(P):
        i = _uncovered(masks, P, j)
        if i is not None:
            return i, j
    return None


def is_dense(G: TransvectionGraph) -> tuple[bool, tuple[Vec, Vec] | None]:
    """T is dense when every pair (v, phi) of nonzero vector and covector has
    a witness t with phi(v_t) != 0 and phi_t(v) != 0.  Scans projective
    points, at most `PROJECTIVE_BUDGET` of them; on failure returns the
    first violating (v, phi)."""
    F, n = G.F, G.n
    if F.q**n > PROJECTIVE_BUDGET:
        raise CapExceeded("projective scan budget exhausted", count=PROJECTIVE_BUDGET)
    codes = _point_codes(F, n)
    hole = _first_hole([_coverage_masks(F, codes, t) for t in G.verts], len(codes))
    if hole is None:
        return True, None
    i, j = hole
    return False, (_digits(F.q, n, codes[i]), _digits(F.q, n, codes[j]))


# -- constructive procedures -----------------------------------------------


def word_matrix(T: Sequence[Transvection], word: Word) -> Mat:
    """Evaluate a word (list of (index, +-1) pairs) over the set T."""
    if not T:
        raise BadParameters("need a nonempty transvection set")
    F = T[0].F
    M = Mat.identity(F, T[0].n)
    for i, e in word:
        if not 0 <= i < len(T):
            raise BadParameters(f"word letter {i} is not an index into T")
        if e not in (1, -1):
            raise BadParameters(f"word exponent {e} is not +1 or -1")
        t = T[i] if e == 1 else T[i].inverse()
        M = M.mul(t.matrix())
    return M


def shorten_path(G: TransvectionGraph, phi: Vec, v: Vec) -> tuple[Transvection, Word]:
    """A transvection t' with phi(v_{t'}) != 0 and phi_{t'}(v) != 0, as a word
    of length 2m-1 <= 2n-1 in T.

    Takes a shortest chain phi -> t_1 -> ... -> t_m -> v, the first that
    the breadth-first forest from the t with phi(v_t) != 0 finds
    (`_tree_edges`), and conjugates:
    t' = (t_1..t_{m-1}) t_m (t_1..t_{m-1})^-1.  Minimality makes the
    v_{t_i} independent, so m <= n.
    """
    _require_irreducible(G, "action is reducible")
    F = G.F
    starts = [i for i, t in enumerate(G.verts) if dot(F, phi, t.v)]
    tree = _tree_edges(G, *starts)
    parent = {u: t for t, u in tree}
    found = next((u for u in starts + [u for _, u in tree]
                  if dot(F, G.verts[u].phi, v)), None)
    _require(found is not None, "no chain from phi to v")
    ipath = [found]
    while ipath[-1] in parent:
        ipath.append(parent[ipath[-1]])
    ipath.reverse()
    tprime = G.verts[ipath[-1]].conjugate_by([G.verts[i] for i in ipath[:-1]])
    word: Word = (tuple((i, 1) for i in ipath)
                  + tuple((i, -1) for i in reversed(ipath[:-1])))
    _require(dot(F, phi, tprime.v) != 0 and dot(F, tprime.phi, v) != 0,
             "shortened witness failed its defining property")
    _require(word_matrix(G.verts, word) == tprime.matrix(),
             "the word of a shortened witness does not evaluate to it")
    return tprime, word


def densify(T: Sequence[Transvection]) -> tuple[TransvectionGraph, list[Word]]:
    """Extend T to a dense set using witnesses from the ball of radius 2n-1,
    by a scan of at most `PROJECTIVE_BUDGET` projective points.

    Returns (T_d, words): the graph of the dense set (T's own when T is
    already dense) with T as a prefix; words[i] evaluates to T_d[i] over T
    and has length <= 2n-1.
    """
    G = build_graph(T)
    _require_irreducible(G, "action is reducible")
    F, n = G.F, G.n
    if F.q**n > PROJECTIVE_BUDGET:
        raise CapExceeded("projective scan budget exhausted", count=PROJECTIVE_BUDGET)
    codes = _point_codes(F, n)
    P = len(codes)
    out = list(T)
    words: list[Word] = [((i, 1),) for i in range(len(T))]
    masks = [_coverage_masks(F, codes, t) for t in out]
    for j in range(P):
        while (i := _uncovered(masks, P, j)) is not None:
            tprime, word = shorten_path(G, _digits(F.q, n, codes[j]),
                                        _digits(F.q, n, codes[i]))
            _require(len(word) <= 2 * n - 1,
                     f"a density witness word has length {len(word)} > 2n - 1")
            out.append(tprime)
            words.append(word)
            a, b = _coverage_masks(F, codes, tprime)
            masks.append((a, b))
            _require((b >> j) & 1 and (a >> i) & 1,
                     f"a density witness does not cover the pair ({i}, {j})")
    _require(_first_hole(masks, P) is None, "densify returned a set that is not dense")
    return (build_graph(out) if len(out) > len(G) else G), words


def connect_up(T_dense: Sequence[Transvection], T0: Sequence[Transvection],
               form=None) -> TransvectionGraph:
    """Extend T0 by witnesses from the dense set T_dense until its graph is
    strongly connected, and return that graph (T0's own if it already is).

    Components are linked through their lowest-index representatives in a
    cycle (k witnesses for k components) or, when an invariant form makes
    adjacency symmetric, in an open chain (k-1 witnesses).
    """
    G0 = build_graph(T0)
    out = list(G0.verts)
    F = G0.F
    comps = G0.components
    k = len(comps)
    if k == 1:
        return G0
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
    G = build_graph(out)
    if not is_strongly_connected(G):
        raise NotInvariantForm(
            "open-chain closure failed: the supplied form does not make "
            "adjacency symmetric on these transvections")
    return G


def defect(G: TransvectionGraph) -> int:
    """min(dim V(T) cap V*(T)-perp, dim V(T)-perp cap V*(T)); zero on one
    side is weak nondegeneracy."""
    k1, k2 = _radicals(G)
    return min(k1.dim, k2.dim)


def winkle(T_dense: Sequence[Transvection],
           T0: Sequence[Transvection]) -> TransvectionGraph:
    """Kill the pairing kernels of a strongly connected T0 one dimension at a
    time, using density witnesses for the lexicographically least kernel
    elements.  Adds exactly defect(T0) vertices; preserves strong
    connectivity; returns the graph of the result (T0's own at defect 0)."""
    G = build_graph(T0)
    out = list(G.verts)
    if not is_strongly_connected(G):
        raise NotStronglyConnected("winkle needs a strongly connected start set")
    F = G.F
    k1, k2 = _radicals(G)
    while min(k1.dim, k2.dim) > 0:
        u = k1.lex_least_nonzero()
        psi = k2.lex_least_nonzero()
        t = next((t for t in T_dense if dot(F, psi, t.v) and dot(F, t.phi, u)), None)
        if t is None:
            raise NotDense("no witness for the kernel pair", counterexample=(u, psi))
        out.append(t)
        dims = (k1.dim - 1, k2.dim - 1)
        G = build_graph(out)
        k1, k2 = _radicals(G)
        _require((k1.dim, k2.dim) == dims,
                 "a winkle step did not lower both kernel dimensions by one")
    _require(is_strongly_connected(G), "winkle lost strong connectivity")
    return G


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

    When the v's and the phi's both span F^n and no vertex repeats, the
    restriction is the identity and is returned without solving: U = F^n
    with the standard basis, W = 0 because only 0 is killed by every
    covector, so each v has coordinates v and each phi pairs with the
    standard basis as phi; that is T itself, in its own order, on G.
    """
    if not is_strongly_connected(G):
        raise NotStronglyConnected("section restriction needs strong connectivity")
    F, n, N = G.F, G.n, len(G.verts)
    U = G.vspace
    if U.dim == n == G.dual_space.dim and len(set(G.verts)) == N:
        return SectionRestriction(U, Subspace.zero(F, n), tuple(G.verts),
                                  tuple(range(N)), G, (), U.basis)
    W = U.intersect(G.dual_space.perp())
    basis_c = [U.basis[i] for i in W.extension(U.basis)]
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
    _require(all(bool(G.pair[i][j]) == bool(Gbar.pair[index_map[i]][index_map[j]])
                 for i in range(N) for j in range(N)),
             "the section restriction changes an edge")
    return SectionRestriction(U, W, tuple(tbar), tuple(index_map), Gbar,
                              tuple(W.basis), tuple(basis_c))
