"""Reference implementations the tests check the package against.

None of these is reached from the `transvect` command or from a public
function of the package: each one serves the tests alone, as the plain
answer that a faster or more specialised routine must reproduce.

- `enumerate_group` lists a group's elements, the oracle behind
  `group_order`, the Cayley searches and the transvection profile.
- `cycles_up_to` reads the whole closed-walk stream of `tgraph`, up to
  its own length cap of 8, where `defining_field` and form detection stop
  reading at their answer.
- `directed_diameter` bounds the walk lengths form detection hunts to.
- `layering_audit` checks the parents a Cayley exploration records.
- `tuple_point_orbits`, `monomial_lines` and `spanning_vector_orbits`
  scan every projective point or vector for the structures that the
  detectors of `classify` read off one transvection class, and
  `transvection_class` conjugates by `Transvection.conjugate_by`.
- `projective_points` decodes the point codes the density scans read.
- `contains_space`, `elements` and `fixed_subfield` enumerate small
  subspaces and subfields outright.
- `subfield_iso` finds a subfield as the fixed points of a Frobenius
  power (`frobenius_power`) by a scan of the whole field, and checks its
  map to GF(p^e) on every pair, where `classify._subfield_iso` reads the
  subfield off the powers of a primitive element.
- `monomial_parameter` changes basis to the invariant lines and reads the
  entries of each generator, where `detect_monomial_structure` reads the
  same scales off its invariance check.
- `rref_oracle` is Gauss-Jordan on digit tuples, the reference for
  `linalg._echelon`, the Gauss-Jordan that `Mat`, `Subspace` and the
  chain's inverses run through `linalg._reduce` and `linalg._hold`, and
  `det_oracle` is the permutation expansion that `Mat.det` must match.
- `invariant_under` and `preserved_by` test a form against a matrix by
  matrix products, the identities that `SesquiForm.kept_by` and
  `QuadraticForm.kept_by` test on a transvection's (v, phi).
- `section_oracle` builds a section restriction by solving for the
  coordinates of every v, where `restrict_to_section` returns a spanning
  nondegenerate set as it is.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import permutations
from typing import Callable, Iterable, Iterator, Sequence

from transvect.cayley import (
    CayleyExploration,
    _check_generators,
    _encode,
    _row_codes,
    _Search,
)
from transvect.classify import ELEMENT_BUDGET, VECTOR_TABLE_BUDGET
from transvect.errors import (
    BadParameters,
    CapExceeded,
    InternalError,
    NotStronglyConnected,
)
from transvect.forms import QuadraticForm, SesquiForm
from transvect.gf import Field, field_create
from transvect.linalg import Mat, Subspace, _digits, dot, vec_add, vec_scale
from transvect.tgraph import (
    CycleRecord,
    SectionRestriction,
    TransvectionGraph,
    _closed_walks,
    _distances,
    _point_codes,
    build_graph,
    is_strongly_connected,
)
from transvect.transvections import Transvection


# -- exact enumeration -------------------------------------------------------


def row_matrices(F: Field, n: int, gens: Iterable[Sequence[int]]) -> list[Mat]:
    """The n x n matrices over F with these row codes, first row first."""
    return [Mat(F, [_digits(F.q, n, c) for c in rows]) for rows in gens]


def _unpack(F: Field, n: int, key: str | bytes) -> Mat:
    return row_matrices(F, n, [_row_codes(key)])[0]


class GroupEnumeration:
    """The element set of a desk-scale matrix group, stored packed.

    `codes` holds the keys of the elements in the row packing of the
    `cayley` search engine: a row packs as sum(x_j q^j) (entry 0 least
    significant) and a matrix as its row codes, last row first, as bytes
    when q^n <= 256 and as a string of one character per code otherwise,
    so keys sort as the integers sum(r_i D^i), D = q^n.
    """

    __slots__ = ("F", "n", "codes")

    def __init__(self, F: Field, n: int, codes: frozenset):
        self.F = F
        self.n = n
        self.codes = codes

    @property
    def order(self) -> int:
        return len(self.codes)

    def __len__(self) -> int:
        return len(self.codes)

    def encode(self, M: Mat) -> str | bytes | None:
        """The key of M, or None when M is not an n x n matrix over F."""
        return _encode(self.F, self.n, M)

    def decode(self, key: str | bytes) -> Mat:
        return _unpack(self.F, self.n, key)

    def __contains__(self, M: Mat) -> bool:
        return self.encode(M) in self.codes

    def matrices(self) -> Iterator[Mat]:
        for key in sorted(self.codes):
            yield self.decode(key)


def enumerate_group(gens: Sequence[Mat], cap: int = ELEMENT_BUDGET) -> GroupEnumeration:
    """BFS closure of invertible generators under right multiplication.

    A finite group is the multiplicative closure of any generating set, so
    no inverses are needed.  Raises CapExceeded beyond `cap` elements, or
    immediately when q^n, the number of row codes, exceeds the vector
    budget.
    """
    gens = list(gens)
    F, n, _ = _check_generators(gens)
    D = F.q**n
    if D > VECTOR_TABLE_BUDGET:
        raise CapExceeded("column table q^n exceeds the vector budget", count=D)
    seen, _ = _Search(F, n, gens).explore(cap)
    if len(seen) > cap:
        raise CapExceeded("group enumeration element budget exhausted", count=cap)
    return GroupEnumeration(F, n, frozenset(seen))


# -- transvection graphs -----------------------------------------------------

MAX_CYCLE_LEN = 8


def projective_points(F: Field, n: int) -> tuple[tuple[int, ...], ...]:
    """Canonical representatives (first nonzero entry 1) of the projective
    points of F^n, ordered by integer encoding (first coordinate least
    significant): the decoded codes that the density scans read."""
    return tuple(_digits(F.q, n, c) for c in _point_codes(F, n))


def cycles_up_to(G: TransvectionGraph, L: int) -> list[CycleRecord]:
    """All closed walks of length 2..L with nonzero weight, one record per
    rotation class (canonical rotation = lexicographically least), sorted by
    (length, vertex tuple): the whole `_closed_walks` stream, under
    `tgraph.WALK_BUDGET`."""
    if L > MAX_CYCLE_LEN:
        raise BadParameters(f"cycle length cap is {MAX_CYCLE_LEN}, got {L}")
    if L < 1:
        raise BadParameters(f"need a cycle length bound L >= 1, got {L}")
    return [r for _, r in _closed_walks(G, L) if r is not None]


def directed_diameter(G: TransvectionGraph) -> int:
    best = 0
    for s in range(len(G.verts)):
        dist = _distances(G, s)
        if min(dist) < 0:
            raise NotStronglyConnected("diameter undefined: graph not strongly connected")
        best = max(best, max(dist))
    return best


# -- Cayley explorations -----------------------------------------------------


def layering_audit(exploration: CayleyExploration,
                   sample: Iterable[str | bytes] | None = None) -> bool:
    """Check the BFS layering invariant: every element at distance d > 0
    has a neighbor at distance d - 1 (its recorded parent).  Raises
    BadParameters when the exploration kept no words."""
    parents = exploration.parents
    if parents is None:
        raise BadParameters("the exploration kept no words")
    keys = sample if sample is not None else exploration.dist.keys()
    for key in keys:
        d = exploration.dist[key]
        p = parents[key]
        if d == 0:
            if p is not None:
                return False
            continue
        if p is None or exploration.dist[p] != d - 1:
            return False
    return True


# -- structure scans ---------------------------------------------------------


def orbit_scan(count: int, neighbours: Callable[[int], Iterable[int | None]],
               limit: int | None = None) -> list[list[int]]:
    """Connected components of 0..count-1 under `neighbours`, each sorted,
    ordered by least element; a neighbour None is an image outside the
    point index and raises InternalError.  With `limit`, only the
    components of at most `limit` points: a search stops once its
    component would pass `limit` or meets a point known to lie in a larger
    one, and marks all it visited as such."""
    orbit_of = [-1] * count  # -2: in an orbit of more than `limit` points
    orbits: list[list[int]] = []
    for s in range(count):
        if orbit_of[s] != -1:
            continue
        oid = len(orbits)
        orbit_of[s] = oid
        comp = [s]
        large = False
        for i in comp:
            for j in neighbours(i):
                if j is None:
                    raise InternalError("a generator maps a point outside the "
                                        "projective point index")
                if orbit_of[j] == -1 and len(comp) != limit:
                    orbit_of[j] = oid
                    comp.append(j)
                elif orbit_of[j] < 0:
                    large = True
                    break
            if large:
                for j in comp:
                    orbit_of[j] = -2
                break
        else:
            orbits.append(sorted(comp))
    return orbits


def tuple_point_orbits(T: Sequence[Transvection], pts: Sequence[tuple],
                       F: Field, limit: int | None = None) -> list[list[int]]:
    """The orbits on the given projective points (indices into `pts`), by
    `Transvection.apply` on the point tuples, each image scaled to first
    nonzero coordinate 1, through the capped scan `orbit_scan`."""
    index = {p: i for i, p in enumerate(pts)}

    def canonical(v: tuple) -> tuple:
        c = next(a for a in v if a)
        return v if c == 1 else vec_scale(F, F.inv(c), v)

    return orbit_scan(len(pts), lambda i: (index.get(canonical(t.apply(pts[i])))
                                           for t in T), limit)


def monomial_lines(T: Sequence[Transvection]) -> tuple[tuple, ...] | None:
    """The invariant line set of an irreducible set by the full point scan,
    or None: the first union of point orbits of total size n (orbits
    ordered by least point, unions lexicographically) whose points are
    independent, its points sorted by code."""
    F, n = T[0].F, T[0].n
    pts = projective_points(F, n)
    small = tuple_point_orbits(T, pts, F, n)

    def unions(start: int, room: int) -> Iterator[list[int]]:
        if room == 0:
            yield []
        for k in range(start, len(small)):
            if len(small[k]) <= room:
                for rest in unions(k + 1, room - len(small[k])):
                    yield small[k] + rest

    found = next((u for u in unions(0, n)
                  if Mat(F, [pts[i] for i in u]).rank() == n), None)
    return None if found is None else tuple(pts[i] for i in sorted(found))


def spanning_vector_orbits(T: Sequence[Transvection]) -> Iterator[tuple]:
    """The spanning vector orbits of size n+1 over T's field, by BFS from
    each nonzero vector in code order, each sorted by code (last
    coordinate most significant)."""
    F, n = T[0].F, T[0].n
    seen: set = set()
    for code in range(1, F.q**n):
        start = _digits(F.q, n, code)
        if start in seen:
            continue
        orbit = {start}
        queue = [start]
        while queue:
            v = queue.pop()
            for t in T:
                w = t.apply(v)
                if w not in orbit:
                    orbit.add(w)
                    queue.append(w)
        seen |= orbit
        if len(orbit) == n + 1 and Mat(F, tuple(orbit)).rank() == n:
            yield tuple(sorted(orbit, key=lambda v: v[::-1]))


def transvection_class(T: Sequence[Transvection]) -> set[Transvection]:
    """The class of T[0] under conjugation by T, closed by
    `Transvection.conjugate_by` one letter at a time."""
    found = {T[0]}
    queue = [T[0]]
    for t in queue:
        for s in T:
            u = t.conjugate_by([s])
            if u not in found:
                found.add(u)
                queue.append(u)
    return found


# -- subspaces and subfields -------------------------------------------------


def rref_oracle(M: Mat) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns of M, by Gauss-Jordan on
    the digit tuples through the field operations."""
    F = M.F
    rows = [list(r) for r in M.rows]
    nr, nc = M.nrows, M.ncols
    pivots = []
    r = 0
    for c in range(nc):
        sel = None
        for i in range(r, nr):
            if rows[i][c]:
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = F.inv(rows[r][c])
        if inv != 1:
            rows[r] = [F.mul(inv, a) for a in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c]:
                m = rows[i][c]
                rows[i] = [F.sub(a, F.mul(m, b)) for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return Mat(F, tuple(tuple(row) for row in rows)), tuple(pivots)


@lru_cache(maxsize=None)
def _signed_permutations(n: int) -> tuple[tuple[tuple[int, ...], bool], ...]:
    """Each permutation of range(n) with whether it is odd."""
    return tuple((s, sum(a > b for k, a in enumerate(s) for b in s[k + 1:]) % 2 == 1)
                 for s in permutations(range(n)))


def det_oracle(M: Mat) -> int:
    """The determinant of a square M by the permutation expansion: the sum
    over the permutations s of sign(s) times the product of M[i][s(i)]."""
    F = M.F
    total = 0
    for s, odd in _signed_permutations(M.nrows):
        term = 1
        for row, j in zip(M.rows, s):
            term = F.mul(term, row[j])
        total = F.sub(total, term) if odd else F.add(total, term)
    return total


def contains_space(S: Subspace, other: Subspace) -> bool:
    return all(S.contains(r) for r in other.basis)


def elements(S: Subspace):
    """Iterate all q^dim members (small subspaces only)."""
    F = S.F
    n = S.n
    d = S.dim
    idx = [0] * d
    while True:
        v = (0,) * n
        for c, row in zip(idx, S.basis):
            if c:
                v = vec_add(F, v, vec_scale(F, c, row))
        yield v
        i = 0
        while i < d:
            idx[i] += 1
            if idx[i] < F.q:
                break
            idx[i] = 0
            i += 1
        if i == d:
            return


def fixed_subfield(F: Field) -> list[int]:
    """Elements of the index-2 subfield (fixed points of the involution)."""
    return [x for x in range(F.q) if F.involution(x) == x]


def frobenius_power(F: Field, e: int) -> Callable[[int], int]:
    """x -> x^(p^e), the Frobenius power whose fixed points in F are the
    degree-e subfield."""
    def sig(x: int) -> int:
        for _ in range(e):
            x = F.frobenius(x)
        return x
    return sig


def subfield_iso(F: Field, e: int) -> tuple[Field, Callable[[int], int]]:
    """The degree-e subfield of F, found by scanning F for the fixed points
    of `frobenius_power`, mapped onto the abstract field GF(p^e) by sending
    its least element of order p^e - 1 to the least root of its minimal
    polynomial (whose coefficients are prime-field integers shared by both
    encodings), with additivity checked on every pair."""
    p = F.p
    sub = field_create(p, e)
    if e == 1:
        return sub, lambda x: x
    sig = frobenius_power(F, e)
    fix = [x for x in F.elements() if sig(x) == x]
    if len(fix) != p**e:
        raise InternalError(f"the Frobenius power fixes {len(fix)} elements")
    g0 = next(x for x in fix if x and F.element_order(x) == p**e - 1)
    poly = [1]
    root = g0
    for _ in range(e):
        neg = F.neg(root)
        new = [0] * (len(poly) + 1)
        for k, c in enumerate(poly):
            new[k] = F.add(new[k], F.mul(neg, c))
            new[k + 1] = F.add(new[k + 1], c)
        poly = new
        root = F.frobenius(root)
    if any(c >= p for c in poly):
        raise InternalError("a minimal polynomial coefficient is outside GF(p)")

    def at(x: int) -> int:
        acc = 0
        for c in reversed(poly):
            acc = sub.add(sub.mul(acc, x), c)
        return acc

    r = next(x for x in sub.elements() if at(x) == 0)
    table = {0: 0}
    x, y = 1, 1
    for _ in range(p**e - 1):
        table[x] = y
        x = F.mul(x, g0)
        y = sub.mul(y, r)
    if not all(table[F.add(u, v)] == sub.add(table[u], table[v])
               for u in fix for v in fix):
        raise InternalError("the subfield isomorphism is not additive")
    return sub, table.__getitem__


def monomial_parameter(T: Sequence[Transvection], lines: Sequence[tuple]) -> int:
    """Order of the root-of-unity group: change basis to the invariant
    lines and take the lcm of the orders of the nonzero entries."""
    F = T[0].F
    P = Mat(F, lines).transpose()
    Pi = P.inv()
    a = 1
    for t in T:
        for row in t.conjugate(Pi, P).matrix().rows:
            nz = [x for x in row if x]
            if len(nz) != 1:
                raise InternalError("a generator is not monomial on the lines")
            a = math.lcm(a, F.element_order(nz[0]))
    return a


# -- invariant forms -----------------------------------------------------------


def invariant_under(f: SesquiForm, M: Mat) -> bool:
    """M^T gram theta(M) = gram: f(Mx, My) = f(x, y) for all x, y."""
    return M.transpose().mul(f.gram).mul(M.map_entries(f.theta)).rows == f.gram.rows


def preserved_by(Q: QuadraticForm, M: Mat) -> bool:
    """Q(Mx) = Q(x) as a polynomial identity: the upper-triangular part of
    M^T coeffs M, folded, equals Q's coefficients."""
    F, n, c = Q.F, Q.n, Q.coeffs.rows
    D = M.transpose().mul(Q.coeffs).mul(M).rows
    return all(D[i][i] == c[i][i] and all(F.add(D[i][j], D[j][i]) == c[i][j]
                                          for j in range(i + 1, n))
               for i in range(n))


# -- section restriction -------------------------------------------------------


def section_oracle(G: TransvectionGraph) -> SectionRestriction:
    """The restriction of a strongly connected graph to U/W, U = V(T) and
    W = V(T) cap V*(T)-perp, built in general: a basis of W extended to one
    of U, the coordinates of every v solved for in it, every phi paired
    with the complement, and repeated images merged.  The graph is G itself
    when the images are T in its own order."""
    if not is_strongly_connected(G):
        raise NotStronglyConnected("section restriction needs strong connectivity")
    F = G.F
    U = G.vspace
    W = U.intersect(G.dual_space.perp())
    basis_c = [U.basis[i] for i in W.extension(U.basis)]
    if not basis_c:
        raise BadParameters("section has dimension zero")
    Bmat = Mat(F, tuple(W.basis) + tuple(basis_c)).transpose()
    nw = len(W.basis)
    tbar: list[Transvection] = []
    index_map = []
    for t in G.verts:
        tb = Transvection(F, Bmat.solve(t.v)[nw:],
                          tuple(dot(F, t.phi, c) for c in basis_c))
        if tb not in tbar:
            tbar.append(tb)
        index_map.append(tbar.index(tb))
    graph = G if tbar == G.verts else build_graph(tbar)
    return SectionRestriction(U, W, tuple(tbar), tuple(index_map), graph,
                              tuple(W.basis), tuple(basis_c))
