"""Exact Cayley-graph exploration at desk scale.

Breadth-first search over a finite matrix group measures the word length
of every element with respect to a generating set (symmetrized with the
inverses), yielding the diameter, per-distance histograms, shortest-word
witnesses, transvection balls, and the maximal transvection-length of a
group containing transvections.

Every group search in the package, including the exact enumeration in
`classify`, runs on one packed-row engine: a row packs as sum(x_j q^j)
(the `linalg` vector codec) and a matrix as sum(r_i D^i) over its row
codes r_i, with D = q^n.  Right multiplication by a step S maps rows
independently, so a product is one lookup per row in a memo table of S,
filled on first use: in characteristic 2, where adding packed rows is XOR
of their codes, as the XOR of the images of the code's set bits; otherwise
through `Mat.vecmat`.

Packed keys decode to transvections in one place, `_transvections`, for
the transvection balls and `CayleyExploration.transvections`; so the
transvection profile is one search over X and one over every transvection.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    BadParameters,
    CapExceeded,
    DimensionMismatch,
    FieldMismatch,
    NotExplored,
    NotFound,
    NotTransvection,
    Singular,
)
from .gf import Field
from .linalg import Mat, _code, _digits
from .transvections import Transvection, tv_from_matrix

Word = tuple

# Default exploration budget.  Each stored element costs one packed integer
# key (at most n^2 log2(q) bits) plus the distance and parent entries, so
# 10^7 elements stay within desk memory.
DEFAULT_CAP = 10**7


def _rows(M: Mat) -> tuple[int, ...]:
    return tuple(_code(M.F.q, r) for r in M.rows)


def _pack(M: Mat) -> int:
    """The key of a square matrix: its row codes in base D = q^n."""
    return _code(M.F.q**M.nrows, _rows(M))


def _unpack(F: Field, n: int, key: int) -> Mat:
    return Mat(F, [_digits(F.q, n, c) for c in _digits(F.q**n, n, key)])


def _transvections(F: Field, n: int,
                   keys: Iterable[int]) -> Iterator[tuple[int, Transvection]]:
    """(key, transvection) for each key that packs a transvection."""
    for key in keys:
        try:
            yield key, tv_from_matrix(_unpack(F, n, key))
        except NotTransvection:
            pass


class _RowTable(dict):
    """Row code -> code of row . S, computed on first use, so no table is
    filled ahead of time and any q^n works.

    A miss with p = 2 is the XOR of the images of the code's set bits: bit
    f k + b of a row code stands for 2^b in coordinate k, whose image is the
    code of 2^b S_k.  Those f n bit images are built on the first miss.
    For odd p a miss unpacks the code and calls `Mat.vecmat`."""

    __slots__ = ("S", "bits")

    def __init__(self, S: Mat):
        super().__init__()
        self.S = S
        self.bits: list[int] | None = None

    def __missing__(self, code: int) -> int:
        F, n = self.S.F, self.S.nrows
        if F.p != 2:
            out = self[code] = _code(F.q, self.S.vecmat(_digits(F.q, n, code)))
            return out
        bits = self.bits
        if bits is None:
            bits = self.bits = [_code(F.q, [F.mul(1 << b, x) for x in row])
                                for row in self.S.rows for b in range(F.f)]
        out = 0
        c = code
        while c:
            low = c & -c
            out ^= bits[low.bit_length() - 1]
            c ^= low
        self[code] = out
        return out


class _Search:
    """Breadth-first search of the elements reached from the identity by
    right multiplication with the given steps, over packed keys."""

    def __init__(self, F: Field, n: int, steps: Sequence[Mat]):
        self.F = F
        self.n = n
        self.weights = tuple(F.q ** (n * i) for i in range(n))
        self.tables = [_RowTable(S) for S in steps]

    def key(self, rows: Sequence[int]) -> int:
        return sum(map(mul, rows, self.weights))

    def layer(self, frontier: list, seen: dict, d: int, cap: int,
              parents: dict | None = None) -> list:
        """Multiply each row tuple of `frontier` by each step, in frontier
        order then step order, and record every new key in `seen` at
        distance d (and its (step index, parent key) in `parents`).
        Returns the new row tuples; stops early once `seen` holds more
        than `cap` keys."""
        gets = [t.__getitem__ for t in self.tables]
        W = self.weights
        nxt = []
        for rows in frontier:
            if parents is not None:
                pkey = sum(map(mul, rows, W))
            for si, get in enumerate(gets):
                new = tuple(map(get, rows))
                key = sum(map(mul, new, W))
                if key not in seen:
                    seen[key] = d
                    if parents is not None:
                        parents[key] = (si, pkey)
                    nxt.append(new)
            if len(seen) > cap:
                break
        return nxt

    def explore(self, cap: int, parents: dict | None = None,
                radius: int | None = None) -> tuple[dict, list[int]]:
        """Layers from the identity until none is new, or through distance
        `radius`, or until more than `cap` elements are seen.  Returns the
        distance map and the per-distance counts of the complete layers;
        the caller detects the cap as len(seen) > cap."""
        ident = _rows(Mat.identity(self.F, self.n))
        ikey = self.key(ident)
        seen = {ikey: 0}
        if parents is not None:
            parents[ikey] = None
        frontier = [ident]
        histogram = [1]
        while frontier and (radius is None or len(histogram) <= radius):
            frontier = self.layer(frontier, seen, len(histogram), cap, parents)
            if len(seen) > cap:
                break
            if frontier:
                histogram.append(len(frontier))
        return seen, histogram


def _check_generators(X: Sequence[Mat]) -> tuple[Field, int]:
    if not X:
        raise BadParameters("need at least one generator")
    F = X[0].F
    n = X[0].nrows
    for M in X:
        if M.F != F:
            raise FieldMismatch("generators over different fields")
        if M.nrows != n or M.ncols != n:
            raise DimensionMismatch("generators of different sizes")
        if M.det() == 0:
            raise Singular("generators must be invertible")
    return F, n


def _symmetrize(X: Sequence[Mat]) -> list[tuple[Mat, int, int]]:
    """The step list X followed by the inverses that are new matrices,
    each tagged (matrix, generator index, exponent)."""
    steps = [(M, i, 1) for i, M in enumerate(X)]
    keys = {_pack(M) for M in X}
    for i, M in enumerate(X):
        Minv = M.inv()
        k = _pack(Minv)
        if k not in keys:
            keys.add(k)
            steps.append((Minv, i, -1))
    return steps


@dataclass(frozen=True)
class CayleyExploration:
    """Exact distances from the identity in the Cayley graph of <X> with
    respect to X and the inverses.

    `dist` maps the packed integer key of each element (see `encode`) to
    its distance, `parents` to (step index, parent key) along one shortest
    path (None at the identity), and `steps` lists the symmetrized
    generators as (matrix, index into X, exponent).  The histogram counts
    elements per distance, so the diameter is len(histogram) - 1."""

    F: Field
    n: int
    X: tuple[Mat, ...]
    steps: tuple[tuple[Mat, int, int], ...]
    dist: Mapping[int, int]
    parents: Mapping[int, tuple[int, int] | None]
    diameter: int
    histogram: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.dist)

    def encode(self, M: Mat) -> int | None:
        """The key of M, or None when M is not an n x n matrix over F."""
        if M.F != self.F or M.nrows != self.n or M.ncols != self.n:
            return None
        return _pack(M)

    def distance(self, g: Mat) -> int:
        key = self.encode(g)
        if key not in self.dist:
            raise NotExplored("element not reached by the exploration")
        return self.dist[key]

    def __contains__(self, g: Mat) -> bool:
        return self.encode(g) in self.dist

    def transvections(self) -> list[Transvection]:
        """The transvections among the explored elements, in increasing key
        order."""
        return [t for _, t in _transvections(self.F, self.n, sorted(self.dist))]

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "diameter": self.diameter,
            "histogram": list(self.histogram),
        }


def bfs_explore(X: Sequence[Mat], cap: int = DEFAULT_CAP) -> CayleyExploration:
    """Layered breadth-first search of <X> from the identity.

    Distances are taken over X and the inverses, so dist(g) = dist(g^-1)
    whenever the generating set is closed enough to matter.  Expansion is
    in deterministic insertion order (frontier order, then step order);
    identical inputs give identical distance maps.  Raises CapExceeded
    with the radius reached when the group is larger than `cap`.
    """
    X = list(X)
    F, n = _check_generators(X)
    steps = _symmetrize(X)
    parents: dict[int, tuple[int, int] | None] = {}
    dist, histogram = _Search(F, n, [S for S, _, _ in steps]).explore(cap, parents)
    if len(dist) > cap:
        raise CapExceeded(f"exploration exceeded {cap} elements",
                          radius=len(histogram) - 1, count=cap)
    return CayleyExploration(F, n, tuple(X), tuple(steps), dist, parents,
                             len(histogram) - 1, tuple(histogram))


def _word(parents: Mapping, steps: Sequence[tuple[Mat, int, int]], key: int) -> Word:
    out = []
    while True:
        p = parents[key]
        if p is None:
            break
        si, key = p
        _, i, e = steps[si]
        out.append((i, e))
    out.reverse()
    return tuple(out)


def word_recover(exploration: CayleyExploration, g: Mat) -> Word:
    """A shortest word over X evaluating to g, as (index, exponent) pairs
    read left to right; the empty word at the identity."""
    key = exploration.encode(g)
    if key not in exploration.dist:
        raise NotExplored("element not reached by the exploration")
    return _word(exploration.parents, exploration.steps, key)


def bidirectional_distance(X: Sequence[Mat], g: Mat,
                           cap: int = DEFAULT_CAP) -> int:
    """The distance of a single element by meet-in-the-middle search.

    Grows balls around the identity and around g alternately (always
    expanding the smaller frontier) until they intersect, which reaches
    roughly the square root of the elements a full exploration would
    visit.  Raises NotFound when the search closes without meeting g.
    """
    X = list(X)
    F, n = _check_generators(X)
    if g.F != F or g.nrows != n or g.ncols != n:
        raise DimensionMismatch("element does not match the generators")
    search = _Search(F, n, [S for S, _, _ in _symmetrize(X)])
    fa = [_rows(Mat.identity(F, n))]
    fb = [_rows(g)]
    a = {search.key(fa[0]): 0}
    b = {search.key(fb[0]): 0}
    if fb == fa:
        return 0
    da = db = 0
    while fa and fb:
        if len(fa) <= len(fb):
            side, other, frontier, d = a, b, fa, da + 1
            da = d
        else:
            side, other, frontier, d = b, a, fb, db + 1
            db = d
        nxt = search.layer(frontier, side, d, cap - len(other))
        if len(a) + len(b) > cap:
            raise CapExceeded(f"bidirectional search exceeded {cap} elements",
                              radius=min(da, db), count=cap)
        meets = [d + other[k] for k in map(search.key, nxt) if k in other]
        if meets:
            return min(meets)
        if side is a:
            fa = nxt
        else:
            fb = nxt
    raise NotFound("the element is not in the group generated by X")


def transvection_ball(T: Sequence[Transvection], r: int,
                      cap: int = DEFAULT_CAP) -> dict[Transvection, Word]:
    """All transvections within distance r of the identity, with one
    shortest word each.

    Explores the full ball of radius r (transvections deeper in the ball
    arise as products through non-transvections) and keeps the elements
    with a rank-one unipotent displacement.  Stops early once the whole
    group is closed, so the result is a fixed point in r from then on.
    """
    if r < 0:
        raise BadParameters("need a radius r >= 0")
    X = [t.matrix() for t in T]
    F, n = _check_generators(X)
    steps = _symmetrize(X)
    parents: dict[int, tuple[int, int] | None] = {}
    dist, histogram = _Search(F, n, [S for S, _, _ in steps]).explore(cap, parents, r)
    if len(dist) > cap:
        raise CapExceeded(f"ball exploration exceeded {cap} elements",
                          radius=len(histogram) - 1, count=cap)
    return {t: _word(parents, steps, key) for key, t in _transvections(F, n, dist)}


def transvection_length_profile(G_elements, T_all,
                                cap: int = DEFAULT_CAP) -> tuple[int, tuple[int, ...]]:
    """The maximum and histogram of word lengths over the given group when
    every transvection of the group is a generator.

    `G_elements` is the group: anything with an `.order` (a
    `GroupEnumeration` or a `CayleyExploration`) or an iterable of its
    elements.  `T_all` lists its transvections, as Transvection or matrix.
    T_all lies in the group, so it generates the group exactly when its
    exploration has the group's order, and the maximum is then that
    exploration's diameter.  Raises BadParameters when T_all fails to
    generate.
    """
    mats = [t.matrix() if isinstance(t, Transvection) else t for t in T_all]
    ex = bfs_explore(mats, cap)
    order = getattr(G_elements, "order", None)
    if order is None:
        order = sum(1 for _ in G_elements)
    if ex.order != order:
        raise BadParameters("the transvections do not generate the group")
    return ex.diameter, ex.histogram


def layering_audit(exploration: CayleyExploration,
                   sample: Iterable[int] | None = None) -> bool:
    """Check the BFS layering invariant: every element at distance d > 0
    has a neighbor at distance d - 1 (its recorded parent)."""
    keys = sample if sample is not None else exploration.dist.keys()
    for key in keys:
        d = exploration.dist[key]
        p = exploration.parents[key]
        if d == 0:
            if p is not None:
                return False
            continue
        if p is None or exploration.dist[p[1]] != d - 1:
            return False
    return True
