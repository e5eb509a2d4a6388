"""Exact Cayley-graph exploration at desk scale.

Breadth-first search over a finite matrix group measures the word length
of every element with respect to a generating set (symmetrized with the
inverses), yielding the diameter, per-distance histograms, shortest-word
witnesses, transvection balls, and the maximal transvection-length of a
group containing transvections.

Every group search in the package
runs on one packed-row engine.  A row packs as its code sum(x_j q^j) (the
`linalg` vector codec) and a matrix as the sequence of its row codes, last
row first: the `bytes` of the codes when q^n <= 256, so every code fits a
byte, and otherwise the string of the codes, one character each, so q^n - 1
may not exceed `sys.maxunicode`.  Either way fixed-length keys compare as
the integers sum(r_i D^i), D = q^n.  Right multiplication by a step S maps
rows independently, so a product is one `translate` of the key through a
table of S.  A byte key goes through 256 bytes filled when the search
starts; a string key through a memo table of S (`_RowTable`), built from
the row codes of S and filled on first use: in characteristic 2, where
adding packed rows is XOR of their codes, as the XOR of the images of the
code's set bits; otherwise as a sum of digit images in wide lanes, reduced
mod p once.  A memo table over at most `FILL_CODES` codes that has missed
on an eighth of them fills in all of them in one pass, by a recurrence
over the coordinates on the same row images; the byte tables are built
by that recurrence.  The stabilizer chain behind `classify.group_order`
multiplies with the memo tables of its strong generators and of the
transversal inverses its sifts strip through, and the structure
detectors conjugate (v, phi) with them.

Keys decode to transvections in one place, `_transvections`, which reads
the row codes without building a matrix, for the transvection balls and
`CayleyExploration.transvections`; so the transvection profile is one
search over X and one over every transvection.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    BadParameters,
    CapExceeded,
    DimensionMismatch,
    FieldMismatch,
    InternalError,
    NotExplored,
    NotFound,
    Singular,
)
from .gf import Field
from .linalg import Mat, _check_entries, _code, _digits, dot
from .transvections import Transvection

Word = tuple

# Default exploration budget.  Each stored element costs one key (n bytes,
# or n characters of at most 4 bytes, plus the object header) and its
# distance and parent entries, so 10^7 elements stay within desk memory.
DEFAULT_CAP = 10**7


def _rows(M: Mat) -> tuple[int, ...]:
    return tuple(_code(M.F.q, r) for r in M.rows)


def _byte_keys(q: int, n: int) -> bool:
    """Whether the keys of n x n matrices over GF(q) are `bytes`: every one
    of the q^n row codes fits a byte.  Wider keys are strings."""
    return q**n <= 256


def _pack(M: Mat) -> str | bytes:
    """The key of a square matrix: its row codes, last row first, as bytes
    or as characters."""
    codes = reversed(_rows(M))
    if _byte_keys(M.F.q, M.nrows):
        return bytes(codes)
    return "".join(map(chr, codes))


def _row_codes(key: str | bytes) -> Iterable[int]:
    """The row codes of a key, first row first."""
    return reversed(key) if isinstance(key, bytes) else map(ord, reversed(key))


def _encode(F: Field, n: int, M: Mat) -> str | bytes | None:
    """The key of M, or None when M is not an n x n matrix over F."""
    if M.F != F or M.nrows != n or M.ncols != n:
        return None
    try:
        _check_entries(F, M.rows)
    except FieldMismatch:
        return None
    return _pack(M)


def _transvections(F: Field, n: int, keys: Iterable[str | bytes]
                   ) -> Iterator[tuple[str | bytes, Transvection]]:
    """(key, transvection) for each key that packs a transvection.

    Read off the row codes r_i: the displaced rows r_i - e_i must be
    multiples v_i phi of the first nonzero one, phi (so v is 1 there), with
    phi(v) = 0; which is the (v, phi) that `tv_from_matrix` recovers.  Only
    the keys that pass build a `Transvection`."""
    q = F.q
    units = [q**i for i in range(n)]
    minus_one = [F.sub(x, 1) - x for x in range(q)]  # digit x -> x - 1
    multiples: dict[int, dict[int, int]] = {}  # phi -> {code of c phi: c}
    for key in keys:
        v = [0] * n
        phi = 0
        for i, r in enumerate(_row_codes(key)):
            e = units[i]
            r += minus_one[r // e % q] * e  # the displaced row r_i - e_i
            if not r:
                continue
            if not phi:
                phi = r
                scaled = multiples.get(phi)
                if scaled is None:
                    digits = _digits(q, n, phi)
                    scaled = multiples[phi] = {
                        _code(q, [F.mul(c, x) for x in digits]): c
                        for c in range(1, q)}
                v[i] = 1
            else:
                c = scaled.get(r)
                if c is None:
                    break
                v[i] = c
        else:
            if phi:
                phi_digits = _digits(q, n, phi)
                if dot(F, phi_digits, v) == 0:
                    yield key, Transvection(F, v, phi_digits)


# A row table over at most this many row codes fills itself once it has
# missed on an eighth of them (`_RowTable`).
FILL_CODES = 2**16


class _RowTable(dict):
    """Row code -> code of row . S, for the matrix S over F given by its row
    codes, computed on first use, so any q^n works.  A miss needs no `Mat`
    and, in characteristic 2, no field multiplication.  Over D = q^n <=
    `FILL_CODES` codes, the miss that makes max(D // 8, 32) memoized codes
    fills the table with all D images in one pass (`all_images`): a table
    that misses that often is being walked over most of its codes.

    S has n rows and m = ncols columns (m = n unless given).

    p = 2: bit f k + b of a row code stands for x^b in coordinate k, whose
    image is x^b S_k, so a miss is the XOR of the images of the code's set
    bits.  The f n bit images are built on the first miss: over GF(2) they
    are the rows themselves, and over GF(2^f) the image of bit b + 1 is the
    image of bit b times x in all m lanes at once, by shifting each lane
    left and adding x^f mod the field's modulus where its top bit fell
    out.

    Odd p: the base-q code of a row is also the base-p code of its m f
    coefficients over F_p.  A miss adds, with plain integer +, the image
    d S_k of each nonzero digit d in coordinate k, stored with one w-bit
    lane per base-p digit, w = bit_length(n (p - 1)), so no lane carries
    into the next; then reduces each lane mod p once, back into a base-q
    code.  Each (coordinate, digit) image is built on its first use: a
    table sees few misses in a stabilizer chain."""

    __slots__ = ("F", "rows", "ncols", "images", "lanes", "fill_at")

    def __init__(self, F: Field, rows: Sequence[int], ncols: int | None = None):
        super().__init__()
        self.F = F
        self.rows = rows
        self.ncols = len(rows) if ncols is None else ncols
        self.images: list | None = None
        D = F.q ** len(rows)
        self.fill_at = max(D // 8, 32) if D <= FILL_CODES else None

    def __missing__(self, code: int) -> int:
        out = self[code] = self.image(code)
        if len(self) == self.fill_at:
            self.update(enumerate(self.all_images()))
        return out

    def image(self, code: int) -> int:
        """The code of row . S, not stored."""
        if self.F.p != 2:
            return self._odd_image(code)
        out = 0
        bits = self.images or self._bit_images()
        while code:
            low = code & -code
            out ^= bits[low.bit_length() - 1]
            code ^= low
        return out

    def all_images(self) -> list[int]:
        """The images of the codes 0..q^n - 1, in order, not stored; built
        coordinate by coordinate, since the codes below q^(k+1) are those
        below q^k plus d q^k for each digit d.  p = 2: the list doubles
        through each bit image b as the XOR of its entries with b.  Odd p:
        the wide-lane sums grow by each digit image of coordinate k with
        plain +, then one pass per lane reduces it mod p."""
        F = self.F
        if F.p == 2:
            out = [0]
            for b in self.images or self._bit_images():
                out += [x ^ b for x in out]
            return out
        p, q = F.p, F.q
        w, mask, shifts = self._lanes()
        acc = [0]
        for k, row in enumerate(self.images):
            for d in range(1, q):
                if row[d] is None:
                    row[d] = self._wide(w, k, d)
            acc = [a + b for b in [0, *row[1:]] for a in acc]
        out = [0] * len(acc)
        for s in shifts:
            out = [o * p + (a >> s & mask) % p for o, a in zip(out, acc)]
        return out

    def _bit_images(self) -> list[int]:
        f = self.F.f
        if f == 1:
            bits = list(self.rows)
        else:
            top = sum(1 << (f * j + f - 1) for j in range(self.ncols))
            r = self.F.from_digits(self.F.modulus[:f])  # x^f mod the modulus
            bits = []
            for c in self.rows:
                for _ in range(f):
                    bits.append(c)
                    hi = c & top
                    c = ((c ^ hi) << 1) ^ ((hi >> (f - 1)) * r)
        self.images = bits
        return bits

    def _lanes(self) -> tuple[int, int, range]:
        """(w, the w-bit mask, the lane shifts from the most significant),
        setting up the empty (coordinate, digit) image table on first use."""
        if self.images is None:
            F = self.F
            n = len(self.rows)
            w = (n * (F.p - 1)).bit_length()
            self.images = [[None] * F.q for _ in range(n)]
            self.lanes = (w, (1 << w) - 1, range(w * (self.ncols * F.f - 1), -1, -w))
        return self.lanes

    def _odd_image(self, code: int) -> int:
        p, q = self.F.p, self.F.q
        w, mask, shifts = self._lanes()
        images = self.images
        acc = 0
        k = 0
        while code:
            code, d = divmod(code, q)
            if d:
                wide = images[k][d]
                if wide is None:
                    wide = images[k][d] = self._wide(w, k, d)
                acc += wide
            k += 1
        out = 0
        for s in shifts:
            out = out * p + (acc >> s & mask) % p
        return out

    def _wide(self, w: int, k: int, d: int) -> int:
        """d S_k with one w-bit lane per base-p digit of its code."""
        F = self.F
        p, q = F.p, F.q
        c = self.rows[k]
        wide = 0
        shift = 0
        while c:
            c, x = divmod(c, q)
            y = F.mul(d, x)
            s = shift
            while y:
                y, r = divmod(y, p)
                wide |= r << s
                s += w
            shift += w * F.f
        return wide


class _Search:
    """Breadth-first search of the elements reached from the identity by
    right multiplication with the given steps: a product is one
    `translate` of the key through the step's table, 256 bytes for byte
    keys and a `_RowTable` for string keys.  `parents`, when kept, maps
    each key to the key it was first reached from (None at the
    identity)."""

    def __init__(self, F: Field, n: int, steps: Sequence[Mat]):
        D = F.q**n
        if D - 1 > sys.maxunicode:
            raise CapExceeded(f"q^n = {D} row codes exceed the "
                              f"{sys.maxunicode + 1} characters of a search key",
                              count=D)
        self.F = F
        self.n = n
        tables = [_RowTable(F, _rows(S)) for S in steps]
        if _byte_keys(F.q, n):
            pad = range(D, 256)
            tables = [bytes([*t.all_images(), *pad]) for t in tables]
        self.tables = tables

    def layer(self, frontier: list, seen: dict, d: int, cap: int,
              parents: dict | None = None) -> list:
        """Multiply each key of `frontier` by each step, in frontier order
        then step order, and record every new key in `seen` at distance d
        (and the frontier key it came from in `parents`).  Returns the new
        keys; stops early once `seen` holds more than `cap` keys."""
        tables = self.tables
        nxt = []
        for state in frontier:
            for table in tables:
                key = state.translate(table)
                if key not in seen:
                    seen[key] = d
                    if parents is not None:
                        parents[key] = state
                    nxt.append(key)
            if len(seen) > cap:
                break
        return nxt

    def step(self, parent: str | bytes, key: str | bytes) -> int:
        """The index of the first step, in step order, whose product with
        `parent` is `key`: the step that `layer` records the key through
        when it first reaches it from `parent`."""
        for si, table in enumerate(self.tables):
            if parent.translate(table) == key:
                return si
        raise InternalError("a recorded parent is not a neighbour of its key")

    def explore(self, cap: int, parents: dict | None = None,
                radius: int | None = None,
                target: str | bytes | None = None) -> tuple[dict, list[int]]:
        """Layers from the identity until none is new, or through distance
        `radius`, or through the layer holding `target`, or until more than
        `cap` elements are seen.  Returns the distance map and the
        per-distance counts of the complete layers; the caller detects the
        cap as len(seen) > cap."""
        ident = _pack(Mat.identity(self.F, self.n))
        seen = {ident: 0}
        if parents is not None:
            parents[ident] = None
        frontier = [ident]
        histogram = [1]
        while (frontier and (radius is None or len(histogram) <= radius)
               and target not in seen):
            frontier = self.layer(frontier, seen, len(histogram), cap, parents)
            if len(seen) > cap:
                break
            if frontier:
                histogram.append(len(frontier))
        return seen, histogram


def _check_generators(X: Sequence[Mat]) -> tuple[Field, int, list[Mat]]:
    """The field and size of the generators, and their inverses."""
    if not X:
        raise BadParameters("need at least one generator")
    F = X[0].F
    n = X[0].nrows
    inverses = []
    for M in X:
        if M.F != F:
            raise FieldMismatch("generators over different fields")
        if M.nrows != n or M.ncols != n:
            raise DimensionMismatch("generators of different sizes")
        try:  # FieldMismatch first for an entry outside F
            inverses.append(M.inv())
        except Singular:
            raise Singular("generators must be invertible") from None
    return F, n, inverses


def _check_element(F: Field, n: int, g: Mat) -> None:
    if g.F != F or g.nrows != n or g.ncols != n:
        raise DimensionMismatch("element does not match the generators")
    _check_entries(F, g.rows)


def _symmetrize(X: Sequence[Mat], inverses: list[Mat]) -> list[tuple[Mat, int, int]]:
    """The step list X followed by the inverses that are new matrices,
    each tagged (matrix, generator index, exponent)."""
    steps = [(M, i, 1) for i, M in enumerate(X)]
    seen = set(X)
    for i, Minv in enumerate(inverses):
        if Minv not in seen:
            seen.add(Minv)
            steps.append((Minv, i, -1))
    return steps


@dataclass(frozen=True)
class CayleyExploration:
    """Exact distances from the identity in the Cayley graph of <X> with
    respect to X and the inverses.

    `dist` maps the key of each element (see `encode`: its row codes, last
    row first, as bytes when q^n <= 256 and as a string otherwise) to its
    distance, `parents` to its parent key along one shortest path (None at
    the identity; `parents` is None when the search kept no words), and
    `steps` lists the symmetrized generators as (matrix, index into X,
    exponent).  The step from a parent to its key is the first one in step
    order whose product with the parent is the key.  The histogram counts
    elements per distance, so the diameter is len(histogram) - 1.  When
    `parents` is kept, so is the search that recorded it, and words are
    read back through its step tables."""

    F: Field
    n: int
    X: tuple[Mat, ...]
    steps: tuple[tuple[Mat, int, int], ...]
    dist: Mapping[str | bytes, int]
    parents: Mapping[str | bytes, str | bytes | None] | None
    diameter: int
    histogram: tuple[int, ...]
    _search: _Search | None = field(default=None, compare=False, repr=False)

    @property
    def order(self) -> int:
        return len(self.dist)

    def encode(self, M: Mat) -> str | bytes | None:
        """The key of M, or None when M is not an n x n matrix over F."""
        return _encode(self.F, self.n, M)

    def distance(self, g: Mat) -> int:
        """The distance of g; raises DimensionMismatch or FieldMismatch when
        g is not an n x n matrix over F, NotExplored when g is not reached."""
        _check_element(self.F, self.n, g)
        key = _pack(g)
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


def _explore(X: list[Mat], cap: int, what: str, radius: int | None = None,
             target: Mat | None = None, words: bool = True) -> tuple:
    """Search <X> from the identity over X and the inverses, through
    distance `radius` or the layer holding `target` when given.  Returns
    (search, steps, dist, parents, histogram), parents None unless
    `words`; raises CapExceeded, naming `what`, past `cap` elements."""
    F, n, inverses = _check_generators(X)
    if target is not None:
        _check_element(F, n, target)
    steps = _symmetrize(X, inverses)
    search = _Search(F, n, [S for S, _, _ in steps])
    parents: dict | None = {} if words else None
    dist, histogram = search.explore(cap, parents, radius,
                                     None if target is None else _pack(target))
    if len(dist) > cap:
        raise CapExceeded(f"{what} exceeded {cap} elements",
                          radius=len(histogram) - 1, count=cap)
    return search, steps, dist, parents, histogram


def bfs_explore(X: Sequence[Mat], cap: int = DEFAULT_CAP,
                words: bool = True) -> CayleyExploration:
    """Layered breadth-first search of <X> from the identity.

    Distances are taken over X and the inverses, so dist(g) = dist(g^-1)
    whenever the generating set is closed enough to matter.  Expansion is
    in deterministic insertion order (frontier order, then step order);
    identical inputs give identical distance maps.  Without `words` the
    search keeps no parents, a third of its memory, and the exploration
    gives no words.  Raises CapExceeded with the radius reached when the
    group is larger than `cap`.
    """
    X = list(X)
    search, steps, dist, parents, histogram = _explore(X, cap, "exploration",
                                                       words=words)
    return CayleyExploration(search.F, search.n, tuple(X), tuple(steps), dist,
                             parents, len(histogram) - 1, tuple(histogram),
                             search if words else None)


def _word(search: _Search, parents: Mapping,
          steps: Sequence[tuple[Mat, int, int]], key: str | bytes) -> Word:
    """The recorded word of `key`: the steps from each parent, read back
    from the identity."""
    out = []
    while True:
        parent = parents[key]
        if parent is None:
            break
        _, i, e = steps[search.step(parent, key)]
        out.append((i, e))
        key = parent
    out.reverse()
    return tuple(out)


def word_recover(exploration: CayleyExploration, g: Mat) -> Word:
    """A shortest word over X evaluating to g, as (index, exponent) pairs
    read left to right; the empty word at the identity.  Raises
    BadParameters when the exploration kept no words, DimensionMismatch or
    FieldMismatch when g is not an n x n matrix over F, and NotExplored
    when g is not reached."""
    if exploration.parents is None:
        raise BadParameters("the exploration kept no words")
    _check_element(exploration.F, exploration.n, g)
    key = _pack(g)
    if key not in exploration.dist:
        raise NotExplored("element not reached by the exploration")
    return _word(exploration._search, exploration.parents, exploration.steps, key)


def shortest_word(X: Sequence[Mat], g: Mat, cap: int = DEFAULT_CAP) -> Word:
    """A shortest word over X evaluating to g, as `word_recover` gives it
    after `bfs_explore`, from a search that ends with the layer in which g
    first appears.  Parents are set at first discovery, so the word is the
    one the full exploration records.  Raises CapExceeded when more than
    `cap` elements are seen first, NotExplored when g is not reached, and
    DimensionMismatch or FieldMismatch when g is not an n x n matrix over
    the field of X."""
    search, steps, dist, parents, _ = _explore(list(X), cap, "exploration",
                                               target=g)
    key = _pack(g)
    if key not in dist:
        raise NotExplored("element not reached by the exploration")
    return _word(search, parents, steps, key)


def bidirectional_distance(X: Sequence[Mat], g: Mat,
                           cap: int = DEFAULT_CAP) -> int:
    """The distance of a single element by meet-in-the-middle search.

    Grows balls around the identity and around g alternately (always
    expanding the smaller frontier) until they intersect, which reaches
    roughly the square root of the elements a full exploration would
    visit.  Raises NotFound when the search closes without meeting g.
    """
    X = list(X)
    F, n, inverses = _check_generators(X)
    _check_element(F, n, g)
    search = _Search(F, n, [S for S, _, _ in _symmetrize(X, inverses)])
    fa = [_pack(Mat.identity(F, n))]
    fb = [_pack(g)]
    if fb == fa:
        return 0
    a = {fa[0]: 0}
    b = {fb[0]: 0}
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
        meets = [d + other[k] for k in nxt if k in other]
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
    search, steps, dist, parents, _ = _explore([t.matrix() for t in T], cap,
                                               "ball exploration", radius=r)
    return {t: _word(search, parents, steps, key)
            for key, t in _transvections(search.F, search.n, dist)}


def transvection_length_profile(G_elements, T_all,
                                cap: int = DEFAULT_CAP) -> tuple[int, tuple[int, ...]]:
    """The maximum and histogram of word lengths over the given group when
    every transvection of the group is a generator.

    `G_elements` is the group: anything with an `.order` (such as a
    `CayleyExploration`) or an iterable of its elements.  `T_all` lists
    its transvections, as Transvection or matrix.
    T_all lies in the group, so it generates the group exactly when its
    exploration has the group's order, and the maximum is then that
    exploration's diameter; it keeps no words.  Raises BadParameters when
    T_all fails to generate.
    """
    mats = [t.matrix() if isinstance(t, Transvection) else t for t in T_all]
    ex = bfs_explore(mats, cap, words=False)
    order = getattr(G_elements, "order", None)
    if order is None:
        order = sum(1 for _ in G_elements)
    if ex.order != order:
        raise BadParameters("the transvections do not generate the group")
    return ex.diameter, ex.histogram
