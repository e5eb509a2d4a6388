"""Reference implementations the tests check the package against.

None of these is reached from the `transvect` command or from a public
function of the package: each one serves the tests alone, as the plain
answer that a faster or more specialised routine must reproduce.

- `enumerate_group` lists a group's elements, the oracle behind
  `group_order`, the Cayley searches and the transvection profile.
- `cycles_up_to` reads the whole closed-walk stream of `tgraph` that
  `defining_field` and form detection stop reading early.
- `directed_diameter` bounds the walk lengths form detection hunts to.
- `layering_audit` checks the parents a Cayley exploration records.
- `contains_space`, `elements` and `fixed_subfield` enumerate small
  subspaces and subfields outright.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from transvect.cayley import (
    CayleyExploration,
    _check_generators,
    _encode,
    _row_codes,
    _Search,
)
from transvect.classify import ELEMENT_BUDGET, VECTOR_TABLE_BUDGET
from transvect.errors import BadParameters, CapExceeded, NotStronglyConnected
from transvect.gf import Field
from transvect.linalg import Mat, Subspace, _digits, vec_add, vec_scale
from transvect.tgraph import (
    MAX_CYCLE_LEN,
    WALK_BUDGET,
    CycleRecord,
    TransvectionGraph,
    _closed_walks,
    _distances,
)


# -- exact enumeration -------------------------------------------------------


def _unpack(F: Field, n: int, key: str | bytes) -> Mat:
    return Mat(F, [_digits(F.q, n, c) for c in _row_codes(key)])


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
    F, n = _check_generators(gens)
    D = F.q**n
    if D > VECTOR_TABLE_BUDGET:
        raise CapExceeded("column table q^n exceeds the vector budget", count=D)
    seen, _ = _Search(F, n, gens).explore(cap)
    if len(seen) > cap:
        raise CapExceeded("group enumeration element budget exhausted", count=cap)
    return GroupEnumeration(F, n, frozenset(seen))


# -- transvection graphs -----------------------------------------------------


def cycles_up_to(G: TransvectionGraph, L: int,
                 budget_walks: int = WALK_BUDGET) -> list[CycleRecord]:
    """All closed walks of length 2..L with nonzero weight, one record per
    rotation class (canonical rotation = lexicographically least), sorted by
    (length, vertex tuple): the whole `_closed_walks` stream."""
    if L > MAX_CYCLE_LEN:
        raise BadParameters(f"cycle length cap is {MAX_CYCLE_LEN}, got {L}")
    if L < 1:
        raise BadParameters(f"need a cycle length bound L >= 1, got {L}")
    return [r for _, r in _closed_walks(G, L, budget_walks) if r is not None]


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


# -- subspaces and subfields -------------------------------------------------


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
