"""Group-level analysis of transvection sets at desk scale.

An irreducible subgroup of SL_n(q) generated by transvections is, up to
conjugacy and modulo subfield subgroups, one of: the full SL_n(q); a
special unitary group SU_n(q0) with q = q0^2; a symplectic group Sp_n(q)
with n even; an orthogonal group O+/-_n(q) with n and q even; a monomial
group C_a^(n-1) : S_n with a > 1 odd dividing q - 1 and q even; a
symmetric group S_(n+1) or S_(n+2) over GF(2) with n even; or one of
three small exceptional groups.  `classify` realizes that case analysis
by detecting invariant structures (bilinear and hermitian forms,
quadratic refinements, and line sets and spanning sets read off one
transvection class), descending to the subfield generated by cycle
weights, and cross-checking the tag against the exact group order,
computed by deterministic Schreier-Sims, when it fits the element budget.

`certify` assembles a small witness subset T0 whose cycle weights, form
obstructions and exclusion subsets pin the classification of any
strongly connected superset drawn from the same group, together with a
word map expressing each element of T0 over the input set.

Everything here is deterministic: detectors read the class of the first
generator breadth-first and break ties by code, and the stabilizer chain
behind `group_order` is built in generator order on the packed-row tables
of `cayley`, reproducible from the generator order.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Sequence

from .cayley import _check_generators, _rows, _RowTable
from .errors import (
    BadParameters,
    CapExceeded,
    InternalError,
    UnsupportedTag,
    WrongField,
    _require,
)
from .forms import (
    ObstructionCycle,
    QuadraticForm,
    QuadraticObstruction,
    SesquiForm,
    detect_invariant_form,
    recover_quadratic,
)
from .gf import Field, field_create
from .linalg import (
    Mat,
    Subspace,
    Vec,
    _code,
    _digits,
    _hold,
    _inverse_codes,
    _reduce,
    dot,
    vec_add,
    vec_scale,
)
from .tgraph import (
    TransvectionGraph,
    Word,
    _radicals,
    _pairing,
    _require_irreducible,
    _tree_scales,
    build_graph,
    connect_up,
    defect,
    defining_field,
    densify,
    is_strongly_connected,
    restrict_to_section,
    winkle,
    word_matrix,
)
from .transvections import Transvection, tv_from_matrix

__all__ = [
    "ELEMENT_BUDGET",
    "CERT_MAX_CYCLE",
    "CERT_MAX_SUBSET",
    "CERT_MAX_SIZE",
    "GroupTypeTag",
    "LINEAR",
    "UNITARY",
    "SYMPLECTIC",
    "ORTHOGONAL_PLUS",
    "ORTHOGONAL_MINUS",
    "SYMMETRIC_ODD",
    "SYMMETRIC_EVEN",
    "UNDETERMINED",
    "monomial_tag",
    "exceptional_tag",
    "MonomialStructure",
    "ClassificationReport",
    "Certificate",
    "group_order",
    "order_formula",
    "build_monomial_group",
    "build_symmetric_rep",
    "detect_monomial_structure",
    "detect_symmetric_type",
    "quadratic_type",
    "classify",
    "certify",
    "sample_supersets",
    "stability_check",
]

ELEMENT_BUDGET = 10**7
# `classify` computes the exact order only while q^n, the number of row
# codes, is at most this; past it `classify` notes the order cross-check as
# skipped.
VECTOR_TABLE_BUDGET = 2**16
# Certificate budgets: obstruction cycles stay short because dense graphs
# have diameter <= 2, exclusion subsets and the whole certificate stay small.
CERT_MAX_CYCLE = 5
CERT_MAX_SUBSET = 32
CERT_MAX_SIZE = 128
# Element budget for classifying the sections of stability supersets.
STABILITY_ELEMENT_BUDGET = 2 * 10**4

TAG_KINDS = (
    "Linear",
    "Unitary",
    "Symplectic",
    "OrthogonalPlus",
    "OrthogonalMinus",
    "Monomial",
    "SymmetricOdd",
    "SymmetricEven",
    "Exceptional",
    "Undetermined",
)
CLASSICAL_KINDS = (
    "Linear",
    "Unitary",
    "Symplectic",
    "OrthogonalPlus",
    "OrthogonalMinus",
)


@dataclass(frozen=True)
class GroupTypeTag:
    """One of the group types in the classification.

    Monomial tags carry the root-of-unity parameter a (odd, > 1; that it
    divides q - 1 depends on the field and is checked where a field is in
    scope).  Exceptional tags carry a label.  The orthogonal tags only
    arise in characteristic 2, which `order_formula` and `classify`
    enforce.
    """

    kind: str
    a: int | None = None
    label: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in TAG_KINDS:
            raise BadParameters(f"unknown group type kind {self.kind!r}")
        if self.kind == "Monomial":
            if self.a is None or self.a <= 1 or self.a % 2 == 0:
                raise BadParameters("monomial tags need an odd parameter a > 1")
        elif self.a is not None:
            raise BadParameters(f"{self.kind} tags carry no parameter")
        if self.kind == "Exceptional":
            if not self.label:
                raise BadParameters("exceptional tags need a label")
        elif self.label is not None:
            raise BadParameters(f"{self.kind} tags carry no label")

    def __str__(self) -> str:
        if self.kind == "Monomial":
            return f"Monomial({self.a})"
        if self.kind == "Exceptional":
            return f"Exceptional({self.label})"
        return self.kind


LINEAR = GroupTypeTag("Linear")
UNITARY = GroupTypeTag("Unitary")
SYMPLECTIC = GroupTypeTag("Symplectic")
ORTHOGONAL_PLUS = GroupTypeTag("OrthogonalPlus")
ORTHOGONAL_MINUS = GroupTypeTag("OrthogonalMinus")
SYMMETRIC_ODD = GroupTypeTag("SymmetricOdd")
SYMMETRIC_EVEN = GroupTypeTag("SymmetricEven")
UNDETERMINED = GroupTypeTag("Undetermined")


def monomial_tag(a: int) -> GroupTypeTag:
    return GroupTypeTag("Monomial", a=a)


def exceptional_tag(label: str) -> GroupTypeTag:
    return GroupTypeTag("Exceptional", label=label)


# the exceptional groups whose order `classify` asserts, by (n, q)
_EXCEPTIONAL_ORDERS = {(2, 9): (exceptional_tag("SL2(5)"), 120),
                       (3, 4): (exceptional_tag("3.A6"), 1080)}


@dataclass(frozen=True)
class MonomialStructure:
    """An invariant monomial structure: n independent projective points
    (leading-1 representatives) whose line set every generator permutes,
    and the parameter a, the lcm of the orders of the scales c in
    t(l) = c l' over the generators t and lines l.  These scales are the
    nonzero entries of the generators in the basis of the lines."""

    lines: tuple[Vec, ...]
    a: int


def _witness_json(x):
    if isinstance(x, SesquiForm):
        return {"twist": x.twist, "gram": x.gram.to_json()}
    if isinstance(x, QuadraticForm):
        return {"coeffs": x.coeffs.to_json()}
    if isinstance(x, ObstructionCycle):
        return {"verts": list(x.verts), "weight_fwd": x.weight_fwd,
                "weight_rev": x.weight_rev, "defect": x.defect, "twist": x.twist}
    if isinstance(x, QuadraticObstruction):
        return {"index": x.index, "value": x.value}
    if isinstance(x, MonomialStructure):
        return {"lines": [list(v) for v in x.lines]}
    if isinstance(x, Mat):
        return x.to_json()
    if isinstance(x, (tuple, list)):
        return [_witness_json(y) for y in x]
    if hasattr(x, "verts") and hasattr(x, "weight"):  # CycleRecord
        return {"verts": list(x.verts), "weight": x.weight}
    if isinstance(x, (int, str)) or x is None:
        return x
    return repr(x)  # pragma: no cover - no other witness kinds are stored


@dataclass(frozen=True)
class ClassificationReport:
    """Outcome of `classify`: the type tag, the degree over the prime field
    of the subfield generated by cycle weights, the structural witnesses
    backing the tag, and the two orders, which must agree whenever both
    are present: `order_predicted` from the formula of the tag, and
    `order_enumerated`, the exact order of the generated group from a
    stabilizer chain or a proven floor meeting its bound (the key keeps
    its historical name); None when it was not computed (the order
    exceeds the element budget, or q^n exceeds the vector budget), with a
    note saying which."""

    tag: GroupTypeTag
    field_degree: int
    witnesses: dict
    order_predicted: int | None
    order_enumerated: int | None
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if (self.order_predicted is not None and self.order_enumerated is not None
                and self.order_predicted != self.order_enumerated):
            raise BadParameters("predicted and enumerated orders disagree")

    def to_json(self) -> dict:
        return {
            "tag": str(self.tag),
            "field_degree": self.field_degree,
            "witnesses": {k: _witness_json(v) for k, v in self.witnesses.items()},
            "order_predicted": self.order_predicted,
            "order_enumerated": self.order_enumerated,
            "notes": list(self.notes),
        }


@dataclass(frozen=True)
class Certificate:
    """A witness subset T0 of the transvection closure of <T>, each element
    expressed as a word over the base set T, plus the certified facts
    (field witness cycles, form obstructions, exclusion subsets,
    nondegeneracy and connectivity data) as JSON-ready records."""

    base: tuple[Transvection, ...]
    T0: tuple[Transvection, ...]
    words: tuple[Word, ...]
    properties: tuple[dict, ...]

    def __post_init__(self) -> None:
        if len(self.T0) > CERT_MAX_SIZE:
            raise BadParameters(f"certificate exceeds {CERT_MAX_SIZE} transvections")
        if len(self.words) != len(self.T0):
            raise BadParameters("need one word per certificate element")
        for t, w in zip(self.T0, self.words):
            if word_matrix(self.base, w).rows != t.matrix().rows:
                raise BadParameters("a certificate word does not evaluate to its element")

    def to_json(self) -> dict:
        return {
            "T0": [t.to_json() for t in self.T0],
            "words": [[[i, e] for i, e in w] for w in self.words],
            "properties": [dict(p) for p in self.properties],
        }


# -- exact order -------------------------------------------------------------


class _Chain:
    """A stabilizer chain for the base e_0..e_(n-1), over packed rows.

    An element is its tuple of row codes, in the packing of the `cayley`
    search engine.  The group acts on row vectors by right multiplication,
    so the image of the base point e_i under g is row i of g, and the
    product g h maps the rows of g through the row table of h.  Level i
    holds the strong generators fixing e_0..e_(i-1), each a record (rows,
    row table, inverse rows), and the basic orbit of e_i: the orbit points
    in discovery order, and for each point p the transversal entry
    [u, s, parent, inverse table] with e_i u = p (None at e_i), where the
    record s took the parent to p, so u = u_parent s.  No `Mat` is built.
    An input generator comes with its inverse rows: in closed form for a
    transvection 1 + v (x) phi, whose inverse is exactly 1 - v (x) phi,
    and by Gauss-Jordan in `group_order`.  A residue is inverted by
    Gauss-Jordan on its row codes.  The row table of u^-1 =
    s^-1 u_parent^-1 is built only when a sift first strips through p,
    from the inverse rows of s mapped through the parent's table, itself
    built the same way and kept.  A chain stopped early by its bound never
    builds the inverses of most points.

    Orbits only grow, so the product of the orbit lengths is a lower bound
    on the order throughout; `_close` checks it against the cap and
    against `bound`, an upper bound on the order known to the caller.
    """

    def __init__(self, F: Field, n: int, cap: int, bound: int | float):
        self.F, self.n, self.cap, self.bound = F, n, cap, bound
        self.base = tuple(F.q**i for i in range(n))  # also the identity's rows
        self.gens: list[list[tuple]] = [[] for _ in range(n)]
        self.points = [[b] for b in self.base]
        self.orbits: list[dict] = [{b: None} for b in self.base]
        # per level and orbit point: how many strong generators have had
        # their Schreier generator at that point sifted
        self.checked = [[0] for _ in range(n)]
        self.records: dict[tuple, tuple] = {}

    def strong(self, rows: tuple, inverse: tuple | None = None) -> tuple:
        """The strong generator record (rows, row table, inverse rows), one
        per element: a residue equal to an earlier strong generator shares
        its record.  The inverse rows are `inverse` when given, else found
        by Gauss-Jordan."""
        s = self.records.get(rows)
        if s is None:
            if inverse is None:
                inverse = _inverse_codes(self.F, rows)
            _require(inverse is not None, "a strong generator is singular")
            s = self.records[rows] = (rows, _RowTable(self.F, rows), inverse)
        return s

    def _transversal_inverse(self, orbit: dict, entry: list) -> _RowTable:
        """The row table of u^-1 for an orbit entry, built on first use
        together with those of its ancestors that still lack one."""
        if entry[3] is None:
            path = []
            while entry is not None and entry[3] is None:
                path.append(entry)
                entry = orbit[entry[2]]
            for e in reversed(path):
                inv = e[1][2]  # the inverse rows of s
                if entry is not None:  # the parent is not the base point
                    inv = tuple(map(entry[3].__getitem__, inv))
                e[3] = _RowTable(self.F, inv)
                entry = e
        return entry[3]

    def order(self) -> int:
        return math.prod(map(len, self.points))

    def add(self, s: tuple, lo: int, hi: int) -> None:
        """Make s a strong generator of levels lo..hi and close their
        orbits under it."""
        for level in range(lo, hi + 1):
            self.gens[level].append(s)
            self._close(level, len(self.gens[level]) - 1)

    def _close(self, level: int, first: int) -> None:
        """Extend the basic orbit of `level` by generators `first` onwards
        (on old points) and by all generators (on new points).  Raises
        CapExceeded once the product of the orbit lengths exceeds the cap,
        and InternalError once it exceeds the bound."""
        pts, orbit, gens = self.points[level], self.orbits[level], self.gens[level]
        others = self.order() // len(pts)
        old = len(pts)
        k = 0
        while k < len(pts):
            p = pts[k]
            u = orbit[p]
            for s in gens[first if k < old else 0:]:
                tbl = s[1]
                r = tbl[p]
                if r in orbit:
                    continue
                rows = s[0] if u is None else tuple(map(tbl.__getitem__, u[0]))
                orbit[r] = [rows, s, p, None]
                pts.append(r)
                self.checked[level].append(0)
                lower = len(pts) * others
                if lower > self.cap:
                    raise CapExceeded("group order element budget exhausted",
                                      count=self.cap)
                if lower > self.bound:
                    raise InternalError(f"the orbit lengths multiply to more "
                                        f"than the order bound {self.bound}")
            k += 1

    def sift(self, h: tuple, start: int) -> tuple[tuple | None, int]:
        """Strip h through levels start..n-1.  Returns (residue, level) at
        the first level whose orbit misses the base image, else (None, n)."""
        base = self.base
        for level in range(start, self.n):
            p = h[level]
            if p == base[level]:
                continue
            orbit = self.orbits[level]
            entry = orbit.get(p)
            if entry is None:
                return h, level
            h = tuple(map(self._transversal_inverse(orbit, entry).__getitem__, h))
            if h[level] != base[level]:
                raise InternalError(f"a transversal inverse at level {level} "
                                    f"does not return its point to the base")
        if h != base:
            raise InternalError("a sift residue fixes every base image but is "
                                "not the identity")
        return None, self.n

    def complete_level(self, level: int) -> int | None:
        """Sift the unchecked Schreier generators u_p s u_(p s)^-1 of
        `level` through the levels below.  On the first that does not sift
        to the identity, adds its residue as a strong generator and returns
        the level where it dropped out; returns None when all sift."""
        pts, orbit, gens = self.points[level], self.orbits[level], self.gens[level]
        checked = self.checked[level]
        for k, p in enumerate(pts):
            u = orbit[p]
            while checked[k] < len(gens):
                s = gens[checked[k]]
                checked[k] += 1
                tbl = s[1]
                a = s[0] if u is None else tuple(map(tbl.__getitem__, u[0]))
                w = orbit[tbl[p]]
                if w is None:
                    h = a
                elif a == w[0]:
                    continue  # the edge that defined u_(p s)
                else:
                    h = tuple(map(self._transversal_inverse(orbit, w).__getitem__, a))
                res, drop = self.sift(h, level + 1)
                if res is not None:
                    self.add(self.strong(res), level + 1, drop)
                    return drop
        return None


def group_order(gens: Sequence[Mat], cap: int = ELEMENT_BUDGET) -> int:
    """Exact order of the group generated by invertible matrices.

    Deterministic Schreier-Sims (Seress, *Permutation Group Algorithms*,
    ch. 4): a linear group acts faithfully on row vectors, and an element
    is determined by the images of e_1..e_n, so the standard basis is a
    base.  Every Schreier generator is sifted, so the order, the product of
    the basic orbit lengths, is exact.  Orbits only grow while the chain is
    built, so their product is a lower bound on the order throughout:
    raises CapExceeded as soon as it exceeds `cap`.  The chain runs on
    packed row codes and builds no `Mat` (see `_Chain`): a residue is
    inverted by Gauss-Jordan on its codes, an input by the generator check,
    and a transversal inverse when a sift first strips through its point.
    """
    F, n, inverses = _check_generators(gens)
    pairs = [(_rows(M), _rows(Minv)) for M, Minv in zip(gens, inverses)]
    return _group_order(F, n, pairs, cap, math.inf)


def _group_order(F: Field, n: int,
                 gens: Sequence[tuple[tuple[int, ...], tuple[int, ...]]],
                 cap: int, bound: int | float) -> int:
    """`group_order` of the invertible n x n matrices over F given as
    (row codes, inverse row codes) pairs, stopped as soon as the product of
    the orbit lengths reaches `bound`, a proven upper bound on the order.

    Each basic orbit of the chain lies in the orbit of the full point
    stabilizer, so the product is at most the order; once it equals an
    upper bound, the order is that bound, and the remaining Schreier
    generators need not be sifted.  A product above the bound raises
    InternalError.  The product is monotone, so it passes any cap below the
    bound before it can reach the bound: CapExceeded is raised exactly
    where `group_order` raises it.
    """
    if cap < 1:
        raise CapExceeded("group order element budget exhausted", count=cap)
    chain = _Chain(F, n, cap, bound)
    for rows, inverse in gens:
        if rows != chain.base and rows not in chain.records:
            chain.add(chain.strong(rows, inverse), 0, 0)
    level = 0
    while level >= 0 and chain.order() < bound:
        drop = chain.complete_level(level)
        level = level - 1 if drop is None else drop
    return chain.order()


def order_formula(tag: GroupTypeTag, n: int, q: int) -> int:
    """Order of the group of the given type acting on GF(q)^n.

    q is the ambient field size: a Unitary tag means SU_n(q0) with
    q0 = sqrt(q).  Monomial(a) gives a^(n-1) n!, the symmetric types give
    (n+1)! and (n+2)!.  Raises UnsupportedTag for Undetermined and
    Exceptional, BadParameters for invalid (tag, n, q) combinations.
    """
    if tag.kind in ("Undetermined", "Exceptional"):
        raise UnsupportedTag(f"no order formula for {tag}")
    if n < 2 or q < 2:
        raise BadParameters("need n >= 2 and q >= 2")
    if tag.kind == "Linear":
        o = q ** (n * (n - 1) // 2)
        for k in range(2, n + 1):
            o *= q**k - 1
        return o
    if tag.kind == "Unitary":
        q0 = math.isqrt(q)
        if q0 * q0 != q:
            raise BadParameters("unitary groups need a square ambient field")
        o = q0 ** (n * (n - 1) // 2)
        for k in range(2, n + 1):
            o *= q0**k - (-1) ** k
        return o
    if tag.kind == "Symplectic":
        if n % 2:
            raise BadParameters("symplectic groups need even dimension")
        m = n // 2
        o = q ** (m * m)
        for k in range(1, m + 1):
            o *= q ** (2 * k) - 1
        return o
    if tag.kind in ("OrthogonalPlus", "OrthogonalMinus"):
        if n % 2:
            raise BadParameters("orthogonal transvection groups need even dimension")
        if q % 2:
            raise BadParameters("orthogonal transvections need characteristic 2")
        m = n // 2
        eps = 1 if tag.kind == "OrthogonalPlus" else -1
        o = 2 * q ** (m * (m - 1)) * (q**m - eps)
        for k in range(1, m):
            o *= q ** (2 * k) - 1
        return o
    if tag.kind == "Monomial":
        if q % 2:
            raise BadParameters("monomial transvection groups need characteristic 2")
        if (q - 1) % tag.a:
            raise BadParameters("the monomial parameter must divide q - 1")
        return tag.a ** (n - 1) * math.factorial(n)
    # symmetric types
    if q != 2 or n % 2:
        raise BadParameters("symmetric types live over GF(2) in even dimension")
    if tag.kind == "SymmetricOdd":
        return math.factorial(n + 1)
    return math.factorial(n + 2)


# -- constructors ------------------------------------------------------------


def build_monomial_group(n: int, a: int, F: Field) -> list[Transvection]:
    """Transvection generators of the monomial group C_a^(n-1) : S_n in
    SL_n(F): for each axis pair i < j and each a-th root of unity x, the
    map e_i -> x e_j, e_j -> x^(-1) e_i fixing the other axes, which is
    the transvection with v = e_i + x e_j and phi = e_i* + x^(-1) e_j*.
    """
    if F.p != 2:
        raise BadParameters("monomial transvection groups need characteristic 2")
    if n < 2:
        raise BadParameters("need n >= 2")
    if a <= 1 or a % 2 == 0:
        raise BadParameters("need an odd parameter a > 1")
    if (F.q - 1) % a:
        raise BadParameters("a must divide q - 1")
    r = F.pow(F.primitive_element(), (F.q - 1) // a)
    roots = []
    x = 1
    for _ in range(a):
        roots.append(x)
        x = F.mul(x, r)
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            for x in roots:
                v = [0] * n
                phi = [0] * n
                v[i], v[j] = 1, x
                phi[i], phi[j] = 1, F.inv(x)
                out.append(Transvection(F, v, phi))
    return out


def build_symmetric_rep(m: int) -> list[Transvection]:
    """Transvection images of the adjacent transpositions (k, k+1) of S_m
    on its natural module over GF(2).

    The permutation module K^m (K = GF(2)) has the sum-zero hyperplane H
    and the all-ones line l; the natural module is V = H / (l cap H) of
    dimension n = m - gcd(m, 2).  In the basis given by the images of
    b_i = e_i + e_(m-1) (0-based, i < n), a sum-zero vector h has
    coordinates h_i for odd m and h_i + h_(m-2) for even m.  Transpositions
    act on V as transvections; m >= 5 keeps the action irreducible.
    """
    if m < 5:
        raise BadParameters("need m >= 5")
    F = field_create(2)
    even = m % 2 == 0
    n = m - (2 if even else 1)

    def coords(h: Sequence[int]) -> tuple[int, ...]:
        if even:
            return tuple(h[i] ^ h[m - 2] for i in range(n))
        return tuple(h[i] for i in range(n))

    basis = []
    for i in range(n):
        h = [0] * m
        h[i] = 1
        h[m - 1] ^= 1
        basis.append(h)
    out = []
    for k in range(m - 1):
        cols = []
        for h in basis:
            img = list(h)
            img[k], img[k + 1] = img[k + 1], img[k]
            cols.append(coords(img))
        rows = tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))
        out.append(tv_from_matrix(Mat(F, rows)))
    return out


# -- structure detectors -----------------------------------------------------


def _normalize_point(F: Field, v: Sequence[int]) -> Vec:
    c = next(a for a in v if a)
    return tuple(v) if c == 1 else vec_scale(F, F.inv(c), v)


def _transvection_rows(F: Field, c: int, u: Vec, w: Vec) -> tuple[int, ...]:
    """The row codes e_k + c u_k w of 1 + c u (x) w: the code of (c u_k) w
    with digit k raised by 1, so no matrix is built."""
    q = F.q
    if q == 2:  # c u_k is u_k, and raising a digit is XOR
        code = _code(2, w)
        return tuple(1 << k ^ (code if x else 0) for k, x in enumerate(u))
    scaled: dict[int, int] = {}
    rows = []
    for k, x in enumerate(u):
        a = F.mul(c, x)
        if a not in scaled:
            scaled[a] = _code(q, vec_scale(F, a, w))
        d = scaled[a] // q**k % q
        rows.append(scaled[a] + (F.add(d, 1) - d) * q**k)
    return tuple(rows)


def _class_orbit(G: TransvectionGraph, cap: int) -> list[tuple[Vec, Vec]] | None:
    """The class of t = G.verts[0] under conjugation by the generators, as
    (v, phi) with v scaled to first nonzero coordinate 1, t first, then
    breadth-first; None past `cap` elements or once two share a v.
    s t s^-1 = 1 + s(v) (phi o s^-1) maps the codes of v and phi through
    the `_RowTable`s of s^T (rows e_k + phi_s,k v_s) and s^-1 (rows
    e_k - v_s,k phi_s), then, if v has lowest nonzero digit d != 1, those
    of d^-1 I and d I, built for each d on first use.  The digit d is read
    at the lowest set bit of the code when q = 2^f, and by division by q
    otherwise."""
    F, n, q = G.F, G.n, G.F.q

    def table(c: int, u: Vec, w: Vec) -> Callable[[int], int]:
        return _RowTable(F, _transvection_rows(F, c, u, w)).image

    steps = [(table(1, s.phi, s.v), table(F.neg(1), s.v, s.phi)) for s in G]
    t, scales = G.verts[0], {}
    orbit = {_code(q, t.v): _code(q, t.phi)}
    queue = list(orbit.items())
    for v, phi in queue:
        for image_v, image_phi in steps:
            w, psi = image_v(v), image_phi(phi)
            if F.p == 2:  # the f bits at the lowest set bit's digit
                d = (w >> (((w & -w).bit_length() - 1) // F.f * F.f)) & (q - 1)
            else:
                d = w
                while not d % q:
                    d //= q
                d %= q
            if d != 1:
                if d not in scales:
                    scales[d] = [_RowTable(F, [c * q**k for k in range(n)]).image
                                 for c in (F.inv(d), d)]
                w, psi = scales[d][0](w), scales[d][1](psi)
            known = orbit.get(w)
            if known is None:
                if len(queue) == cap:
                    return None
                orbit[w] = psi
                queue.append((w, psi))
            elif known != psi:
                return None
    return [(_digits(q, n, v), _digits(q, n, phi)) for v, phi in queue]


def _capped_orbit(G: TransvectionGraph, start: Vec, cap: int,
                  canon: Callable[[Vec], Vec] = tuple) -> list[Vec] | None:
    """The orbit of `start` under the generators through `canon`, breadth
    first, or None once it passes `cap` points."""
    orbit, seen = [start], {start}
    for u in orbit:
        for t in G:
            w = canon(t.apply(u))
            if w not in seen:
                if len(orbit) == cap:
                    return None
                seen.add(w)
                orbit.append(w)
    return orbit


def _spanning_set(G: TransvectionGraph) -> tuple[Vec, ...] | None:
    """The invariant set B of n + 1 vectors of rank n, sorted by code, or
    None (see `detect_symmetric_type`): b in B spans the common kernel of
    phi_y, for y the first of the class C not commuting with x = C[0], and
    of the other phi commuting with x; B is the orbit of b.  Pairings are
    read off codes (`_pairing`), over GF(2) by bit parities; the kernel
    and the rank of B come from `Subspace`."""
    F, n, q = G.F, G.n, G.F.q
    size = n * (n + 1) // 2
    C = _class_orbit(G, size)
    if C is None or len(C) != size:
        return None
    (xv, xphi), rest = C[0], C[1:]
    at_v, at_phi = _pairing(F, xphi), _pairing(F, xv)
    meets = [bool(at_v(_code(q, v)) or at_phi(_code(q, phi))) for v, phi in rest]
    if True not in meets:
        return None
    S = Subspace(F, n, [rest[meets.index(True)][1]]
                 + [phi for (_, phi), m in zip(rest, meets) if not m])
    if S.dim != n - 1:
        return None
    B = _capped_orbit(G, S.perp().basis[0], n + 1)  # an RREF row is normalized
    if B is None or len(B) != n + 1 or Subspace(F, n, B).dim != n:
        return None
    return tuple(sorted(B, key=lambda u: u[::-1]))


def _artin_schreier_root(F: Field, z: int) -> int | None:
    """The root mu of mu^2 + mu = z in GF(2^f) with bit 0 clear, or None: z
    reduced against the GF(2) rows image(bit k) | bit k << f, held on their
    image columns, leaves mu in its high bits; bit 0 maps to 0."""
    f, F2, held = F.f, field_create(2), []
    for k in range(f):
        row = F.mul(1 << k, 1 << k) ^ 1 << k | 1 << k + f
        _hold(F2, held, _reduce(F2, held, row), f)
    x = _reduce(F2, held, z)
    return None if x & (1 << f) - 1 else x >> f


def detect_monomial_structure(gens: Sequence[Transvection]):
    """The invariant monomial structure of an irreducible set, or None.

    If an irreducible G keeps a line set, each of its transvections swaps
    two lines and fixes the rest pointwise: it is fixed by its v, G has at
    most C(n, 2) (q - 1) of them, and it squares to 1, so p = 2.  So the
    class C of the first generator x is read with that cap and the stop on
    a shared v (`_class_orbit`).  G is transitive on its lines and its
    diagonal part is not scalar, so for each line structure some s in C
    swaps x's two lines, which are then the eigenlines alpha v_x + v_s of
    s x: alpha = a mu, mu^2 + mu = 1/(a b), a = phi_x(v_s), b = phi_s(v_x).
    One root gives one line, whose orbit is the structure: a candidate whose
    point orbit, capped at n, holds n independent points.  The one returned
    has the least point of smallest code, its lines sorted by code, as a
    scan of all point orbits would choose.
    """
    G = build_graph(gens)
    _require_irreducible(G, "monomial detection needs an irreducible action")
    F, n = G.F, G.n
    C = _class_orbit(G, math.comb(n, 2) * (F.q - 1)) if F.p == 2 else None
    if C is None:
        return None
    x, tried, found = C[0], set(), []
    for s in C[1:]:
        a, b = dot(F, x[1], s[0]), dot(F, s[1], x[0])
        mu = _artin_schreier_root(F, F.inv(F.mul(a, b))) if a and b else None
        if mu is None:
            continue
        line = _normalize_point(F, vec_add(F, vec_scale(F, F.mul(a, mu), x[0]), s[0]))
        if line not in tried:
            orbit = _capped_orbit(G, line, n, lambda w: _normalize_point(F, w))
            tried.update(orbit or (line,))
            if orbit and len(orbit) == n and Mat(F, orbit).rank() == n:
                found.append(tuple(sorted(orbit, key=lambda u: u[::-1])))
    if not found:
        return None
    lines = min(found, key=lambda ls: ls[0][::-1])
    a = 1
    for t in G:  # invariance holds because point orbits are invariant
        images = [t.apply(v) for v in lines]
        _require({_normalize_point(F, w) for w in images} == set(lines),
                 "a point orbit is not invariant")
        for w in images:  # t(l) = c l' with c the first entry of t(l)
            a = math.lcm(a, F.element_order(next(c for c in w if c)))
    return MonomialStructure(lines, a)


def detect_symmetric_type(gens: Sequence[Transvection]):
    """The invariant spanning set of size n+1 over GF(2), or None.

    An irreducible transvection group over GF(2) has odd symmetric type
    (it is S_(n+1) permuting B) exactly when such an invariant spanning
    set exists; B is then its unique orbit of that size (the orbits of S_m
    on its natural module have sizes C(m, 2k)).  If an irreducible G keeps
    B, each of its transvections is a transposition on B: for n + 1 >= 5
    one moving two pairs would give a relation among four elements of B,
    whose only relation involves all of them; n + 1 = 4 has no irreducible
    example (S4 or D8 on K^4/<1> keeps H/<1>); n + 1 = 3 is S3.  So the
    class of the first generator is the C(n+1, 2) transpositions, no two
    sharing a v; `_spanning_set` reads B off it, up to a scalar over GF(2^f).
    """
    G = build_graph(gens)
    if G.F.q != 2:
        raise WrongField("symmetric type detection applies over GF(2)")
    _require_irreducible(G, "symmetric type detection needs an irreducible action")
    return _spanning_set(G)


def quadratic_type(Q: QuadraticForm) -> str:
    """\"plus\" (hyperbolic) or \"minus\" (elliptic) for a quadratic form in
    characteristic 2, from its Arf invariant sum Q(e_i) Q(f_i) over a
    symplectic basis of the polarization f, built by reduction: a vector e,
    a partner g scaled to f(e, g) = 1, and the rest projected to
    w + f(w, g) e + f(w, e) g.  Q is plus type exactly when the absolute
    trace of Arf(Q) is 0 (Arf 1941; Taylor, Geometry of the Classical
    Groups, ch. 11)."""
    F = Q.F
    rest, arf, trace = list(Mat.identity(F, Q.n).rows), 0, 0
    while rest:
        e = rest.pop()
        fe = Q.polar.dual_covector(e)
        k = next((i for i, w in enumerate(rest) if dot(F, w, fe)), None)
        _require(k is not None, "the polarization of a quadratic form is degenerate")
        g = vec_scale(F, F.inv(dot(F, rest[k], fe)), rest.pop(k))
        fg = Q.polar.dual_covector(g)
        arf = F.add(arf, F.mul(Q.evaluate(e), Q.evaluate(g)))
        rest = [vec_add(F, w, vec_add(F, vec_scale(F, dot(F, w, fg), e),
                                      vec_scale(F, dot(F, w, fe), g))) for w in rest]
    for _ in range(F.f):
        trace, arf = F.add(trace, arf), F.frobenius(arf)
    return "minus" if trace else "plus"


# -- subfield descent --------------------------------------------------------


def _eval_poly(F: Field, coeffs: Sequence[int], x: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = F.add(F.mul(acc, x), c)
    return acc


def _subfield_iso(F: Field, e: int) -> tuple[Field, dict[int, int]]:
    """The degree-e subfield F0 of F mapped onto the abstract field
    GF(p^e), as a dict whose keys are F0.

    F0 is 0 and the powers of h = g^((q - 1)/(p^e - 1)), g the primitive
    element of F.  The least g0 of order p^e - 1 in F0 goes to the least
    root r in GF(p^e) of its minimal polynomial, whose coefficients are
    prime-field integers shared by both encodings, and g0^k to r^k.  A map
    that is multiplicative and keeps 0 is additive once it keeps u + 1 for
    every u, since phi(x + y) = phi(y) (phi(x/y) + 1), so that is checked
    on the p^e elements."""
    p, m = F.p, F.p**e - 1
    sub = field_create(p, e)
    h = F.pow(F.primitive_element(), (F.q - 1) // m)
    powers = [1]
    for _ in range(m - 1):
        powers.append(F.mul(powers[-1], h))
    _require(len(set(powers)) == m, "the powers of h are not p^e - 1 elements")
    g0 = min(x for k, x in enumerate(powers) if math.gcd(k, m) == 1)
    poly = [1]
    root = g0
    for i in range(e):
        neg = F.neg(root)
        new = [0] * (len(poly) + 1)
        for k, c in enumerate(poly):
            new[k] = F.add(new[k], F.mul(neg, c))
            new[k + 1] = F.add(new[k + 1], c)
        poly = new
        root = F.frobenius(root)
    _require(all(c < p for c in poly), "the minimal polynomial has a "
                                       "coefficient outside the prime field")
    r = next(x for x in sub.elements() if _eval_poly(sub, poly, x) == 0)
    table = {0: 0}
    x, y = 1, 1
    for _ in range(m):
        table[x] = y
        x = F.mul(x, g0)
        y = sub.mul(y, r)
    _require(all(table.get(F.add(u, 1)) == sub.add(w, 1) for u, w in table.items()),
             "the subfield isomorphism is not additive")
    return sub, table


def _descend_to_subfield(G: TransvectionGraph, e: int):
    """(T_sub, P): the set of G conjugated by P into SL_n over the degree-e
    subfield F0, where e is the degree of `defining_field`, and written
    over GF(p^e) through `_subfield_iso`.  No step scans F, so it has no
    budget and runs at every q.

    Rescale t to (a_t v_t, a_t^-1 phi_t) by the scales of `_tree_scales`.
    Every rescaled pairing lies in F0, because e is the degree of the field
    the rescaled pairings generate.  P has columns a_b v_b
    for the basis of v's that `Subspace.extension` picks, so
    P^-1 M_t P = 1 + (P^-1 a_t v_t)(a_t^-1 phi_t P).  The right factor is
    a row of rescaled pairings, and the left one solves a system of them,
    because the phi's span the dual space.  Both lie in F0^n, and so does
    their canonical scaling, the pair that `Transvection.conjugate` returns.
    """
    F, n = G.F, G.n
    a = _tree_scales(G)
    basis = Subspace.zero(F, n).extension(t.v for t in G.verts)
    P = Mat(F, tuple(vec_scale(F, a[b], G.verts[b].v) for b in basis)).transpose()
    Pi = P.inv()
    sub, iso = _subfield_iso(F, e)
    conj = [t.conjugate(Pi, P) for t in G.verts]
    _require(all(x in iso for t in conj for x in t.v + t.phi),
             f"a conjugated entry leaves the degree-{e} subfield")
    return [Transvection(sub, [iso[x] for x in t.v], [iso[x] for x in t.phi])
            for t in conj], P


# -- classification ----------------------------------------------------------


def classify(T: Sequence[Transvection],
             budget_elements: int = ELEMENT_BUDGET) -> ClassificationReport:
    """Classify an irreducible transvection set.

    Pipeline: the exact defining field from the pairings rescaled along a
    breadth-first tree of the graph (`defining_field`), with witness
    cycles on the input's own graph; when the degree is a proper divisor,
    subfield descent by the same rescaling (`_descend_to_subfield`, whose
    basis P is the `descent_basis` witness), with no budget, since the
    subfield is read off the powers of a primitive element, and
    reclassification of the conjugated set; symplectic form detection;
    quadratic refinement and its type in characteristic 2; hermitian detection when no symplectic
    form exists and the field carries an involution; invariant spanning
    set over GF(2) under a symplectic form and invariant line structure
    when no symplectic form exists, both read off one transvection class
    with no budget; the exact group order from a stabilizer chain
    (`group_order`) within the element budget.  The tag is the most
    special verified structure: full linear order first, then monomial
    lines, then a spanning set acted on by transpositions, then the
    detected classical form cross-checked against its order formula, then
    the even symmetric and exceptional orders.  When the order cross-check
    is skipped, the classical guess is returned only once every candidate
    that would refine it is ruled out (by its order, or by a chain that
    passed the element budget); otherwise the tag is Undetermined and a
    note names the candidates left open.

    The stabilizer chain stops as soon as the product of its orbit lengths
    reaches U, the order of the classical guess of step 4, because U is
    a proven upper bound on |G|.  Transvections have determinant 1, so
    G <= SL_n(q).  If t = 1 + v phi preserves a form f, then f(v, .) and
    f(., v) are multiples a phi and -a phi (theta-twisted for a
    sesquilinear f); the v of an irreducible set span F^n, so f is
    alternating, or a scalar multiple of a hermitian form, and its radical
    is G-invariant, hence zero.  `detect_invariant_form` and
    `recover_quadratic` verify invariance under every generator before they
    return a form, so G lies in the Sp, SU or O+/- of that form, and
    `quadratic_type` reads the type off the Arf invariant, with no budget.
    The field witnesses and form obstructions are read off closed-walk
    streams held to the fixed `tgraph.WALK_BUDGET`.
    """
    return _classify(T, budget_elements, 1)


def _classify(T: Sequence[Transvection], budget_elements: int,
              floor: int) -> ClassificationReport:
    """`classify` with a proven floor on |<T>| that can stand for the chain."""
    G = build_graph(T)
    T = G.verts
    _require_irreducible(G, "classification needs an irreducible action")
    F, n = G.F, G.n
    q = F.q
    notes: list[str] = []
    witnesses: dict = {}

    dfr = defining_field(G)
    witnesses["defining_field_cycles"] = dfr.witnesses
    e = dfr.degree

    if e < F.f:
        T_sub, P = _descend_to_subfield(G, e)
        witnesses["descent_basis"] = P
        witnesses["ambient_field_cycles"] = witnesses.pop("defining_field_cycles")
        inner = _classify(T_sub, budget_elements, floor)
        notes.append(f"conjugate into a subfield subgroup over "
                     f"{T_sub[0].F.name()}; classified there")
        merged = dict(witnesses)
        merged.update(inner.witnesses)
        return ClassificationReport(inner.tag, inner.field_degree, merged,
                                    inner.order_predicted, inner.order_enumerated,
                                    tuple(notes) + inner.notes)

    # invariant forms
    symp = detect_invariant_form(G, "identity")
    has_symp = isinstance(symp, SesquiForm)
    if has_symp:
        witnesses["symplectic_gram"] = symp
    else:
        witnesses["non_symplectic_cycle"] = symp

    quad = None
    if has_symp and F.p == 2:
        res = recover_quadratic(G, symp)
        if isinstance(res, QuadraticForm):
            quad = res
            witnesses["quadratic_form"] = quad
        else:
            witnesses["quadratic_obstruction"] = res

    unit = None
    if not has_symp and F.has_involution():
        res = detect_invariant_form(G, "theta")
        if isinstance(res, SesquiForm):
            unit = res
            witnesses["unitary_gram"] = unit
        else:
            witnesses["non_unitary_cycle"] = res

    B = detect_symmetric_type(G) if q == 2 and has_symp else None
    if B is not None:
        witnesses["spanning_set"] = B

    mono_a: int | None = None
    if not has_symp:
        mono = detect_monomial_structure(G)
        if mono is not None:
            mono_a = mono.a
            witnesses["monomial_lines"] = mono
            _require(mono_a > 1 and mono_a % 2 == 1 and (q - 1) % mono_a == 0,
                     f"monomial parameter {mono_a} is not an odd divisor "
                     f"> 1 of q - 1")

    # the classical guess of step 4, whose order bounds the exact order
    if quad is not None:
        ctag = ORTHOGONAL_PLUS if quadratic_type(quad) == "plus" else ORTHOGONAL_MINUS
    elif has_symp and n >= 4:
        ctag = SYMPLECTIC
    elif has_symp and n == 2:
        ctag = LINEAR  # a symplectic pairing in dimension 2 is the determinant
    elif unit is not None:
        ctag = UNITARY
    else:
        ctag = LINEAR
    classical = order_formula(ctag, n, q)

    # exact order; a chain stopped by the element budget proves |G| > `exceeds`
    N: int | None = None
    exceeds = 0
    if q**n <= VECTOR_TABLE_BUDGET:
        try:
            if floor > budget_elements:
                raise CapExceeded("the order floor passes the element budget")
            _require(floor <= classical, "the order floor exceeds the bound")
            if floor == classical:
                N = classical
            else:
                minus_one = F.neg(1)
                rows = [_transvection_rows(F, 1, t.v, t.phi) for t in T]
                # in characteristic 2, -1 = 1 and each t is its own inverse
                inverses = rows if minus_one == 1 else [
                    _transvection_rows(F, minus_one, t.v, t.phi) for t in T]
                N = _group_order(F, n, list(zip(rows, inverses)), budget_elements,
                                 classical)
        except CapExceeded:
            notes.append(f"enumeration exceeded the {budget_elements}-element budget")
            exceeds = budget_elements
    else:
        notes.append("enumeration skipped: column table over the vector budget")

    def report(tag: GroupTypeTag, predicted: int | None) -> ClassificationReport:
        return ClassificationReport(tag, e, witnesses, predicted, N, tuple(notes))

    # 1. the full linear group
    if N is not None and N == order_formula(LINEAR, n, q):
        if has_symp and n == 2:
            notes.append("dimension 2: the full linear group preserves the "
                         "determinant form, so the symplectic structure is "
                         "not a proper restriction")
        return report(LINEAR, N)

    # 2. invariant line structure
    if mono_a is not None:
        predicted = order_formula(monomial_tag(mono_a), n, q)
        if N is None or N == predicted:
            if unit is not None:
                notes.append("a hermitian form is also invariant (the parameter "
                             "divides q0 + 1); the line structure is the larger "
                             "invariant and wins")
            if N is None:
                notes.append("order cross-check skipped")
            return report(monomial_tag(mono_a), predicted if N is None else N)
        notes.append(f"invariant line structure found but the order {N} is not "
                     f"{predicted}")

    # 3. invariant spanning set, on which every transvection is a transposition
    if B is not None:
        predicted = math.factorial(n + 1)
        if N is None or N == predicted:
            if quad is not None:
                notes.append("a quadratic form is also invariant (symmetric and "
                             "orthogonal structures coincide here)")
            return report(SYMMETRIC_ODD, predicted)
        notes.append(f"spanning set with transposition action but the order {N} "
                     f"is not {predicted}")  # pragma: no cover - contradictory

    # 4. classical by detected forms, once every candidate that would refine
    # them is ruled out: by its structure check, by an order no smaller than
    # the guess's (S6 = Sp4(2) and S8 = O6+(2) are the guess), or by the
    # chain.  S_(n+2) keeps a quadratic form exactly when 4 divides n + 2.
    if N is None:
        notes.append("order cross-check skipped")
        unchecked: list[tuple[GroupTypeTag, int]] = []
        if q == 2 and has_symp and (quad is not None) == ((n + 2) % 4 == 0):
            unchecked.append((SYMMETRIC_EVEN, math.factorial(n + 2)))
        if ctag == LINEAR and (n, q) in _EXCEPTIONAL_ORDERS:
            unchecked.append(_EXCEPTIONAL_ORDERS[n, q])
        left = [str(tag) for tag, o in unchecked if exceeds < o < classical]
        if left:
            notes.append(f"classical guess {ctag} not confirmed: "
                         f"{', '.join(left)} not ruled out")
            return report(UNDETERMINED, None)
        return report(ctag, classical)
    if N == classical:
        return report(ctag, N)

    # 5. even symmetric type, recognized by order alone
    if q == 2 and has_symp and N == math.factorial(n + 2):
        notes.append("even symmetric type has no structural witness; matched "
                     "by order")
        return report(SYMMETRIC_EVEN, N)

    # 6. exceptional groups
    if (n, q) in _EXCEPTIONAL_ORDERS and N == _EXCEPTIONAL_ORDERS[n, q][1]:
        return report(*_EXCEPTIONAL_ORDERS[n, q])
    if (n, q) == (6, 4):
        notes.append("flagged by dimension and field only; the order of the "
                     "triple cover of POmega6-(3) is not asserted")
        return report(exceptional_tag("3.POmega6-(3)"), None)

    # 7. nothing fits
    notes.append(f"enumerated order {N} matches no candidate "
                 f"(closest classical guess {ctag}: {classical})")
    return report(UNDETERMINED, None)


# -- certification -----------------------------------------------------------


def _admissible_section(sub: Sequence[Transvection]):
    """The restriction of a subset to V(T0) when the subset acts
    irreducibly there (graph strongly connected and no radical), else
    None."""
    Gs = build_graph(sub)
    if not is_strongly_connected(Gs):
        return None
    if _radicals(Gs)[0].dim != 0:
        return None
    return restrict_to_section(Gs)


def _find_symmetric_exclusion(T_dense: Sequence[Transvection]):
    """First prefix of the dense set that acts irreducibly on the span of
    its vectors without an invariant spanning set of size dim+1."""
    cap = min(len(T_dense), CERT_MAX_SUBSET)
    for k in range(2, cap + 1):
        sec = _admissible_section(T_dense[:k])
        if sec is not None and detect_symmetric_type(sec.graph) is None:
            return list(range(k))
    return None


def _find_monomial_exclusion(T_dense: Sequence[Transvection]):
    """First prefix violating the monomial subset criteria: either weakly
    nondegenerate but degenerate, or acting irreducibly on the span of its
    vectors with neither an invariant line structure nor an invariant
    spanning set of size dim+1."""
    cap = min(len(T_dense), CERT_MAX_SUBSET)
    for k in range(1, cap + 1):
        sub = T_dense[:k]
        Gs = build_graph(sub)
        k1, k2 = (k.dim for k in _radicals(Gs))
        if min(k1, k2) == 0 and max(k1, k2) > 0:
            return "degenerate", list(range(k))
        if k1 != 0 or not is_strongly_connected(Gs):
            continue
        sec = restrict_to_section(Gs)
        if (detect_monomial_structure(sec.graph) is None
                and _spanning_set(sec.graph) is None):
            return "section", list(range(k))
    return None


def _supersets(T: Sequence[Transvection], T_dense: Sequence[Transvection],
               T0: Sequence[Transvection], count: int, extras: int,
               seed: int) -> list[TransvectionGraph]:
    """`sample_supersets` with the dense set of T already at hand."""
    rng = random.Random(seed)
    T = list(T)
    out = []
    for _ in range(count):
        T1 = list(T0)
        for _ in range(extras):
            t = T[rng.randrange(len(T))]
            u = t.conjugate_by([T[rng.randrange(len(T))]
                                for _ in range(rng.randint(1, 4))])
            if u not in T1:
                T1.append(u)
        out.append(connect_up(T_dense, T1))
    return out


def sample_supersets(T: Sequence[Transvection], T0: Sequence[Transvection],
                     count: int = 100, extras: int = 3, seed: int = 0
                     ) -> list[TransvectionGraph]:
    """Random strongly connected supersets of T0 inside the transvection
    closure of <T>: T0 plus random conjugates t^w (t in T, w a short word
    over T), topped up with density witnesses until strongly connected.
    Each superset comes as the graph that `connect_up` built for it.  The
    witnesses come from `densify`, whose scan of projective points stops
    at the fixed `tgraph.PROJECTIVE_BUDGET`."""
    if count < 0 or extras < 0:
        raise BadParameters(f"need count >= 0 and extras >= 0, got "
                            f"count={count}, extras={extras}")
    T_dense, _ = densify(T)
    return _supersets(T, T_dense, T0, count, extras, seed)


def stability_check(T: Sequence[Transvection], T0: Sequence[Transvection],
                    samples: int = 100, seed: int = 0,
                    budget_elements: int = STABILITY_ELEMENT_BUDGET
                    ) -> list[ClassificationReport]:
    """Classify the section of each sampled strongly connected superset of
    T0; a certified T0 forces every result to match the classification of
    T itself in tag and field degree.  budget_elements bounds each
    section's stabilizer chain; the supersets and the classifications
    read the fixed projective and walk budgets of `tgraph`."""
    if samples < 0:
        raise BadParameters(f"need samples >= 0, got {samples}")
    return [classify(restrict_to_section(T1).graph, budget_elements)
            for T1 in sample_supersets(T, T0, count=samples, seed=seed)]


def certify(T: Sequence[Transvection],
            budget_elements: int = ELEMENT_BUDGET,
            seed: int = 0) -> Certificate:
    """Assemble a certificate for a classically-typed transvection set.

    Components: cycles whose weights generate the defining field; the
    first non-symplectic cycle when no symplectic form exists (length at
    most 5 on a dense set, whose graph has diameter at most 2); likewise a
    non-hermitian cycle when the field has an involution and the group is
    not unitary; the recovered quadratic form or the transvection
    witnessing that none exists (characteristic 2 under a symplectic
    form); an exclusion subset refuting odd symmetric type (over GF(2)
    under a symplectic form) or refuting monomial type (characteristic 2,
    no symplectic form); closure under connectivity witnesses and pairing
    kernel witnesses.  Every element of T0 carries a word over T of length
    at most 2n-1.  A small sample of random supersets is reclassified as a
    spot check, with T0's order as a floor that can skip their chains, and
    recorded.  budget_elements bounds the classifications of T and T0;
    `densify` and the walk streams keep to the fixed budgets of `tgraph`.
    """
    G = build_graph(T)
    T = G.verts
    report = classify(G, budget_elements)
    if report.tag.kind not in CLASSICAL_KINDS:
        raise UnsupportedTag(f"certification applies to classical types, "
                             f"got {report.tag}")
    F, n = G.F, G.n
    Gd, words_dense = densify(G)
    dense_index: dict[Transvection, int] = {}
    for i, t in enumerate(Gd):
        dense_index.setdefault(t, i)

    chosen: list[Transvection] = []

    def add(t: Transvection) -> int:
        if t in chosen:
            return chosen.index(t)
        chosen.append(t)
        return len(chosen) - 1

    properties: list[dict] = []

    # field witnesses
    dfr = defining_field(Gd)
    cycles = []
    for rec in dfr.witnesses:
        idxs = [add(Gd[i]) for i in rec.verts]
        cycles.append({"cycle": idxs, "weight": rec.weight})
    properties.append({"kind": "field-witnesses", "degree": dfr.degree,
                       "cycles": cycles})

    # symplectic form or its obstruction
    symp = detect_invariant_form(Gd, "identity")
    if isinstance(symp, SesquiForm):
        form = symp
        properties.append({"kind": "symplectic-form", "gram": symp.gram.to_json()})
    else:
        form = None
        _require(len(symp.verts) <= CERT_MAX_CYCLE,
                 f"non-symplectic cycle longer than {CERT_MAX_CYCLE}")
        idxs = [add(Gd[i]) for i in symp.verts]
        properties.append({"kind": "non-symplectic-cycle", "cycle": idxs,
                           "defect": symp.defect})

    # hermitian form or its obstruction
    if F.has_involution():
        res = detect_invariant_form(Gd, "theta")
        if isinstance(res, SesquiForm):
            properties.append({"kind": "hermitian-form",
                               "gram": res.gram.to_json()})
        else:
            _require(len(res.verts) <= CERT_MAX_CYCLE,
                     f"non-hermitian cycle longer than {CERT_MAX_CYCLE}")
            idxs = [add(Gd[i]) for i in res.verts]
            properties.append({"kind": "non-hermitian-cycle", "cycle": idxs,
                               "defect": res.defect})
    else:
        properties.append({"kind": "hermitian-excluded",
                           "reason": "the field has no involution"})

    # quadratic refinement in characteristic 2
    if form is not None and F.p == 2:
        res = recover_quadratic(Gd, form)
        if isinstance(res, QuadraticForm):
            properties.append({"kind": "quadratic-form",
                               "coeffs": res.coeffs.to_json(),
                               "type": quadratic_type(res)})
        else:
            idx = add(Gd[res.index])
            properties.append({
                "kind": "quadratic-obstruction", "transvection": idx,
                "value": res.value,
                "excludes_even_symmetric": (n + 2) % 4 != 2,
            })

    # symmetric-type exclusion over GF(2)
    if F.q == 2 and form is not None:
        found = _find_symmetric_exclusion(Gd)
        if found is not None:
            idxs = [add(Gd[i]) for i in found]
            excludes = "odd+even" if len(found) < (n + 2) // 2 else "odd"
            properties.append({"kind": "symmetric-exclusion", "subset": idxs,
                               "excludes": excludes})
        else:
            properties.append({"kind": "symmetric-exclusion-unavailable",
                               "reason": "every admissible subset within budget "
                                         "has odd symmetric type"})

    # monomial-type exclusion in characteristic 2 without a symplectic form
    if F.p == 2 and form is None:
        found = _find_monomial_exclusion(Gd)
        if found is not None:
            mode, sub = found
            idxs = [add(Gd[i]) for i in sub]
            properties.append({"kind": "monomial-exclusion", "subset": idxs,
                               "mode": ("weakly-nondegenerate-degenerate"
                                        if mode == "degenerate"
                                        else "non-monomial-section")})
        else:
            properties.append({"kind": "monomial-exclusion-unavailable",
                               "reason": "every subset within budget satisfies "
                                         "the monomial criteria"})

    # connectivity and nondegeneracy closure
    if not chosen:
        add(Gd[0])
    T0 = winkle(Gd, connect_up(Gd, chosen, form=form))

    # self-consistency closure: T0 is itself a strongly connected superset
    # of T0, so its own section must classify to the certified tag and
    # field degree.  The structural witnesses cannot refute coincidence
    # subgroups that share every witness (a dihedral group inside SL2(4),
    # SL2(5) inside SL2(9), the point stabilizer inside a symmetric
    # coincidence), so grow T0 with dense elements until its section
    # matches.
    fill = iter(Gd)
    while True:
        sec = restrict_to_section(T0)
        own = classify(sec.graph, budget_elements)
        if own.tag == report.tag and own.field_degree == report.field_degree:
            break
        extra = next((t for t in fill if t not in T0), None)
        if extra is None:
            raise BadParameters("certificate closure exhausted the dense set "
                                "without matching the classification")
        T0 = winkle(Gd, connect_up(Gd, [*T0, extra], form=form))

    properties.append({"kind": "connectivity", "strongly_connected": True,
                       "defect": defect(T0)})

    words = tuple(words_dense[dense_index[t]] for t in T0)

    # stability spot check on a few random supersets, T0's order their floor
    floor = (own.order_enumerated or budget_elements + 1
             if sec.graph is T0 and F.q**n <= VECTOR_TABLE_BUDGET else 1)
    spot = [_classify(S, STABILITY_ELEMENT_BUDGET, floor if S is T1 else 1)
            for T1 in _supersets(G, Gd, T0, 3, 3, seed)
            for S in [restrict_to_section(T1).graph]]
    matches = all(r.tag == report.tag and r.field_degree == report.field_degree
                  for r in spot)
    properties.append({"kind": "stability", "samples": len(spot),
                       "matches": matches})

    return Certificate(base=tuple(T), T0=tuple(T0), words=words,
                       properties=tuple(properties))
