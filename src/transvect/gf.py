"""Exact arithmetic in GF(p^f), polynomial basis, integer-encoded elements.

An element is the plain int  sum(digits[i] * p**i)  where ``digits`` are the
coefficients of its polynomial-basis representation (little-endian, constant
term first).  All operations go through a :class:`Field` instance.  Addition
is XOR when p = 2; for small fields full multiplication/inverse tables (built
from log/antilog tables) and, for odd p and f > 1, addition/negation tables
are precomputed so hot loops reduce to list indexing.

The reduction modulus is pinned per (p, f): the monic irreducible polynomial
of degree f whose integer encoding is smallest.  That makes every value in
the package reproducible across runs and machines.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import Iterable, Sequence

from .errors import (
    DegreeTooLarge,
    DivisionByZero,
    FieldMismatch,
    NoInvolution,
    NotPrime,
    _require,
)

__all__ = ["Field", "field_create", "is_prime"]

MAX_DEGREE = 16
# full arithmetic tables only below this size (q^2 ints for mul and add)
_TABLE_LIMIT = 512


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    d = 3
    while d * d <= m:
        if m % d == 0:
            return False
        d += 2
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# -- polynomial helpers over F_p (coefficient lists, little-endian) -----------

def _ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmod(a: list[int], m: list[int], p: int) -> list[int]:
    """a mod m with m monic."""
    a = a[:]
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        c = a[-1]
        if c:
            off = len(a) - 1 - dm
            for i in range(dm + 1):
                a[off + i] = (a[off + i] - c * m[i]) % p
        a.pop()
    return _ptrim(a)


def _pmulmod(a: list[int], b: list[int], m: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = (out[i + j] + ai * bj) % p
    return _pmod(out, m, p)


def _ppowmod(a: list[int], e: int, m: list[int], p: int) -> list[int]:
    r = [1]
    base = _pmod(a[:], m, p)
    while e:
        if e & 1:
            r = _pmulmod(r, base, m, p)
        base = _pmulmod(base, base, m, p)
        e >>= 1
    return r


def _pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = a[:], b[:]
    while b:
        inv = pow(b[-1], p - 2, p)
        # make b monic before reducing
        bm = [(c * inv) % p for c in b]
        a, b = b, _pmod(a, bm, p)
    return a


def _is_irreducible(m: list[int], p: int) -> bool:
    """Rabin's test for a monic polynomial m of degree f over F_p."""
    f = len(m) - 1
    if f < 1:
        return False
    x = [0, 1]
    # x^(p^f) == x mod m
    t = _ppowmod(x, p ** f, m, p)
    lhs = _ptrim([(t[i] if i < len(t) else 0) - (x[i] if i < len(x) else 0)
                  for i in range(max(len(t), len(x)))])
    if _ptrim([c % p for c in lhs]):
        return False
    for r in _prime_factors(f):
        t = _ppowmod(x, p ** (f // r), m, p)
        d = [(t[i] if i < len(t) else 0) - (x[i] if i < len(x) else 0)
             for i in range(max(len(t), len(x)))]
        d = _ptrim([c % p for c in d])
        g = _pgcd(m[:], d, p)
        if len(g) - 1 != 0:
            return False
    return True


def _find_modulus(p: int, f: int) -> tuple[int, ...]:
    """Smallest (by integer encoding) monic irreducible of degree f over F_p."""
    if f == 1:
        return (0, 1)  # x itself; reduction is ordinary mod p
    for enc in range(p ** f, 2 * p ** f):
        digits = []
        e = enc
        for _ in range(f + 1):
            e, r = divmod(e, p)
            digits.append(r)
        # monic by construction of the range
        if _is_irreducible(digits, p):
            return tuple(digits)
    _require(False, f"no monic irreducible of degree {f} over F_{p}")


class Field:
    """GF(p^f) with int-encoded elements 0..q-1.

    Construct through :func:`field_create` so instances are cached and
    identical parameters share tables.
    """

    def __init__(self, p: int, f: int):
        if not is_prime(p):
            raise NotPrime(f"p = {p} is not prime")
        if f < 1 or f > MAX_DEGREE:
            raise DegreeTooLarge(f"extension degree f = {f} outside 1..{MAX_DEGREE}")
        self.p = p
        self.f = f
        self.q = p ** f
        self.modulus = _find_modulus(p, f)
        self._mul_table: list[int] | None = None
        self._inv_table: list[int] | None = None
        self._add_table: list[int] | None = None
        self._neg_table: list[int] | None = None
        self._frob_table: list[int] | None = None
        if self.q <= _TABLE_LIMIT:
            self._build_tables()

    # -- representation -------------------------------------------------

    def __repr__(self) -> str:
        return f"GF({self.p}^{self.f})" if self.f > 1 else f"GF({self.p})"

    def name(self) -> str:
        return f"{self.p}^{self.f}"

    def __eq__(self, other) -> bool:
        return (isinstance(other, Field) and other.p == self.p and other.f == self.f)

    def __hash__(self) -> int:
        return hash((self.p, self.f))

    def check(self, x: int) -> int:
        if not isinstance(x, int) or isinstance(x, bool) or x < 0 or x >= self.q:
            raise FieldMismatch(f"{x!r} is not an element of {self}")
        return x

    def digits(self, x: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.f):
            x, r = divmod(x, self.p)
            out.append(r)
        return tuple(out)

    def from_digits(self, ds: Sequence[int]) -> int:
        acc = 0
        for d in reversed(ds):
            acc = acc * self.p + (d % self.p)
        return acc

    def elements(self) -> range:
        return range(self.q)

    def nonzero(self) -> range:
        return range(1, self.q)

    # -- core arithmetic --------------------------------------------------

    # Addition is digit-wise mod p: XOR when p = 2, plain mod p when f = 1,
    # and otherwise a table lookup below _TABLE_LIMIT or the digit loop.

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.f == 1:
            return (a + b) % self.p
        t = self._add_table
        if t is not None:
            return t[a * self.q + b]
        return self._add_digits(a, b)

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.f == 1:
            return (-a) % self.p
        t = self._neg_table
        if t is not None:
            return t[a]
        return self._add_digits(0, a, -1)

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.f == 1:
            return (a - b) % self.p
        t = self._add_table
        if t is not None:
            return t[a * self.q + self._neg_table[b]]
        return self._add_digits(a, b, -1)

    def _add_digits(self, a: int, b: int, sign: int = 1) -> int:
        """a + sign * b, one base-p digit at a time."""
        p = self.p
        acc = 0
        mult = 1
        for _ in range(self.f):
            a, ra = divmod(a, p)
            b, rb = divmod(b, p)
            acc += ((ra + sign * rb) % p) * mult
            mult *= p
        return acc

    def _mul_slow(self, a: int, b: int) -> int:
        if self.f == 1:
            return (a * b) % self.p
        pa = list(self.digits(a))
        pb = list(self.digits(b))
        prod = _pmulmod(_ptrim(pa), _ptrim(pb), list(self.modulus), self.p)
        return self.from_digits(prod + [0] * (self.f - len(prod)))

    def mul(self, a: int, b: int) -> int:
        t = self._mul_table
        if t is not None:
            return t[a * self.q + b]
        return self._mul_slow(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("0 has no multiplicative inverse")
        t = self._inv_table
        if t is not None:
            return t[a]
        return self.pow(a, self.q - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a = self.inv(a)
            e = -e
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def _build_tables(self) -> None:
        """The mul and inv tables from log/antilog tables of a primitive
        element g, in O(q) calls of `_mul_slow`: a b = g^(log a + log b).
        For odd p and f > 1 also the add and neg tables."""
        q = self.q
        g = self.primitive_element()  # `mul` is `_mul_slow` until the table is set
        exp = [1] * (q - 1)
        log = [0] * q
        for k in range(1, q - 1):
            exp[k] = self._mul_slow(exp[k - 1], g)
            log[exp[k]] = k
        mul = [0] * (q * q)
        for a in range(1, q):
            la = log[a]
            mul[a * q + 1:(a + 1) * q] = [exp[(la + log[b]) % (q - 1)]
                                          for b in range(1, q)]
        self._mul_table = mul
        self._inv_table = [0] + [exp[-log[a] % (q - 1)] for a in range(1, q)]
        if self.p != 2 and self.f > 1:
            self._neg_table = [self._add_digits(0, a, -1) for a in range(q)]
            self._add_table = self._build_add_table()

    def _build_add_table(self) -> list[int]:
        """Row a of the add table is row a - p^i permuted by adding p^i, for
        any base-p digit i of a that is nonzero: q^2 lookups in all."""
        p, q = self.p, self.q
        pw = [p**i for i in range(self.f)]
        shift = [[b + w if (b // w) % p < p - 1 else b - (p - 1) * w
                  for b in range(q)] for w in pw]
        add = list(range(q))
        for a in range(1, q):
            i = next(i for i, w in enumerate(pw) if (a // w) % p)
            prev = add[(a - pw[i]) * q:(a - pw[i] + 1) * q]
            add.extend(map(prev.__getitem__, shift[i]))
        return add

    # -- automorphisms and subfields --------------------------------------

    def frobenius(self, x: int) -> int:
        """x -> x^p, the generating automorphism."""
        return self.pow(x, self.p)

    def has_involution(self) -> bool:
        return self.f % 2 == 0

    def involution(self, x: int) -> int:
        """The order-2 automorphism x -> x^(p^(f/2)); requires f even."""
        if self.f % 2 != 0:
            raise NoInvolution(f"{self} has odd degree, no index-2 subfield")
        t = self._frob_table
        if t is None:
            t = [self.pow(x0, self.p ** (self.f // 2)) for x0 in range(self.q)]
            self._frob_table = t
        return t[x]

    def norm_to_index2_subfield(self, x: int) -> int:
        return self.mul(x, self.involution(x))

    def element_degree(self, x: int) -> int:
        """Degree over F_p of the subfield generated by x."""
        for d in sorted(_divisors(self.f)):
            if self.pow(x, self.p ** d) == x:
                return d
        return self.f  # pragma: no cover

    def subfield_generated(self, xs: Iterable[int]) -> int:
        """Degree of the subfield generated by the given elements (lcm rule)."""
        d = 1
        for x in xs:
            dx = self.element_degree(x)
            d = d * dx // gcd(d, dx)
            if d == self.f:
                break
        return d

    def element_order(self, x: int) -> int:
        if x == 0:
            raise DivisionByZero("0 has no multiplicative order")
        o = 1
        y = x
        while y != 1:
            y = self.mul(y, x)
            o += 1
        return o

    def primitive_element(self) -> int:
        """Smallest generator of the multiplicative group, by integer
        encoding: x generates when x^((q-1)/r) != 1 for every prime r
        dividing q - 1."""
        q = self.q
        rs = _prime_factors(q - 1)
        x = next((x for x in range(1, q)
                  if all(self.pow(x, (q - 1) // r) != 1 for r in rs)), None)
        _require(x is not None, "the multiplicative group has no generator")
        return x

    def sqrt_char2(self, x: int) -> int:
        """Square root when p = 2 (Frobenius is bijective)."""
        return self.pow(x, self.q // 2) if self.q > 2 else x

    def solve_norm(self, c: int) -> int:
        """Smallest z with z * theta(z) == c; scan (norm is onto the subfield)."""
        for z in range(self.q):
            if self.norm_to_index2_subfield(z) == c:
                return z
        raise NoInvolution(f"norm equation z*theta(z) = {c} unsolvable in {self}")


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


@lru_cache(maxsize=None)
def _cached_field(p: int, f: int) -> Field:
    return Field(p, f)


def field_create(p: int, f: int = 1) -> Field:
    """Canonical (cached) GF(p^f) instance."""
    if not isinstance(p, int) or not isinstance(f, int):
        raise NotPrime("field parameters must be ints")
    return _cached_field(p, f)
