"""Field layer: canonical moduli, exact axioms, involution, subfields."""

import random

import pytest

from transvect import gf
from transvect.errors import (
    DegreeTooLarge,
    DivisionByZero,
    FieldMismatch,
    NoInvolution,
    NotPrime,
)

from oracles import fixed_subfield


def test_canonical_moduli():
    # frozen: smallest monic irreducible by integer encoding
    assert gf.field_create(2, 1).modulus == (0, 1)          # x
    assert gf.field_create(2, 2).modulus == (1, 1, 1)       # x^2+x+1
    assert gf.field_create(3, 2).modulus == (1, 0, 1)       # x^2+1
    assert gf.field_create(2, 3).modulus == (1, 1, 0, 1)    # x^3+x+1
    assert gf.field_create(5, 1).modulus == (0, 1)


def test_modulus_is_irreducible_exhaustive_gf9():
    # independent check: x^2+1 has no root in F_3 and is the first such
    F = gf.field_create(3, 2)
    c0, c1, c2 = F.modulus
    assert c2 == 1
    for enc in range(9, 9 + c1 * 3 + c0):
        # every earlier monic quadratic factors over F_3
        b0 = enc % 3
        b1 = (enc // 3) % 3
        assert any((r * r + b1 * r + b0) % 3 == 0 for r in range(3))
    assert all((r * r + c1 * r + c0) % 3 != 0 for r in range(3))


@pytest.mark.parametrize("p,f", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (2, 4)])
def test_field_axioms_exhaustive(p, f):
    F = gf.field_create(p, f)
    q = F.q
    els = list(F.elements())
    for a in els:
        assert F.add(a, 0) == a
        assert F.mul(a, 1) == a
        assert F.add(a, F.neg(a)) == 0
        if a:
            assert F.mul(a, F.inv(a)) == 1
    for a in els:
        for b in els:
            assert F.add(a, b) == F.add(b, a)
            assert F.mul(a, b) == F.mul(b, a)
            assert F.sub(a, b) == F.add(a, F.neg(b))
    # associativity and distributivity on a grid (cubic loops only for tiny q)
    sample = els if q <= 9 else els[:6] + els[-3:]
    for a in sample:
        for b in sample:
            for c in sample:
                assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
                assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_digits_roundtrip():
    F = gf.field_create(3, 2)
    for x in F.elements():
        assert F.from_digits(F.digits(x)) == x
    assert F.digits(5) == (2, 1)  # 2 + 1*3


def test_untabled_field_matches_pow_inverse():
    # q = 625 exceeds the table limit; exercise the polynomial path
    F = gf.field_create(5, 4)
    assert F._mul_table is None
    rng = random.Random(7)
    for _ in range(50):
        a = rng.randrange(1, F.q)
        b = rng.randrange(F.q)
        assert F.mul(a, F.inv(a)) == 1
        assert F.mul(a, b) == F.mul(b, a)


@pytest.mark.parametrize("p,f", [(2, 2), (3, 2), (2, 4), (5, 2)])
def test_involution_properties(p, f):
    F = gf.field_create(p, f)
    th = F.involution
    for x in F.elements():
        assert th(th(x)) == x
        for y in F.elements():
            if x * y > F.q:  # keep quadratic loop light
                continue
            assert th(F.mul(x, y)) == F.mul(th(x), th(y))
            assert th(F.add(x, y)) == F.add(th(x), th(y))
    # fixed points form the index-2 subfield
    fixed = fixed_subfield(F)
    assert len(fixed) == p ** (f // 2)


@pytest.mark.parametrize("p,f", [(2, 2), (3, 2), (2, 4), (5, 2)])
def test_norm_image_is_fixed_subfield(p, f):
    F = gf.field_create(p, f)
    norms = {F.norm_to_index2_subfield(z) for z in F.elements()}
    assert norms == set(fixed_subfield(F))


@pytest.mark.parametrize("p,f", [(2, 2), (3, 2), (2, 4), (3, 4), (2, 6)])
def test_trace_onto_subfield(p, f):
    # x + theta(x) maps F onto the fixed subfield of the involution
    F = gf.field_create(p, f)
    traces = {F.add(x, F.involution(x)) for x in F.elements()}
    assert traces == set(fixed_subfield(F))
    for x in F.elements():
        t = F.add(x, F.involution(x))
        assert F.involution(t) == t


def test_no_involution_for_odd_degree():
    F = gf.field_create(2, 3)
    with pytest.raises(NoInvolution):
        F.involution(1)


def test_subfield_generated():
    F = gf.field_create(2, 4)
    assert F.subfield_generated([0, 1]) == 1
    g = F.primitive_element()
    assert F.subfield_generated([g]) == 4
    # the element of order 3 lives in GF(4)
    cube = F.pow(g, (F.q - 1) // 3)
    assert F.element_order(cube) == 3
    assert F.subfield_generated([cube]) == 2
    assert F.subfield_generated([cube, g]) == 4


def test_primitive_element_frozen():
    assert gf.field_create(2, 1).primitive_element() == 1
    assert gf.field_create(5, 1).primitive_element() == 2
    assert gf.field_create(2, 2).primitive_element() == 2  # the generator omega
    assert gf.field_create(3, 1).primitive_element() == 2
    F9 = gf.field_create(3, 2)
    g = F9.primitive_element()
    assert F9.element_order(g) == 8


def test_errors():
    with pytest.raises(NotPrime):
        gf.field_create(6, 1)
    with pytest.raises(DegreeTooLarge):
        gf.field_create(2, 17)
    with pytest.raises(DivisionByZero):
        gf.field_create(3, 1).inv(0)
    with pytest.raises(FieldMismatch):
        gf.field_create(3, 1).check(5)


def test_field_cache_identity():
    assert gf.field_create(3, 2) is gf.field_create(3, 2)


def test_solve_norm():
    F = gf.field_create(2, 2)
    for c in fixed_subfield(F):
        z = F.solve_norm(c)
        assert F.norm_to_index2_subfield(z) == c


# -- fast addition and the log/antilog table build ------------------------------


def digit_loop_add(F, a, b, sign=1):
    """Reference: a + sign * b one base-p digit at a time."""
    acc, mult = 0, 1
    for _ in range(F.f):
        a, ra = divmod(a, F.p)
        b, rb = divmod(b, F.p)
        acc += ((ra + sign * rb) % F.p) * mult
        mult *= F.p
    return acc


@pytest.mark.parametrize("p,f", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3)])
def test_add_neg_sub_match_digit_loop_exhaustive(p, f):
    F = gf.field_create(p, f)
    for a in F.elements():
        assert F.neg(a) == digit_loop_add(F, 0, a, -1)
        for b in F.elements():
            assert F.add(a, b) == digit_loop_add(F, a, b)
            assert F.sub(a, b) == digit_loop_add(F, a, b, -1)


def test_add_neg_sub_match_digit_loop_above_table_limit():
    F = gf.field_create(2, 10)
    assert F.q > gf._TABLE_LIMIT
    rng = random.Random(11)
    for _ in range(2000):
        a, b = rng.randrange(F.q), rng.randrange(F.q)
        assert F.add(a, b) == digit_loop_add(F, a, b)
        assert F.sub(a, b) == digit_loop_add(F, a, b, -1)
        assert F.neg(a) == digit_loop_add(F, 0, a, -1)
    # an odd characteristic above the limit keeps the digit loop
    F = gf.field_create(5, 4)
    assert F._add_table is None
    for _ in range(500):
        a, b = rng.randrange(F.q), rng.randrange(F.q)
        assert F.add(a, b) == digit_loop_add(F, a, b)
        assert F.sub(a, b) == digit_loop_add(F, a, b, -1)


@pytest.mark.parametrize("p,f", [(2, 1), (3, 1), (7, 1), (2, 2), (2, 3), (3, 2),
                                 (2, 4), (5, 2), (3, 3), (2, 5)])
def test_mul_and_inv_tables_match_mul_slow(p, f):
    F = gf.field_create(p, f)
    q = F.q
    assert F._mul_table == [F._mul_slow(a, b) for a in range(q) for b in range(q)]
    for a in range(1, q):
        assert F._mul_slow(a, F._inv_table[a]) == 1


def test_table_build_makes_linear_many_mul_slow_calls(monkeypatch):
    calls = [0]
    slow = gf.Field._mul_slow

    def counted(self, a, b):
        calls[0] += 1
        return slow(self, a, b)

    monkeypatch.setattr(gf.Field, "_mul_slow", counted)
    F = gf.Field(2, 9)  # uncached, so the tables are built here
    assert F.q == 512 and F._mul_table is not None
    # q - 2 antilog steps plus a few powerings to find a generator; the
    # pairwise build made q(q+1)/2 = 131,328 calls
    assert calls[0] <= 2 * F.q
