"""poly_gcd, the RationalU normal form and laurent_expand against sympy, a
test-only oracle.

Operands lean towards shared factors (u - 1, its powers, c*u^k, equal
denominators, constants of either sign) and towards sums that cancel to 0
or to a polynomial, since those are the cases the gcd shortcuts of
RationalU arithmetic decide without a full gcd.
"""

import random
from math import gcd

import pytest

from z2beta.algebra import IntPoly, RationalU, laurent_expand, poly_gcd

sympy = pytest.importorskip("sympy")
from sympy.polys.ring_series import rs_mul, rs_series_inversion  # noqa: E402

U = IntPoly.u()
X = sympy.Symbol("u")


def to_sympy(p: IntPoly):
    return sympy.Poly.from_dict({(e,): c for e, c in p.coefficients.items()},
                                X, domain="ZZ")


def normal_form(num, den):
    """(numerator, denominator) coefficient maps of num/den, for sympy
    polynomials over ZZ, after sympy's cancel, with joint content 1 and a
    positive leading denominator coefficient."""
    if num.is_zero:
        return {}, {0: 1}
    num, den = num.cancel(den, include=True)
    content = gcd(*(int(c) for c in num.coeffs() + den.coeffs()))
    if den.LC() < 0:
        content = -content

    def as_map(poly):
        return {m[0]: int(c) // content for m, c in poly.terms()}

    return as_map(num), as_map(den)


def coefficient_maps(value: RationalU):
    return dict(value.numerator.coefficients), dict(value.denominator.coefficients)


def small_poly(rng, max_degree=3, max_coeff=6):
    p = IntPoly.zero()
    while p.is_zero():
        p = IntPoly({e: rng.randint(-max_coeff, max_coeff)
                     for e in range(rng.randint(0, max_degree) + 1)})
    return p


def denominator(rng):
    shape = rng.randrange(7)
    if shape == 0:
        return IntPoly({0: rng.choice([1, 2, -3, -1])})
    if shape == 1:
        return U - 1
    if shape == 2:
        return (U - 1) ** rng.randint(2, 3)
    if shape == 3:
        return IntPoly.monomial(rng.randint(1, 5), rng.choice([1, 3, -2]))
    if shape == 4:
        return (U - 1) * IntPoly.monomial(rng.randint(1, 3), rng.choice([1, -2]))
    if shape == 5:
        return (U + 1) * (U - 1) * rng.choice([1, 2])
    return small_poly(rng)


def operand(rng, den):
    # a numerator that sometimes shares a factor with its own denominator
    num = small_poly(rng)
    if rng.random() < 0.3:
        num = num * rng.choice([U - 1, U, U + 1])
    return num, den


def operand_pairs(rng, count):
    for _ in range(count):
        den_a = denominator(rng)
        den_b = den_a if rng.random() < 0.3 else denominator(rng)
        a, b = operand(rng, den_a), operand(rng, den_b)
        roll = rng.random()
        if roll < 0.15:
            # a + b = 0, with an extra common factor in b
            k = rng.choice([1, -2, U - 1, U])
            b = (-a[0] * k, a[1] * k)
        elif roll < 0.3:
            # a + b = P, a polynomial
            target = small_poly(rng)
            b = (target * a[1] - a[0], a[1])
        elif roll < 0.4:
            # b's numerator shares a's denominator
            b = (b[0] * a[1], b[1])
        yield a, b


def test_normal_form_against_sympy_cancel():
    rng = random.Random(20241)
    checked = 0
    for (na, da), (nb, db) in operand_pairs(rng, 400):
        a, b = RationalU(na, da), RationalU(nb, db)
        sna, sda, snb, sdb = (to_sympy(p) for p in (na, da, nb, db))
        assert coefficient_maps(a) == normal_form(sna, sda)
        assert coefficient_maps(b) == normal_form(snb, sdb)
        assert coefficient_maps(a + b) == normal_form(sna * sdb + snb * sda, sda * sdb)
        assert coefficient_maps(a - b) == normal_form(sna * sdb - snb * sda, sda * sdb)
        assert coefficient_maps(a * b) == normal_form(sna * snb, sda * sdb)
        if not b.is_zero():
            assert coefficient_maps(a / b) == normal_form(sna * sdb, sda * snb)
        checked += 1
    assert checked == 400


def test_poly_gcd_against_sympy():
    rng = random.Random(8128)
    for _ in range(300):
        shared = rng.choice([U - 1, (U - 1) ** 2, U ** 2, -3 * U + 3,
                             U ** 2 + 1, small_poly(rng)])
        a = small_poly(rng) * shared
        b = small_poly(rng) * (shared if rng.random() < 0.7 else 1)
        expected = to_sympy(a).gcd(to_sympy(b)).primitive()[1]
        if expected.LC() < 0:
            expected = -expected
        assert dict(poly_gcd(a, b).coefficients) == {
            m[0]: int(c) for m, c in expected.terms()}


def series_at_infinity(num: IntPoly, den: IntPoly, count: int):
    """First ``count`` coefficients of num/den at u = infinity, from the
    power series of f(1/v) = v^-(deg num - deg den) * P(v)/Q(v) at v = 0,
    where P and Q are num and den with their coefficients reversed."""
    ring, v = sympy.ring("v", sympy.QQ)

    def reversed_poly(p):
        return sum((c * v ** (p.degree - e) for e, c in p.coefficients.items()),
                   ring.zero)

    series = rs_mul(reversed_poly(num),
                    rs_series_inversion(reversed_poly(den), v, count), v, count)
    return [series.get((k,), 0) for k in range(count)]


def unit_leading_denominator(rng):
    # a leading coefficient of +-1 keeps every coefficient an integer; the
    # shapes (u - 1) * u^k give eventually constant expansions
    shape = rng.randrange(5)
    if shape == 0:
        return IntPoly({0: rng.choice([1, -1])})
    if shape == 1:
        return (U - 1) ** rng.randint(1, 2) * IntPoly.monomial(rng.randint(0, 3))
    if shape == 2:
        return IntPoly.monomial(rng.randint(1, 4), rng.choice([1, -1]))
    if shape == 3:
        return (U + 1) * (U - 1) * rng.choice([1, -1])
    p = small_poly(rng, max_degree=3)
    return p + IntPoly.monomial(p.degree + 1, rng.choice([1, -1]))


def test_laurent_expand_against_sympy_series():
    rng = random.Random(4093)
    claims = 0
    for _ in range(200):
        num, den = small_poly(rng, max_degree=5), unit_leading_denominator(rng)
        f = RationalU(num, den)
        depth = rng.randint(1, 12)
        long = depth + 24
        expected = series_at_infinity(num, den, long)
        window = laurent_expand(f, depth)
        assert window.top_degree == num.degree - den.degree
        assert list(laurent_expand(f, long).coefficients) == expected
        assert list(window.coefficients) == expected[:depth]
        if window.eventually_constant is not None:
            claims += 1
            for k in range(depth, long):
                assert window.coefficient(window.top_degree - k) == expected[k]
    assert claims >= 40  # the tail claim is exercised, not vacuous
