"""Exact polynomial / fraction arithmetic and the Laurent view."""

import random
import time
from fractions import Fraction
from math import gcd as int_gcd

import pytest

from z2beta import algebra
from z2beta.algebra import (
    NEG_INFINITY,
    IntPoly,
    RationalU,
    exact_divide,
    laurent_expand,
    poly_gcd,
    split_tail,
)
from z2beta.arcs import MonomialGerm, oracle_zeta, oracle_zeta_naive
from z2beta.calculus import Atom, VirtualClass, affine_product, atom_class
from z2beta.errors import (
    DivisionByZero,
    ExpressionSyntaxError,
    NonIntegerExpansion,
    PoleAtPoint,
)
from z2beta.zeta import (
    ZetaClosedForm,
    dl_zeta_naive,
    dl_zeta_signed,
    expand_zeta,
    monomial_resolution,
    x2_plus_y4_resolution,
    zeta_equal,
)

U = IntPoly.u()


def random_poly(rng, max_degree=8, max_coeff=10 ** 6):
    return IntPoly({e: rng.randint(-max_coeff, max_coeff)
                    for e in range(rng.randint(0, max_degree) + 1)})


def random_fraction(rng):
    den = IntPoly.zero()
    while den.is_zero():
        den = random_poly(rng, max_degree=4)
    return RationalU(random_poly(rng), den)


# ---------------------------------------------------------------------------
# polynomials

def test_poly_ring_ops():
    assert (U + 1) + (U - 1) == IntPoly({1: 2})
    assert (U - 1) * (U + 1) == U ** 2 - 1
    assert IntPoly.zero() * (U ** 3 + 5) == IntPoly.zero()


def test_ring_results_hold_no_zero_entries():
    assert dict(((U + 1) * (U - 1)).coefficients) == {2: 1, 0: -1}
    assert dict(((U ** 2 + U) + (3 - U)).coefficients) == {2: 1, 0: 3}
    assert dict((U - U).coefficients) == {}
    assert hash((U + 1) * (U - 1)) == hash(U ** 2 - 1)
    assert (U ** 3 + U).shift(-1) == U ** 2 + 1
    with pytest.raises(ValueError):
        (U ** 3 + 1).shift(-1)


def test_constructor_refuses_non_integral_entries():
    for coeffs in ({1.5: 2}, {1: 2.7}, {1.5: 2.7}, {1: 0.5}, {2.0: 1},
                   {1: Fraction(1, 2)}, {"1": 2}, {1: "2"}):
        with pytest.raises(TypeError):
            IntPoly(coeffs)
    with pytest.raises(TypeError):
        RationalU(IntPoly({1: 0.5}), 2)
    assert IntPoly({True: True, 2: 3}) == IntPoly({1: 1, 2: 3})
    assert dict(IntPoly({0: 0, 3: -2}).coefficients) == {3: -2}
    with pytest.raises(ValueError):
        IntPoly({-1: 1})


def test_poly_degree_and_valuation():
    assert IntPoly.zero().degree == NEG_INFINITY
    assert (U ** 5 + U).degree == 5
    assert (U ** 5 + U).valuation == 1
    assert IntPoly({0: 7}).degree == 0


def test_poly_text_roundtrip():
    for text in ["0", "1", "-1", "u", "2u", "u^2 + 1", "u - 1",
                 "-2u^3 + u - 5", "u^10", "3u^2 - 2u + 7"]:
        p = IntPoly.parse(text)
        assert str(p) == text
        assert IntPoly.parse(str(p)) == p


def test_poly_parse_tolerates_star_and_spacing():
    assert IntPoly.parse("2*u^3-u+5") == IntPoly({3: 2, 1: -1, 0: 5})
    assert IntPoly.parse("u-1") == U - 1


def test_poly_parse_rejects_garbage():
    for bad in ["", "u^-1", "x + 1", "u^"]:
        with pytest.raises(ValueError):
            IntPoly.parse(bad)


def test_parse_shares_the_literal_grammar():
    # the grammar of the expression language's literals, read whole
    assert IntPoly.parse("(u + 1)") == U + 1
    assert RationalU.parse("u^2 + 1/(u - 1)") == RationalU(U ** 2 + 1, U - 1)
    assert RationalU.parse("1/2u") == RationalU(1, 2 * U)
    for bad in ["1/u - 1", "3 4", "u/(u - 1)/u", "(u + 1", "\u00b2"]:
        with pytest.raises(ExpressionSyntaxError):
            RationalU.parse(bad)
    longest = "9" * algebra.MAX_COEFFICIENT_DIGITS
    assert IntPoly.parse(f"{longest}u^{longest}") == \
        IntPoly.monomial(int(longest), int(longest))
    for text in [f"1{longest}", f"u^1{longest}", f"1/1{longest}"]:
        with pytest.raises(ExpressionSyntaxError):
            RationalU.parse(text)


def test_poly_gcd_primitive():
    a = (U - 1) * (U + 2) * 3
    b = (U - 1) * (U ** 2 + 1) * 2
    assert poly_gcd(a, b) == U - 1
    assert poly_gcd(IntPoly.zero(), b) == (U - 1) * (U ** 2 + 1)


def euclid_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Independent gcd oracle: dense Euclid over Q[u], made primitive."""
    def to_dense(p):
        if p.is_zero():
            return []
        return [Fraction(p[e]) for e in range(p.degree + 1)]

    def trim(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    fa, fb = to_dense(a), to_dense(b)
    while fb:
        # fa mod fb
        fa = fa[:]
        while len(fa) >= len(fb) and fa:
            factor = fa[-1] / fb[-1]
            shift = len(fa) - len(fb)
            for i, c in enumerate(fb):
                fa[i + shift] -= factor * c
            trim(fa)
        fa, fb = fb, fa
    if not fa:
        return IntPoly.zero()
    denominators = 1
    for c in fa:
        denominators = denominators * c.denominator // int_gcd(denominators,
                                                               c.denominator)
    ints = [int(c * denominators) for c in fa]
    content = 0
    for c in ints:
        content = int_gcd(content, abs(c))
    ints = [c // content for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return IntPoly(dict(enumerate(ints)))


def test_poly_gcd_against_euclid_oracle():
    rng = random.Random(314)
    for _ in range(150):
        g = random_poly(rng, max_degree=3, max_coeff=9)
        a = random_poly(rng, max_degree=4, max_coeff=50)
        b = random_poly(rng, max_degree=4, max_coeff=50)
        if g.is_zero() or a.is_zero() or b.is_zero():
            continue
        assert poly_gcd(a * g, b * g) == euclid_gcd(a * g, b * g)


def test_fraction_route_independence():
    rng = random.Random(2718)
    for _ in range(200):
        f = random_fraction(rng)
        multiplier = random_poly(rng, max_degree=3, max_coeff=20)
        if multiplier.is_zero():
            continue
        assert RationalU(f.numerator * multiplier,
                         f.denominator * multiplier) == f


# ---------------------------------------------------------------------------
# fractions

def test_fraction_examples():
    t = RationalU(U, U - 1)
    assert t - 1 == RationalU(1, U - 1)
    assert RationalU(U - 1) * t == RationalU(U)
    assert t + t == RationalU(2 * U, U - 1)


def test_fraction_normal_form_unique():
    assert RationalU(2 * U ** 2 - 2, 2 * U - 2) == RationalU(U + 1)
    assert RationalU(U ** 3 - U, (U - 1) ** 2) == RationalU(U ** 2 + U, U - 1)
    assert RationalU(4 * U, 2) == RationalU(2 * U)
    # denominator sign is normalized
    assert RationalU(U, 1 - U) == RationalU(-U, U - 1)


def test_monomial_denominator_against_gcd_normal_form():
    # RationalU strips a power of u from c*u^k denominators without poly_gcd;
    # the reference normal form here goes through poly_gcd and exact_divide
    rng = random.Random(4242)
    for _ in range(400):
        body = IntPoly.zero()
        while body.is_zero() or body[0] == 0:
            body = random_poly(rng, max_degree=5, max_coeff=30)
        content = rng.choice([1, 2, 3, 6, 12])
        num = (body * (content * rng.choice([1, -1]))).shift(rng.randint(0, 4))
        den = IntPoly.monomial(rng.randint(0, 8), rng.choice([1, -1, 2, -2, 6, -6]))
        common = poly_gcd(num, den)
        ref_num, ref_den = exact_divide(num, common), exact_divide(den, common)
        joint = int_gcd(ref_num.content(), ref_den.content())
        ref_num = IntPoly({e: c // joint for e, c in ref_num.coefficients.items()})
        ref_den = IntPoly({e: c // joint for e, c in ref_den.coefficients.items()})
        if ref_den.leading_coefficient < 0:
            ref_num, ref_den = -ref_num, -ref_den
        value = RationalU(num, den)
        assert (value.numerator, value.denominator) == (ref_num, ref_den)


def test_values_and_arc_oracle_need_no_poly_gcd(monkeypatch):
    # P + c*u/(u-1), its scaling by u^-n, the arc oracle and the zeta
    # series combine normal forms whose partial gcds are decided by shape;
    # count the full ones
    calls = []
    real_gcd = algebra.poly_gcd

    def counting_gcd(a, b):
        calls.append((a, b))
        return real_gcd(a, b)

    monkeypatch.setattr(algebra, "poly_gcd", counting_gcd)
    rng = random.Random(99)
    for degree in (0, 1, 6, 100, 1000):
        poly = IntPoly({e: rng.randint(-9, 9) for e in range(degree + 1)})
        for tail in (0, 1, -3):
            value = VirtualClass(poly, tail).value
            assert value.eval_at(2) == poly.evaluate(2) + 2 * tail
            for n in (0, 1, 17, 1000):
                scaled = value * RationalU(1, U ** n)
                assert scaled.eval_at(2) == Fraction(value.eval_at(2), 2 ** n)
    for exponent in (2, 3):
        germ = MonomialGerm(exponent)
        for sign in ("+", "-"):
            assert len(oracle_zeta(germ, sign, 256)) == 256
        assert len(oracle_zeta_naive(germ, 256)) == 256
    # the zeta series sum each denominator, a power of u times (u-1)^j, apart
    x2y4 = x2_plus_y4_resolution()
    for resolution, order in ([(x2y4, 128)]
                              + [(monomial_resolution(N), 48)
                                 for N in range(1, 9)]):
        forms = [dl_zeta_signed(resolution, sign) for sign in ("+", "-")]
        for form in forms + [dl_zeta_naive(resolution)]:
            assert len(expand_zeta(form, order)) == order
    assert zeta_equal(dl_zeta_naive(x2y4), dl_zeta_signed(x2y4, "+").scaled(
        RationalU(U - 1)))
    # terms over 1 and over u-1: put over one common denominator, their
    # multi-term numerators would need poly_gcd at every T-degree
    mixed = ZetaClosedForm.from_terms([(RationalU(U + 2), ((2, 2),)),
                                       (RationalU(U, U - 1), ((4, 3),))])
    assert len(expand_zeta(mixed, 64)) == 64
    assert calls == []


def test_oracle_builds_linear_terms_and_affine_value(monkeypatch):
    # the arc oracle to order K builds O(K) terms in all, where an affine
    # factor per coefficient would build O(K^2)
    built = []
    real_trusted = IntPoly._trusted.__func__

    def counting_trusted(cls, coeffs):
        built.append(len(coeffs))
        return real_trusted(cls, coeffs)

    monkeypatch.setattr(IntPoly, "_trusted", classmethod(counting_trusted))
    assert len(oracle_zeta(MonomialGerm(3), "+", 1024)) == 1024
    assert sum(built) < 4 * 1024
    value = affine_product(atom_class(Atom.point()), 1000).value
    assert value == RationalU(IntPoly.monomial(1001), U - 1)


def _is_normal_form(value: RationalU) -> bool:
    num, den = value.numerator, value.denominator
    if num.is_zero():
        return den == IntPoly.one()
    return (int_gcd(num.content(), den.content()) == 1
            and den.leading_coefficient > 0
            and min(num.valuation, den.valuation) == 0
            and poly_gcd(num, den).degree == 0)


def test_shift_is_multiplication_by_a_power_of_u():
    rng = random.Random(6060)
    values = [RationalU.zero(), RationalU(1, U), RationalU(U ** 3, 2 * U - 2),
              RationalU(6 * U ** 2 + 4, 9 * U ** 5 - 3 * U ** 3)]
    for _ in range(60):
        value = random_fraction(rng)
        # denominators with and without a factor u, contents above 1
        values.append(value * RationalU(rng.choice([1, 2, 6]),
                                        IntPoly.monomial(rng.randint(0, 5),
                                                         rng.choice([1, 3]))))
        values.append(value)
    for value in values:
        for k in range(-12, 13):
            expected = value * (RationalU(IntPoly.monomial(k)) if k >= 0
                                else RationalU(1, IntPoly.monomial(-k)))
            shifted = value.shift(k)
            assert (shifted.numerator, shifted.denominator) \
                == (expected.numerator, expected.denominator)
            assert _is_normal_form(shifted)
            if not value.is_zero():
                assert shifted.eval_at(2) == value.eval_at(2) * Fraction(2) ** k


def test_sparse_gcd_eliminates_in_place(monkeypatch):
    # a 100000-degree pseudo-division builds a handful of polynomials, not
    # one or more per elimination step
    built = []
    trusted = IntPoly._trusted.__func__

    def counting(cls, coeffs):
        built.append(len(coeffs))
        return trusted(cls, coeffs)

    a, b = IntPoly({100000: 1, 0: 1}), U ** 2 + 1
    monkeypatch.setattr(IntPoly, "_trusted", classmethod(counting))
    start = time.perf_counter()
    common = poly_gcd(a, b)
    elapsed = time.perf_counter() - start
    assert common == IntPoly.one()
    assert len(built) < 20 and max(built) <= 2
    assert elapsed < 1.0


def test_exact_divide_sparse_and_refusals():
    a = IntPoly({100000: 1, 0: -1})
    q = exact_divide(a, U ** 4 - 1)
    assert q == IntPoly({e: 1 for e in range(0, 100000, 4)})
    assert exact_divide(IntPoly.zero(), U + 1) == IntPoly.zero()
    with pytest.raises(ArithmeticError):
        exact_divide(a, U ** 3 - 2)
    with pytest.raises(ArithmeticError):
        exact_divide(U ** 2 + 1, U + 1)
    with pytest.raises(DivisionByZero):
        exact_divide(U, IntPoly.zero())


def test_fraction_division():
    a = RationalU(U ** 2 + 1, U - 1)
    assert a / a == RationalU.one()
    with pytest.raises(DivisionByZero):
        a / RationalU.zero()
    with pytest.raises(DivisionByZero):
        RationalU(U, IntPoly.zero())


def test_degree():
    assert RationalU(U ** 4, U - 1).degree == 3
    assert RationalU(1 + U ** 2).degree == 2
    assert RationalU.zero().degree == NEG_INFINITY


def test_degree_additive_randomized():
    rng = random.Random(7)
    for _ in range(300):
        a, b = random_fraction(rng), random_fraction(rng)
        if not a.is_zero() and not b.is_zero():
            assert (a * b).degree == a.degree + b.degree


def test_eval_at():
    assert RationalU(1 + U).eval_at(1) == 2  # 1 + u^(d-1) at d = 2
    assert RationalU(U ** 2 + U).eval_at(1) == 2
    assert RationalU(U, U - 1).eval_at(2) == 2
    with pytest.raises(PoleAtPoint):
        RationalU(U, U - 1).eval_at(1)


def test_text_form_contract():
    assert str(RationalU(U ** 2 + 1, U - 1)) == "(u^2 + 1)/(u - 1)"
    assert str(RationalU(U, U - 1)) == "u/(u - 1)"
    assert str(RationalU(U ** 2 + 1, U)) == "(u^2 + 1)/u"
    assert str(RationalU.zero()) == "0"
    assert str(RationalU(2 * U, U - 1)) == "2u/(u - 1)"
    for text in ["(u^2 + 1)/(u - 1)", "u/(u - 1)", "1/u^2", "u^2 + 1"]:
        assert str(RationalU.parse(text)) == text


# ---------------------------------------------------------------------------
# Laurent expansion

def test_point_series_window():
    w = laurent_expand(RationalU(U, U - 1), 4)
    assert w.top_degree == 0
    assert w.coefficients == (1, 1, 1, 1)
    assert w.eventually_constant == 1


def test_exact_division_window():
    w = laurent_expand(RationalU(U ** 2 + 1, U), 3)
    assert w.top_degree == 1
    assert w.coefficients == (1, 0, 1)
    assert w.eventually_constant == 0
    # a shallower window cannot certify the tail yet
    assert laurent_expand(RationalU(U ** 2 + 1, U), 2).eventually_constant is None


def test_affine_plane_window():
    w = laurent_expand(RationalU(U ** 3, U - 1), 5)  # d = 2
    assert w.top_degree == 2
    assert w.coefficients == (1, 1, 1, 1, 1)
    assert w.eventually_constant == 1


def test_window_of_zero():
    w = laurent_expand(RationalU.zero(), 3)
    assert w.coefficients == (0, 0, 0)
    assert w.eventually_constant == 0


def test_no_tail_for_other_poles():
    w = laurent_expand(RationalU(1, U + 1), 6)
    assert w.eventually_constant is None
    assert w.coefficients == (1, -1, 1, -1, 1, -1)


def test_non_integer_expansion_detected():
    with pytest.raises(NonIntegerExpansion):
        laurent_expand(RationalU(1, 2 * U - 1), 4)


def test_window_coefficient_lookup():
    w = laurent_expand(RationalU(U, U - 1), 3)
    assert w.coefficient(0) == 1
    assert w.coefficient(-10) == 1  # certified by the tail
    with pytest.raises(IndexError):
        w.coefficient(5)


def _split_tail_by_fraction(f):
    # the previous route: c = ((u-1)f)(1) as an exact Fraction
    try:
        c = (f * RationalU(U - 1)).eval_at(1)
    except PoleAtPoint:
        return None
    if c.denominator != 1:
        return None
    return int(c), f - int(c) * RationalU(U, U - 1)


def test_split_tail_equals_the_fraction_route():
    # den(1) != 0, a simple pole at 1 (integer c of either sign), a double
    # pole and a non-integer c, on fixed and seeded random fractions
    u1 = U - 1
    cases = [RationalU.zero(), RationalU(U ** 2 + 1, U), RationalU(U, u1),
             RationalU(-3 * U ** 4 + U, u1 * (U - 3)), RationalU(1, 2 * u1),
             RationalU(1, u1 ** 2), RationalU(U ** 3, u1 ** 2 * (U + 1)),
             RationalU(5, u1 * (U + 1))]
    rng = random.Random(4242)
    for _ in range(300):
        num = random_poly(rng, max_degree=5, max_coeff=9)
        q = IntPoly.zero()
        while q.is_zero():
            q = random_poly(rng, max_degree=3, max_coeff=4)
        cases.append(RationalU(num, q * u1 ** rng.choice([0, 1, 1, 2])))
    seen = set()
    for f in cases:
        got, want = split_tail(f), _split_tail_by_fraction(f)
        assert got == want, f
        if got is None:
            seen.add("double" if f.denominator.evaluate(1) == 0
                     and (f * RationalU(u1)).denominator.evaluate(1) == 0
                     else "non-integer")
        else:
            seen.add("no pole" if got[0] == 0 else "pole")
            if got[0] == 0:
                assert got[1] is f
    assert seen == {"no pole", "pole", "double", "non-integer"}
