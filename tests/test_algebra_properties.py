"""RationalU arithmetic against the one-shot normal form, with hypothesis.

Sums, products and quotients combine normal forms by partial gcds; the
reference builds the cross-multiplied fraction and normalises it whole.
"""

import pytest

from z2beta.algebra import IntPoly, RationalU
from z2beta.errors import DivisionByZero

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

U = IntPoly.u()

polys = st.dictionaries(st.integers(0, 4), st.integers(-6, 6), max_size=5) \
    .map(IntPoly)
nonzero_polys = st.dictionaries(st.integers(0, 4), st.integers(1, 6)
                                | st.integers(-6, -1), min_size=1, max_size=4) \
    .map(IntPoly)
factors = st.sampled_from([IntPoly.one(), IntPoly({0: -2}), U, 3 * U ** 2,
                           U - 1, (U - 1) ** 2, U + 1, U ** 2 + 1])


@st.composite
def fractions(draw):
    den = draw(nonzero_polys) * draw(factors) * draw(factors)
    return RationalU(draw(polys) * draw(factors), den)


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(fractions(), fractions())
def test_arithmetic_matches_one_shot_normal_form(a, b):
    (p, q), (r, s) = (a.numerator, a.denominator), (b.numerator, b.denominator)
    assert a + b == RationalU(p * s + r * q, q * s)
    assert a - b == RationalU(p * s - r * q, q * s)
    assert a * b == RationalU(p * r, q * s)
    if not b.is_zero():
        assert a / b == RationalU(p * s, q * r)
    assert a ** 3 == RationalU(p ** 3, q ** 3)


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(fractions(), st.integers(-5, 5), st.integers(1, 3),
                  factors)
def test_reflected_operators_power_truth_and_hash(r, k, n, f):
    assert k - r == RationalU(k) - r
    if not r.is_zero():
        assert k / r == RationalU(k) / r
        assert r ** -n == RationalU(1) / r ** n
    assert bool(r) == (not r.is_zero())
    # the same value through an unreduced fraction and through a round trip
    for same in (RationalU(r.numerator * f, r.denominator * f), (r + k) - k):
        assert same == r
        assert hash(same) == hash(r)


def test_negative_power_of_zero_refused():
    with pytest.raises(DivisionByZero):
        RationalU(0) ** -1
