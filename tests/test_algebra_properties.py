"""RationalU arithmetic against the one-shot normal form, with hypothesis.

Sums, products and quotients combine normal forms by partial gcds; the
reference builds the cross-multiplied fraction and normalises it whole.
"""

import pytest

from z2beta.algebra import IntPoly, RationalU

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
