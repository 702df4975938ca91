"""Polynomial and fraction text against its reader, with hypothesis.

One reader serves ``IntPoly.parse``, ``RationalU.parse`` and the expression
language.  It must invert ``str`` on every value, exponents above 1024
included (``expand_zeta`` prints denominators u^1536 at order 1024), and on
any text it must return a value or raise a ToolkitError.
"""

import pytest

from z2beta.algebra import MAX_COEFFICIENT_DIGITS, IntPoly, RationalU
from z2beta.dsl import parse_expression
from z2beta.errors import ToolkitError

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

SETTINGS = hypothesis.settings(max_examples=200, deadline=None,
                               derandomize=True, database=None)

LARGEST = 10 ** MAX_COEFFICIENT_DIGITS - 1
coefficients = st.integers(-50, 50) | st.integers(-LARGEST, LARGEST)
exponents = st.integers(0, 8) | st.integers(1000, 1600)
polys = st.dictionaries(exponents, coefficients, max_size=6).map(IntPoly)
monomials = st.builds(IntPoly.monomial, exponents,
                      coefficients.filter(bool))
small_polys = st.dictionaries(st.integers(0, 4), st.integers(-9, 9),
                              max_size=4).map(IntPoly)
factors = st.sampled_from([IntPoly({0: -3}), IntPoly.u() - 1,
                           (IntPoly.u() + 1) ** 2, IntPoly({2: 1, 0: 1}),
                           IntPoly({2: 2, 1: -1, 0: 5})])


@st.composite
def fractions(draw):
    """Values whose normal form needs no gcd of two long polynomials: a
    long numerator over a single term, a single term over a long
    multi-term denominator, or short polynomials on both sides."""
    shape = draw(st.sampled_from(["over-monomial", "monomial-over",
                                  "short"]))
    if shape == "over-monomial":
        return RationalU(draw(polys), draw(monomials))
    if shape == "monomial-over":
        den = draw(factors) * draw(factors) * IntPoly.monomial(draw(exponents))
        return RationalU(draw(monomials), den)
    den = draw(small_polys.filter(bool)) * draw(factors)
    return RationalU(draw(small_polys), den)


@SETTINGS
@hypothesis.given(polys)
def test_poly_text_roundtrip(p):
    assert IntPoly.parse(str(p)) == p


@SETTINGS
@hypothesis.given(fractions())
def test_fraction_text_roundtrip(r):
    assert RationalU.parse(str(r)) == r


TOKENS = ["u", "^", "+", "-", "*", "/", "(", ")", ",", " ", "\n", "0", "7",
          "12", "1024", "1025", "0" * 1200, "9" * (MAX_COEFFICIENT_DIGITS + 1),
          "x", "²", "lift", "custom", "sphere", "affprod", "union",
          "point", "free", "y_negated"]
texts = st.lists(st.sampled_from(TOKENS), max_size=16).map("".join) \
    | st.text(alphabet="0123456789u^+-*/(), \n\tx²", max_size=24)


@SETTINGS
@hypothesis.given(texts)
def test_any_text_gives_a_value_or_a_toolkit_error(text):
    for read in (IntPoly.parse, RationalU.parse, parse_expression):
        try:
            read(text)
        except ToolkitError:
            pass
