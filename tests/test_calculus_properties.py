"""The trivial lift against its defining identity, with hypothesis.

``trivial_lift`` builds the polynomial part of beta * u/(u-1) coefficient by
coefficient; multiplying its value back by u - 1 must give u * beta, and its
fixed tail must be beta(1), for any integer polynomial beta.
"""

import pytest

from z2beta.algebra import IntPoly, RationalU
from z2beta.calculus import trivial_lift

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

U = IntPoly.u()

betas = st.dictionaries(st.integers(0, 40), st.integers(-10 ** 6, 10 ** 6),
                        max_size=41).map(IntPoly)


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                     database=None)
@hypothesis.example(IntPoly.zero())
@hypothesis.given(betas)
def test_trivial_lift_identity(beta):
    lifted = trivial_lift(beta, allow_negative=True)
    assert RationalU(U - 1) * lifted.value == RationalU(U * beta)
    assert lifted.fixed_tail == beta.evaluate(1)
