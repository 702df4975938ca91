"""Library calls outside their domain raise their documented error, with
a message that names what was wrong."""

import pytest

from z2beta import arcs, zeta
from z2beta.algebra import IntPoly, RationalU, exact_divide, laurent_expand
from z2beta.calculus import ACTION_FREE, Atom, atom_class
from z2beta.complexes import sphere_complex
from z2beta.errors import InvalidAtom

U = IntPoly.u()
GERM = arcs.MonomialGerm(2)


@pytest.mark.parametrize("call, error, message", [
    (lambda: laurent_expand(RationalU(U, U - 1), 0), ValueError,
     "depth must be positive"),
    (lambda: exact_divide(U ** 2 + 1, U + 1), ArithmeticError,
     "not divisible"),
    (lambda: U ** -1, ValueError, "negative power"),
    (lambda: arcs.arc_class_plain(GERM, 0), ValueError, "positive integer"),
    (lambda: arcs.symbolic_constraint_check(GERM, 0), ValueError,
     "positive integer"),
    (lambda: zeta.x2_plus_y4_resolution().strata[0].covering("naive"),
     ValueError, "sign must be"),
    (lambda: atom_class(Atom("nosuch")), InvalidAtom, "unknown atom kind"),
    (lambda: sphere_complex(0, ACTION_FREE), InvalidAtom,
     "sphere dimension must be >= 1"),
    (lambda: sphere_complex(1, "antipodal"), InvalidAtom,
     "unknown sphere action 'antipodal'"),
], ids=["laurent-depth-0", "exact-divide-remainder", "negative-power",
        "arc-class-plain-n-0", "constraint-check-n-0", "covering-naive",
        "atom-unknown-kind", "sphere-complex-dim-0",
        "sphere-complex-antipodal"])
def test_out_of_domain_call_is_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()

