"""Atoms, disjoint union and complement, and the structural rewrite rules."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import z2beta.calculus as calculus
from z2beta.algebra import IntPoly, RationalU, laurent_expand, split_tail
from z2beta.calculus import (
    ACTION_FIXED,
    ACTION_FREE,
    ACTION_TRIVIAL,
    Atom,
    TAIL_SERIES,
    VirtualClass,
    affine_product,
    atom_class,
    blowup_class,
    curve_example,
    difference,
    free_quotient,
    trivial_lift,
    union_disjoint,
)
from z2beta.complexes import sphere_complex
from z2beta.errors import (
    AssertionMissing,
    InvalidAtom,
    NegativeCoefficient,
    NormalFormError,
    NotFree,
)
from z2beta.homology import equivariant_betti_series

U = IntPoly.u()


def geometric(low, high):
    return IntPoly.geometric_sum(low, high)


# ---------------------------------------------------------------------------
# atoms

def test_point_and_pair():
    assert atom_class(Atom.pair()).fixed_tail == 0
    assert atom_class(Atom.point()).fixed_tail == 1


@pytest.mark.parametrize("d", [1, 2, 3])
def test_sphere_classes(d):
    # a non-free action gives the same series whatever it does
    assert atom_class(Atom.sphere(d, ACTION_FIXED)) \
        == atom_class(Atom.sphere(d, ACTION_TRIVIAL))


@pytest.mark.parametrize("d", range(1, 7))
def test_free_sphere_has_the_class_of_its_quotient(d):
    # beta^G(S^d) = beta(RP^d): homology of the antipodal model, the quotient
    # and, from d = 2, the scissor relation agree; S^d minus its equator is
    # two swapped open d-discs
    free = atom_class(Atom.sphere(d, ACTION_FREE))
    assert free == equivariant_betti_series(sphere_complex(d, "antipodal"))
    assert free_quotient(free, True) == geometric(0, d)
    if d >= 2:
        assert difference(free, atom_class(Atom.sphere(d - 1, ACTION_FREE))) \
            == affine_product(atom_class(Atom.pair()), d)


@pytest.mark.parametrize("d", range(5))
def test_affine_classes(d):
    cls = atom_class(Atom.affine(d))
    assert cls.fixed_tail == 1
    assert cls.value.degree == d


def test_atom_validation():
    with pytest.raises(InvalidAtom):
        Atom.sphere(0, ACTION_FREE)
    with pytest.raises(InvalidAtom):
        Atom.sphere(2, "rotated")
    with pytest.raises(InvalidAtom):
        Atom.affine(-1)
    with pytest.raises(InvalidAtom):
        atom_class(Atom.custom(RationalU(1, U + 1), 0, IntPoly.zero()))
    # a double pole at u = 1 has no tail at all
    with pytest.raises(InvalidAtom) as info:
        atom_class(Atom.custom(RationalU(1, (U - 1) ** 2), 1, IntPoly.one()))
    assert str(info.value) == ("custom value 1/(u^2 - 2u + 1) is not in "
                               "normal form with fixed polynomial 1")


def test_custom_atom():
    cls = atom_class(Atom.custom(RationalU(U ** 3, U - 1), 2, IntPoly.one()))
    assert cls.fixed_tail == 1
    assert cls.poly_part == geometric(1, 2)
    assert cls.value.degree == 2


# ---------------------------------------------------------------------------
# disjoint union and complement

def test_sphere_minus_point_is_affine_line():
    got = difference(atom_class(Atom.sphere(1, ACTION_FIXED)),
                     atom_class(Atom.point()))
    assert got == atom_class(Atom.affine(1))
    assert got.value == RationalU(U) + TAIL_SERIES


def test_union_with_empty():
    x = atom_class(Atom.sphere(2, ACTION_TRIVIAL))
    assert union_disjoint(x, VirtualClass.zero()) == x


def test_two_swapped_arcs():
    got = difference(atom_class(Atom.sphere(1, ACTION_FREE)),
                     atom_class(Atom.pair()))
    assert got.value == RationalU(U)
    assert got.fixed_tail == 0


# ---------------------------------------------------------------------------
# affine products

def test_affine_product_of_point():
    got = affine_product(atom_class(Atom.point()), 2)
    assert got == atom_class(Atom.affine(2))
    assert got.value == RationalU(U ** 3, U - 1)


def test_affine_product_identity_and_pair():
    a = atom_class(Atom.sphere(3, ACTION_FIXED))
    assert affine_product(a, 0) == a
    assert affine_product(atom_class(Atom.pair()), 3).value == RationalU(U ** 3)


def test_affine_product_preserves_degree_shift():
    rng = random.Random(5)
    for _ in range(50):
        poly = IntPoly({e: rng.randint(0, 5) for e in range(rng.randint(1, 5))})
        tail = rng.randint(0, 4)
        cls = VirtualClass(poly, tail)
        if cls.is_zero():
            continue
        d = rng.randint(1, 4)
        assert affine_product(cls, d).value.degree == cls.value.degree + d
        assert affine_product(cls, d).fixed_tail == tail


# ---------------------------------------------------------------------------
# lifts and quotients

def test_trivial_lift_values():
    assert trivial_lift(IntPoly({0: 1, 2: 1})).value \
        == RationalU(IntPoly({0: 1, 2: 1})) * TAIL_SERIES
    assert trivial_lift(IntPoly.one()) == atom_class(Atom.point())
    # open interval: beta = u, lifts to the affine line class
    assert trivial_lift(U).value == RationalU(U ** 2, U - 1)


def test_trivial_lift_sign_check():
    with pytest.raises(NegativeCoefficient):
        trivial_lift(U - 1)
    lifted = trivial_lift(U - 1, allow_negative=True)
    assert lifted.value == RationalU(U)  # (u-1) u/(u-1)


def test_lift_identity():
    rng = random.Random(11)
    for _ in range(100):
        p = IntPoly({e: rng.randint(-30, 30) for e in range(rng.randint(1, 6))})
        lifted = trivial_lift(p, allow_negative=True)
        assert RationalU(U - 1) * lifted.value == RationalU(p * U)


def test_free_quotient():
    assert free_quotient(atom_class(Atom.sphere(1, ACTION_FREE)), True) == U + 1
    assert free_quotient(atom_class(Atom.pair()), True) == IntPoly.one()
    with pytest.raises(NotFree):
        free_quotient(atom_class(Atom.sphere(1, ACTION_FIXED)), True)
    with pytest.raises(AssertionMissing):
        free_quotient(atom_class(Atom.pair()), False)


# ---------------------------------------------------------------------------
# blow-ups and the curve

def test_blowup_point_on_surface():
    got = blowup_class(atom_class(Atom.sphere(2, ACTION_TRIVIAL)),
                       atom_class(Atom.point()),
                       atom_class(Atom.sphere(1, ACTION_TRIVIAL)))
    assert got.value == RationalU(geometric(0, 2)) * TAIL_SERIES


def test_blowup_degenerate():
    x = atom_class(Atom.sphere(2, ACTION_FREE))
    c = atom_class(Atom.point())
    assert blowup_class(x, c, c) == x


def test_curve_rejects_unknown_action():
    with pytest.raises(InvalidAtom):
        curve_example("rotated")


# ---------------------------------------------------------------------------
# normal form and inspection

def test_negative_tail():
    assert atom_class(Atom.sphere(3, ACTION_FIXED)).fixed_tail == 2
    assert atom_class(Atom.sphere(2, ACTION_FREE)).fixed_tail == 0
    assert atom_class(Atom.point()).fixed_tail == 1


def test_normal_form_enforced():
    with pytest.raises(NormalFormError):
        VirtualClass.from_value(RationalU(1, U + 1))
    with pytest.raises(NormalFormError):
        VirtualClass.from_value(RationalU(1, (U - 1) ** 2))


def test_normal_form_closure_randomized():
    """Every operation lands back in normal form and agrees with plain
    RationalU arithmetic on the operands' values."""
    rng = random.Random(23)
    atoms = [Atom.point(), Atom.pair(), Atom.affine(2),
             Atom.sphere(1, ACTION_FREE), Atom.sphere(2, ACTION_FIXED),
             Atom.sphere(3, ACTION_TRIVIAL)]
    values = [atom_class(a) for a in atoms]
    for _ in range(300):
        op = rng.choice(["union", "diff", "affprod", "blowup"])
        a, b, c = (rng.choice(values) for _ in range(3))
        if op == "union":
            out, expected = union_disjoint(a, b), a.value + b.value
        elif op == "diff":
            out, expected = difference(a, b), a.value - b.value
        elif op == "affprod":
            d = rng.randint(0, 3)
            out = affine_product(a, d)
            expected = a.value * RationalU(IntPoly.monomial(d))
        else:
            out, expected = blowup_class(a, b, c), a.value - b.value + c.value
        assert out.value == RationalU(out.poly_part) \
            + out.fixed_tail * TAIL_SERIES
        assert out.value == expected
        values.append(out)
        if len(values) > 40:
            del values[0]


def test_value_is_built_in_normal_form():
    # the value is assembled directly as (P*(u-1) + c*u)/(u-1); generic
    # arithmetic on the same pair must give the same normal form
    rng = random.Random(512)
    for _ in range(200):
        poly = IntPoly({e: rng.choice([0, 1, -1, 2, -6, 10 ** 30])
                        for e in range(rng.randint(0, 9))})
        for tail in (rng.randint(-40, -1), 0, rng.randint(1, 40)):
            value = VirtualClass(poly, tail).value
            expected = RationalU(poly) + tail * TAIL_SERIES
            assert (value.numerator, value.denominator) \
                == (expected.numerator, expected.denominator)


def test_value_and_affine_product_equal_the_generic_route():
    # _series builds P*(u-1) + c*u and affine_product the shifted P plus
    # c*(u + ... + u^d) term by term; IntPoly ring operations are the
    # reference.  Fixed cases: P = 0, c = 0, d = 0, the u^1 coefficient
    # p_0 - p_1 + c cancelling, and shifted P cancelling c*u^d
    u_minus_one = U - 1
    cases = [(IntPoly.zero(), 0, 0), (IntPoly.zero(), 3, 5),
             (IntPoly.zero(), -2, 1), (IntPoly({0: 2, 1: 5}), 3, 2),
             (IntPoly({0: -4, 1: -1}), 3, 0), (IntPoly({0: -3}), 3, 4),
             (IntPoly({0: 2, 3: -1}), -2, 1), (U ** 2, 0, 6)]
    rng = random.Random(2718)
    for _ in range(300):
        low = rng.randint(0, 3)
        poly = IntPoly({e: rng.choice([0, 1, -1, 2, -7, 10 ** 25])
                        for e in range(low, low + rng.randint(0, 6))})
        cases.append((poly, rng.choice([0, rng.randint(-9, -1),
                                        rng.randint(1, 9)]),
                      rng.randint(0, 8)))
    for poly, tail, d in cases:
        value = calculus._series(poly, tail)
        if tail:
            assert value.numerator == poly * u_minus_one + tail * U
            assert value.denominator == u_minus_one
        else:
            assert (value.numerator, value.denominator) == (poly, 1)
        shifted = affine_product(VirtualClass(poly, tail), d)
        assert shifted.poly_part \
            == poly.shift(d) + tail * IntPoly.geometric_sum(1, d)
        assert shifted.fixed_tail == tail


def test_from_value_decomposition():
    value = RationalU(U ** 2 + U) + 3 * TAIL_SERIES
    cls = VirtualClass.from_value(value)
    assert cls.poly_part == U ** 2 + U
    assert cls.fixed_tail == 3


def test_tail_split_from_both_callers():
    # from_value and laurent_expand read the fixed tail through one split:
    # the normal form comes back, the constant tail is claimed exactly from
    # the exponent min(1, val P) down (1 for P = 0), and a double pole at
    # u = 1 has no tail for either caller
    rng = random.Random(20)
    for _ in range(200):
        low = rng.randint(0, 3)
        poly = IntPoly({e: rng.choice([1, -1, 2, -5, 7])
                        for e in range(low, low + rng.randint(0, 4))})
        tail = rng.choice([0, rng.randint(-9, -1), rng.randint(1, 9)])
        cls = VirtualClass(poly, tail)
        value = cls.value
        assert VirtualClass.from_value(value) == cls
        limit = 1 if poly.is_zero() else min(1, poly.valuation)
        top = laurent_expand(value, 1).top_degree
        for depth in range(1, top - limit + 4):
            reaches = top - depth + 1 <= limit
            assert laurent_expand(value, depth).eventually_constant \
                == (tail if reaches else None), (poly, tail, depth)
        double = value + RationalU(rng.choice([1, -1, 3]), (U - 1) ** 2)
        assert split_tail(double) is None
        with pytest.raises(NormalFormError):
            VirtualClass.from_value(double)
        assert laurent_expand(double, top - limit + 4).eventually_constant \
            is None


# ---------------------------------------------------------------------------
# the class record

def test_virtual_class_record(monkeypatch):
    a = VirtualClass(U ** 2 - 3, 2)
    b = VirtualClass(U ** 2 - 3, 2)
    assert a == b and hash(a) == hash(b)
    assert a != VirtualClass(U ** 2 - 3, 1)
    assert repr(a) == ("VirtualClass(poly_part=IntPoly.parse('u^2 - 3'), "
                       "fixed_tail=2)")
    constant = VirtualClass(4, 0)
    assert isinstance(constant.poly_part, IntPoly)
    assert constant == VirtualClass(IntPoly({0: 4}), 0)
    for name in ("poly_part", "fixed_tail", "value", "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
    calls = []
    real = calculus._series

    def counting(poly, tail):
        calls.append((poly, tail))
        return real(poly, tail)

    monkeypatch.setattr(calculus, "_series", counting)
    fresh = VirtualClass(U, 3)
    assert fresh.value is fresh.value
    assert fresh.value == RationalU(U) + 3 * TAIL_SERIES
    assert calls == [(U, 3)]


def test_import_leaves_dataclasses_out():
    # every record type is a NamedTuple or a slotted class, so a cold start
    # does not pay for importing dataclasses (and inspect, ast, dis)
    code = ("import sys, z2beta, z2beta.cli, z2beta.verify; "
            "print('dataclasses' in sys.modules)")
    src = str(Path(calculus.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "False"
