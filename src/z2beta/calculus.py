"""The Grothendieck-group calculus of Z/2Z-equivariant virtual Poincare series.

A class is a value, never a point set: the module manipulates images of
arc-symmetric sets under the equivariant series, in the normal form

    value = P(u) + c * u/(u-1)

where P has integer coefficients and the integer c >= 0 is the ordinary
virtual Poincare polynomial of the fixed point set evaluated at 1.   A class
is the pair (P, c) and nothing else; its value is derived from it, so every
class is in normal form by construction.  Only ``VirtualClass.from_value``,
which decomposes an arbitrary rational function through
``algebra.split_tail``, can fail to find one.

A free action has the class of its quotient, beta^G(X) = beta(X/G): c = 0
and P is the ordinary virtual Poincare polynomial of X/G (``free_quotient``).

At u = -1 the value is half the Euler characteristic with compact supports,
P(-1) + c/2 = chi_c(X)/2.  The series is additive over X = X_free + F, with
F the fixed set.  The free part has the class of its quotient, and a double
cover halves chi_c, so it gives chi_c(X_free/G) = chi_c(X_free)/2.  F has
trivial action and class beta(F) * u/(u-1) (``trivial_lift``); u/(u-1) is
1/2 at u = -1, so F gives chi_c(F)/2, and the tail term c * u/(u-1) is c/2.

Only the group operations plus multiplication by affine factors are exposed.
A general ring product of two classes is deliberately absent: the series is
additive and multiplicative against affine factors only, and a blanket
product would silently produce wrong values (u/(u-1) squared is not the
class of a point times a point).
"""

from __future__ import annotations

from contextlib import suppress
from typing import NamedTuple

from .algebra import (TAIL_SERIES, U_MINUS_ONE, IntPoly, RationalU,
                      exact_divide, split_tail)
from .errors import (
    AssertionMissing,
    InvalidAtom,
    NegativeCoefficient,
    NormalFormError,
    NotFree,
)

ACTION_FREE = "free"
ACTION_FIXED = "with_fixed_point"
ACTION_TRIVIAL = "trivial"
SPHERE_ACTIONS = (ACTION_FREE, ACTION_FIXED, ACTION_TRIVIAL)


class VirtualClass:
    """An equivariant virtual Poincare series in normal form.

    The state is the decomposition: ``poly_part`` P (an int is taken as a
    constant) and ``fixed_tail`` c; ``value`` is P + c*u/(u-1), derived on
    first use and kept.  The normal form is unique, so equality and hashing
    compare (P, c).
    """

    __slots__ = ("poly_part", "fixed_tail", "_value")

    def __init__(self, poly_part: IntPoly, fixed_tail: int):
        object.__setattr__(self, "poly_part", poly_part)
        object.__setattr__(self, "fixed_tail", fixed_tail)
        object.__setattr__(self, "_value", None)
        self.__post_init__()

    # a method of its own: the benchmark's tracer counts constructions here
    def __post_init__(self):
        if isinstance(self.poly_part, int):
            object.__setattr__(self, "poly_part", IntPoly({0: self.poly_part}))

    def __setattr__(self, *args):
        raise AttributeError("VirtualClass is immutable")

    @property
    def value(self) -> RationalU:
        if self._value is None:
            object.__setattr__(self, "_value",
                               _series(self.poly_part, self.fixed_tail))
        return self._value

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.poly_part == other.poly_part
                and self.fixed_tail == other.fixed_tail)

    def __hash__(self):
        return hash((self.poly_part, self.fixed_tail))

    def __repr__(self):
        return (f"VirtualClass(poly_part={self.poly_part!r}, "
                f"fixed_tail={self.fixed_tail!r})")

    @classmethod
    def from_value(cls, value: RationalU) -> "VirtualClass":
        """Decompose a rational function into normal form, or fail."""
        split = split_tail(value)
        if split is None or not split[1].is_polynomial():
            raise NormalFormError(f"{value} is not a polynomial plus an "
                                  "integer multiple of u/(u-1)")
        return cls(split[1].numerator, split[0])

    @classmethod
    def zero(cls) -> "VirtualClass":
        return cls(IntPoly.zero(), 0)

    def is_zero(self) -> bool:
        return self.poly_part.is_zero() and self.fixed_tail == 0

    def __str__(self):
        return str(self.value)


def _series(poly: IntPoly, tail: int) -> RationalU:
    # P + c*u/(u-1) = (P*(u-1) + c*u)/(u-1), in lowest terms for c != 0
    # because the numerator is c at u = 1
    if not tail:
        return RationalU._coprime(poly, IntPoly.one())
    u_minus_one = U_MINUS_ONE.numerator
    return RationalU._coprime(poly * u_minus_one + IntPoly.monomial(1, tail),
                              u_minus_one)


def union_disjoint(a: VirtualClass, b: VirtualClass) -> VirtualClass:
    """Class of a disjoint union: the sum."""
    return VirtualClass(a.poly_part + b.poly_part, a.fixed_tail + b.fixed_tail)


def difference(a: VirtualClass, b: VirtualClass) -> VirtualClass:
    """Class of a complement: the difference."""
    return VirtualClass(a.poly_part - b.poly_part, a.fixed_tail - b.fixed_tail)


def affine_product(a: VirtualClass, d: int) -> VirtualClass:
    """Class of the product with a d-dimensional affine space (any action).

    Multiplies the value by u^d; the tail is unchanged because
    u^d * u/(u-1) = (u^d + ... + u) + u/(u-1).
    """
    if d < 0:
        raise InvalidAtom(f"affine dimension must be >= 0, got {d}")
    poly = a.poly_part.shift(d) + a.fixed_tail * IntPoly.geometric_sum(1, d)
    return VirtualClass(poly, a.fixed_tail)


def trivial_lift(beta_poly: IntPoly, allow_negative: bool = False) -> VirtualClass:
    """Class of a set with trivial involution, from its ordinary virtual
    Poincare polynomial: value = beta * u/(u-1), tail = beta(1).

    Negative coefficients are legitimate for non-compact sets but usually a
    typo, hence the explicit override.
    """
    if beta_poly.has_negative_coefficient() and not allow_negative:
        raise NegativeCoefficient(
            f"{beta_poly} has a negative coefficient; pass allow_negative=True "
            "if it really is the virtual polynomial of a non-compact set")
    # beta * u/(u-1) = P + beta(1) * u/(u-1) with P = u*(beta - beta(1))/(u-1),
    # an exact division since u - 1 divides beta - beta(1)
    at_one = beta_poly.evaluate(1)
    poly = exact_divide((beta_poly - at_one).shift(1), U_MINUS_ONE.numerator)
    return VirtualClass(poly, at_one)


def free_quotient(a: VirtualClass, asserted_free: bool) -> IntPoly:
    """Ordinary virtual Poincare polynomial of the quotient of a compact set
    with a free involution.

    Freeness is a geometric fact the caller must assert; the symbolic
    necessary condition (no fixed tail) is still enforced.
    """
    if not asserted_free:
        raise AssertionMissing("free_quotient requires asserted_free=True")
    if a.fixed_tail != 0:
        raise NotFree(f"fixed tail is {a.fixed_tail}, the action cannot be free")
    return a.poly_part


def blowup_class(x: VirtualClass, c: VirtualClass, e: VirtualClass) -> VirtualClass:
    """Class of the blow-up of x along a centre with class c and exceptional
    divisor class e:  x - c + e."""
    return union_disjoint(difference(x, c), e)


# ---------------------------------------------------------------------------
# atoms: building blocks with known series

class Atom(NamedTuple):
    """A building block whose series is known in closed form.

    ``kind`` is one of point_trivial, swapped_pair, sphere, affine, custom;
    the remaining fields are only populated where they apply.  A custom
    atom's ``dim`` is kept as given and never read: its class is its value.
    """

    kind: str
    dim: int | None = None
    action: str | None = None
    value: RationalU | None = None
    fixed_poly: IntPoly | None = None

    @classmethod
    def point(cls) -> "Atom":
        return cls("point_trivial")

    @classmethod
    def pair(cls) -> "Atom":
        return cls("swapped_pair")

    @classmethod
    def sphere(cls, d: int, action: str) -> "Atom":
        if d < 1:
            raise InvalidAtom(f"sphere dimension must be >= 1, got {d}")
        if action not in SPHERE_ACTIONS:
            raise InvalidAtom(f"unknown sphere action {action!r}")
        return cls("sphere", dim=d, action=action)

    @classmethod
    def affine(cls, d: int) -> "Atom":
        if d < 0:
            raise InvalidAtom(f"affine dimension must be >= 0, got {d}")
        return cls("affine", dim=d)

    @classmethod
    def custom(cls, value: RationalU, dim: int, fixed_poly: IntPoly) -> "Atom":
        return cls("custom", dim=dim, value=value, fixed_poly=fixed_poly)


def atom_class(atom: Atom) -> VirtualClass:
    """The equivariant series of an atom.

    point -> u/(u-1); swapped pair -> 1; free d-sphere -> beta(RP^d) =
    1 + u + ... + u^d, since beta^G(X) = beta(X/G) for a free action;
    d-sphere with a fixed point (or trivial action) -> u^d + ... + u + 2u/(u-1);
    affine d-space -> u^(d+1)/(u-1); custom -> the given value.
    """
    if atom.kind == "point_trivial":
        return VirtualClass(IntPoly.zero(), 1)
    if atom.kind == "swapped_pair":
        return VirtualClass(IntPoly.one(), 0)
    if atom.kind == "sphere":
        d = atom.dim
        if atom.action == ACTION_FREE:
            return VirtualClass(IntPoly.geometric_sum(0, d), 0)
        # with a fixed point the groups do not depend on the action, and the
        # trivial action produces the same series
        return VirtualClass(IntPoly.geometric_sum(1, d), 2)
    if atom.kind == "affine":
        return VirtualClass(IntPoly.geometric_sum(1, atom.dim), 1)
    if atom.kind == "custom":
        with suppress(NormalFormError):
            cls = VirtualClass.from_value(atom.value)
            if cls.fixed_tail == atom.fixed_poly.evaluate(1):
                return cls
        raise InvalidAtom(f"custom value {atom.value} is not in normal form "
                          f"with fixed polynomial {atom.fixed_poly}")
    raise InvalidAtom(f"unknown atom kind {atom.kind!r}")


CURVE_ACTIONS = ("both_negated", "y_negated", "x_negated")


def curve_example(action: str) -> VirtualClass:
    """Series of the nodal quartic curve y^2 = x^2 - x^4 under the three
    sign involutions of the plane.

    Blowing up the node resolves the curve to a circle; the node pulls back
    to two points, fixed or swapped depending on the involution, so the class
    is circle - (two preimages) + (node).
    """
    s1_fixed = atom_class(Atom.sphere(1, ACTION_FIXED))
    s1_free = atom_class(Atom.sphere(1, ACTION_FREE))
    node = atom_class(Atom.point())
    if action == "both_negated":
        # both preimages fixed, involution on the circle has fixed points
        preimages = union_disjoint(node, node)
        resolved = s1_fixed
    elif action == "y_negated":
        # preimages swapped, involution on the circle still has fixed points
        preimages = atom_class(Atom.pair())
        resolved = s1_fixed
    elif action == "x_negated":
        # preimages swapped, involution on the circle is free
        preimages = atom_class(Atom.pair())
        resolved = s1_free
    else:
        raise InvalidAtom(f"unknown curve action {action!r}; "
                          f"expected one of {CURVE_ACTIONS}")
    return union_disjoint(difference(resolved, preimages), node)
