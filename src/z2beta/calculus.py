"""The Grothendieck-group calculus of Z/2Z-equivariant virtual Poincare series.

A class is a value, never a point set: the module manipulates images of
arc-symmetric sets under the equivariant series, in the normal form

    value = P(u) + c * u/(u-1)

where P has integer coefficients and the integer c >= 0 is the ordinary
virtual Poincare polynomial of the fixed point set evaluated at 1.   A class
stores only the pair (P, c) and derives the value from it, so every class is
in normal form by construction; only ``VirtualClass.from_value``, which
decomposes an arbitrary rational function, can fail to find one.

Only the group operations plus multiplication by affine factors are exposed.
A general ring product of two classes is deliberately absent: the series is
additive and multiplicative against affine factors only, and a blanket
product would silently produce wrong values (u/(u-1) squared is not the
class of a point times a point).
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import TAIL_SERIES, U_MINUS_ONE, IntPoly, RationalU
from .errors import (
    AssertionMissing,
    InvalidAtom,
    MissingDimHint,
    NegativeCoefficient,
    NormalFormError,
    NotFree,
    PoleAtPoint,
)

ACTION_FREE = "free"
ACTION_FIXED = "with_fixed_point"
ACTION_TRIVIAL = "trivial"
SPHERE_ACTIONS = (ACTION_FREE, ACTION_FIXED, ACTION_TRIVIAL)


class VirtualClass:
    """An equivariant virtual Poincare series in normal form.

    The state is the decomposition: ``poly_part`` P (an int is taken as a
    constant) and ``fixed_tail`` c; ``value`` is P + c*u/(u-1), derived on
    first use and kept.  ``dim_hint`` is an optional dimension claim used by
    ``check_degree``.  The normal form is unique, so equality and hashing
    compare (P, c) and ignore the advisory hint.
    """

    __slots__ = ("poly_part", "fixed_tail", "dim_hint", "_value")

    def __init__(self, poly_part: IntPoly, fixed_tail: int,
                 dim_hint: int | None = None):
        object.__setattr__(self, "poly_part", poly_part)
        object.__setattr__(self, "fixed_tail", fixed_tail)
        object.__setattr__(self, "dim_hint", dim_hint)
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
                f"fixed_tail={self.fixed_tail!r}, dim_hint={self.dim_hint!r})")

    @classmethod
    def from_value(cls, value: RationalU, dim_hint=None) -> "VirtualClass":
        """Decompose a rational function into normal form, or fail."""
        try:
            tail_value = (value * U_MINUS_ONE).eval_at(1)
        except PoleAtPoint as exc:
            raise NormalFormError(
                f"{value} has a pole of order > 1 at u = 1") from exc
        if tail_value.denominator != 1:
            raise NormalFormError(f"tail of {value} is not an integer")
        tail = int(tail_value)
        rest = value - tail * TAIL_SERIES
        if not rest.is_polynomial():
            raise NormalFormError(f"{value} minus its tail is not a polynomial")
        return cls(rest.numerator, tail, dim_hint)

    @classmethod
    def zero(cls) -> "VirtualClass":
        return cls(IntPoly.zero(), 0)

    def is_zero(self) -> bool:
        return self.poly_part.is_zero() and self.fixed_tail == 0

    def __str__(self):
        return str(self.value)


def _series(poly: IntPoly, tail: int) -> RationalU:
    return RationalU(poly) + tail * TAIL_SERIES


def _resolve_hint(poly: IntPoly, tail: int, candidate: int | None) -> int | None:
    if candidate is not None and _series(poly, tail).degree == candidate:
        return candidate
    return None


def _combine(a: VirtualClass, b: VirtualClass, sign: int, hint) -> VirtualClass:
    poly = a.poly_part + sign * b.poly_part
    tail = a.fixed_tail + sign * b.fixed_tail
    return VirtualClass(poly, tail, _resolve_hint(poly, tail, hint))


def union_disjoint(a: VirtualClass, b: VirtualClass) -> VirtualClass:
    """Class of a disjoint union: the sum, dimension the larger of the two."""
    hint = None
    if a.dim_hint is not None and b.dim_hint is not None:
        hint = max(a.dim_hint, b.dim_hint)
    return _combine(a, b, 1, hint)


def difference(a: VirtualClass, b: VirtualClass) -> VirtualClass:
    """Class of a complement: the difference, keeping the ambient dimension."""
    return _combine(a, b, -1, a.dim_hint)


def affine_product(a: VirtualClass, d: int) -> VirtualClass:
    """Class of the product with a d-dimensional affine space (any action).

    Multiplies the value by u^d; the tail is unchanged because
    u^d * u/(u-1) = (u^d + ... + u) + u/(u-1).
    """
    if d < 0:
        raise ValueError("affine dimension must be non-negative")
    if d == 0:
        return a
    poly = a.poly_part.shift(d) + a.fixed_tail * IntPoly.geometric_sum(1, d)
    hint = a.dim_hint + d if a.dim_hint is not None else None
    return VirtualClass(poly, a.fixed_tail,
                        _resolve_hint(poly, a.fixed_tail, hint))


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
    tail = int(beta_poly.evaluate(1))
    degree = None if beta_poly.is_zero() else int(beta_poly.degree)
    # P = u * (beta - beta(1)) / (u - 1): its u^k coefficient is the sum of
    # the coefficients of u^k, u^(k+1), ... in beta
    poly, running = {}, 0
    for k in range(degree or 0, 0, -1):
        running += beta_poly[k]
        poly[k] = running
    return VirtualClass(IntPoly(poly), tail, dim_hint=degree)


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


def check_degree(a: VirtualClass) -> bool:
    """True when the degree of the series equals the claimed dimension."""
    if a.dim_hint is None:
        raise MissingDimHint("class carries no dimension hint")
    return a.value.degree == a.dim_hint


# ---------------------------------------------------------------------------
# atoms: building blocks with known series

class Atom(NamedTuple):
    """A building block whose series is known in closed form.

    ``kind`` is one of point_trivial, swapped_pair, sphere, affine, custom;
    the remaining fields are only populated where they apply.
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

    point -> u/(u-1); swapped pair -> 1; free d-sphere -> 1 + u^d;
    d-sphere with a fixed point (or trivial action) -> u^d + ... + u + 2u/(u-1);
    affine d-space -> u^(d+1)/(u-1); custom -> the given value.
    """
    if atom.kind == "point_trivial":
        return VirtualClass(IntPoly.zero(), 1, dim_hint=0)
    if atom.kind == "swapped_pair":
        return VirtualClass(IntPoly.one(), 0, dim_hint=0)
    if atom.kind == "sphere":
        d = atom.dim
        if atom.action == ACTION_FREE:
            return VirtualClass(IntPoly({0: 1, d: 1}), 0, dim_hint=d)
        # with a fixed point the groups do not depend on the action, and the
        # trivial action produces the same series
        return VirtualClass(IntPoly.geometric_sum(1, d), 2, dim_hint=d)
    if atom.kind == "affine":
        return VirtualClass(IntPoly.geometric_sum(1, atom.dim), 1,
                            dim_hint=atom.dim)
    if atom.kind == "custom":
        tail = int(atom.fixed_poly.evaluate(1))
        rest = atom.value - tail * TAIL_SERIES
        if not rest.is_polynomial():
            raise InvalidAtom(
                f"custom value {atom.value} is not in normal form with fixed "
                f"polynomial {atom.fixed_poly}")
        return VirtualClass(rest.numerator, tail, atom.dim)
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
