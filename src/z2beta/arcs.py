"""Definition-level arc-space classes for one-variable monomial germs.

For f(x) = x^N the truncated arcs with prescribed leading behaviour form a
triangular variety: writing gamma(t) = a_1 t + ... + a_n t^n, the condition
f(gamma(t)) = (+-)t^n + ... forces a_1 = ... = a_{m-1} = 0 and a_m^N = +-1
with m = n/N, and leaves a_{m+1}, ..., a_n free.  The involution gamma(t)
|-> gamma(-t) (applied when n is even) multiplies a_j by (-1)^j, so the
class of the arc space is the class of the real root set of a_m^N = +-1,
with the induced sign action, times an affine factor.

This module computes those classes straight from the definition and checks
the stratification itself by brute-force polynomial expansion, so it can
serve as an independent oracle against the resolution-data engine.  The
scope is deliberately one monomial variable: that is exactly the family
where every claim is checkable symbolically.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import U_MINUS_ONE, IntPoly, RationalU
from .calculus import Atom, VirtualClass, affine_product, atom_class
from .errors import ConstraintMismatch
from .zeta import dl_zeta_naive, dl_zeta_signed, expand_zeta, monomial_resolution


class MonomialGerm(NamedTuple("MonomialGerm", [("exponent", int)])):
    """The germ x |-> x^N at the origin of the real line."""

    __slots__ = ()

    def __new__(cls, exponent: int):
        if exponent < 1:
            raise ValueError("the exponent must be a positive integer")
        return super().__new__(cls, exponent)


def _base_class(germ: MonomialGerm, m: int, sign: str) -> VirtualClass:
    """Class of {a : a^N = sign 1} with the action a |-> (-1)^m a.

    For odd N there is one real root; the action maps the solution set to
    itself, and a singleton is always fixed.  For even N the plus side has
    the two roots +-1 (swapped when m is odd, both fixed when m is even)
    and the minus side is empty.
    """
    N = germ.exponent
    if N % 2 == 1:
        return atom_class(Atom.point())
    if sign == "-":
        return VirtualClass.zero()
    if m % 2 == 1:
        return atom_class(Atom.pair())
    return VirtualClass(IntPoly.zero(), 2, dim_hint=0)


def arc_class(germ: MonomialGerm, n: int, sign: str) -> VirtualClass:
    """Equivariant class of the order-n arcs with leading coefficient sign 1."""
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n % germ.exponent != 0:
        return VirtualClass.zero()
    m = n // germ.exponent
    return affine_product(_base_class(germ, m, sign), n - m)


def arc_class_plain(germ: MonomialGerm, n: int) -> RationalU:
    """Ordinary (non-equivariant) class of the order-n arcs with any nonzero
    leading coefficient: the root variable runs over the punctured line."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n % germ.exponent != 0:
        return RationalU.zero()
    m = n // germ.exponent
    return U_MINUS_ONE * RationalU(IntPoly.monomial(n - m))


def oracle_zeta(germ: MonomialGerm, sign: str, order: int) -> list:
    """Signed zeta coefficients from the definition: class times u^-n."""
    return [(n, arc_class(germ, n, sign).value * RationalU(1, IntPoly.monomial(n)))
            for n in range(1, order + 1)]


def oracle_zeta_naive(germ: MonomialGerm, order: int) -> list:
    """Naive zeta coefficients from the definition (trivial-group classes)."""
    return [(n, arc_class_plain(germ, n) * RationalU(1, IntPoly.monomial(n)))
            for n in range(1, order + 1)]


# ---------------------------------------------------------------------------
# brute-force verification of the triangular stratification
#
# Small sparse polynomials in the arc coefficients: a monomial is a sorted
# tuple of (variable index, power) pairs and a polynomial maps monomials to
# integer coefficients.  This is the independent route: nothing below knows
# about the m = n/N shortcut it is checking.

def _mono_mul(m1, m2):
    powers = dict(m1)
    for var, p in m2:
        powers[var] = powers.get(var, 0) + p
    return tuple(sorted(powers.items()))


def _poly_mul(p1, p2):
    out = {}
    for m1, c1 in p1.items():
        for m2, c2 in p2.items():
            m = _mono_mul(m1, m2)
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _germ_coefficients(exponent: int, n: int):
    """Coefficients of t^0..t^n of (a_1 t + ... + a_n t^n)^exponent, each a
    polynomial in the a_j."""
    base = [{} for _ in range(n + 1)]
    for j in range(1, n + 1):
        base[j] = {((j, 1),): 1}
    result = [{} for _ in range(n + 1)]
    result[0] = {(): 1}
    for _ in range(exponent):
        nxt = [{} for _ in range(n + 1)]
        for d1, p1 in enumerate(result):
            if not p1:
                continue
            for d2 in range(1, n + 1 - d1):
                if not base[d2]:
                    continue
                product = _poly_mul(p1, base[d2])
                for m, c in product.items():
                    nxt[d1 + d2][m] = nxt[d1 + d2].get(m, 0) + c
        result = nxt
    return result


def _drop_vars(poly, below: int):
    """Substitute a_j = 0 for every j < below."""
    return {m: c for m, c in poly.items()
            if all(var >= below for var, _ in m)}


def _sign_twisted(poly):
    """Apply a_j |-> (-1)^j a_j."""
    out = {}
    for m, c in poly.items():
        parity = sum(var * p for var, p in m)
        out[m] = c if parity % 2 == 0 else -c
    return out


def _negate(poly):
    return {m: -c for m, c in poly.items()}


class ConstraintReport(NamedTuple):
    """Result of re-deriving the arc conditions by expansion.

    ``forced_zero`` lists the coefficient indices the vanishing conditions
    eliminate, ``base_index`` is the index carrying the root equation (None
    when the conditions are unsatisfiable and the arc set is empty)."""

    exponent: int
    order: int
    forced_zero: tuple
    base_index: int | None
    conditions: tuple


def symbolic_constraint_check(germ: MonomialGerm, n: int) -> ConstraintReport:
    """Expand f(gamma(t)) with indeterminate coefficients and verify that the
    order-n conditions reduce to the triangular system used by arc_class.

    Also verifies equivariance: substituting t -> -t multiplies the t^k
    coefficient by (-1)^k, i.e. the coefficient action is a_j -> (-1)^j a_j.
    Raises ConstraintMismatch on any deviation (which would be a bug).
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n > 12:
        raise ValueError("constraint check is limited to n <= 12")
    N = germ.exponent
    coeffs = _germ_coefficients(N, n)

    for k in range(n + 1):
        expected = coeffs[k] if k % 2 == 0 else _negate(coeffs[k])
        if _sign_twisted(coeffs[k]) != expected:
            raise ConstraintMismatch(
                f"t^{k} coefficient is not equivariant under t -> -t")

    conditions = []
    first_free = 1  # smallest index not yet forced to vanish
    for k in range(1, n):
        reduced = _drop_vars(coeffs[k], first_free)
        if k < first_free * N:
            if reduced:
                raise ConstraintMismatch(
                    f"t^{k} condition does not vanish modulo "
                    f"a_1 = ... = a_{first_free - 1} = 0")
        elif k == first_free * N:
            if reduced != {((first_free, N),): 1}:
                raise ConstraintMismatch(
                    f"t^{k} condition is not a_{first_free}^{N} after reduction")
            conditions.append(f"a{first_free} = 0")
            first_free += 1
        else:
            raise ConstraintMismatch(
                f"unexpected gap at t^{k}: next pivot is t^{first_free * N}")

    final = _drop_vars(coeffs[n], first_free)
    if n == first_free * N:
        if final != {((first_free, N),): 1}:
            raise ConstraintMismatch(
                f"t^{n} condition is not a_{first_free}^{N} after reduction")
        conditions.append(f"a{first_free}^{N} = +-1")
        base_index = first_free
        if base_index != n // N or n % N != 0:
            raise ConstraintMismatch(
                f"base index {base_index} disagrees with n/N = {n}/{N}")
    else:
        if final:
            raise ConstraintMismatch(
                f"t^{n} condition does not vanish although {N} does not "
                f"divide {n}")
        conditions.append("0 = +-1 (empty)")
        base_index = None
        if n % N == 0:
            raise ConstraintMismatch(
                f"conditions are unsatisfiable although {N} divides {n}")
    return ConstraintReport(N, n, tuple(range(1, first_free)), base_index,
                            tuple(conditions))


# ---------------------------------------------------------------------------
# comparison against the resolution-data engine

MATCH = "match"
KNOWN_DIVERGENCE = "known_divergence"
MISMATCH = "mismatch"


class CoefficientComparison(NamedTuple):
    n: int
    kind: str  # "+", "-" or "naive"
    oracle: RationalU
    formula: RationalU
    status: str


class DLComparisonReport(NamedTuple):
    """Per-coefficient comparison of the definition-level zeta functions with
    the resolution-data ones, for x^N up to a given order.

    Coefficients where both the exponent and n/N are even are expected to
    disagree: the arc-space action fixes the two roots there while the
    covering recipe swaps them.  Those rows are flagged, not failed."""

    exponent: int
    order: int
    entries: tuple

    @property
    def mismatches(self):
        return tuple(e for e in self.entries if e.status == MISMATCH)

    @property
    def divergences(self):
        return tuple(e for e in self.entries if e.status == KNOWN_DIVERGENCE)

    @property
    def all_consistent(self) -> bool:
        return not self.mismatches


def compare_with_dl(germ: MonomialGerm, order: int) -> DLComparisonReport:
    """Expand both routes to the given order and record agreement."""
    N = germ.exponent
    resolution = monomial_resolution(N)
    routes = (
        ("+", oracle_zeta(germ, "+", order), dl_zeta_signed(resolution, "+")),
        ("-", oracle_zeta(germ, "-", order), dl_zeta_signed(resolution, "-")),
        ("naive", oracle_zeta_naive(germ, order), dl_zeta_naive(resolution)),
    )
    entries = []
    for kind, oracle_side, form in routes:
        for (n, oracle), (_, formula) in zip(oracle_side,
                                             expand_zeta(form, order)):
            status = MATCH
            if oracle != formula:
                even_case = (kind != "naive" and N % 2 == 0 and n % N == 0
                             and (n // N) % 2 == 0)
                status = KNOWN_DIVERGENCE if even_case else MISMATCH
            entries.append(CoefficientComparison(n, kind, oracle, formula,
                                                 status))
    return DLComparisonReport(N, order, tuple(entries))
