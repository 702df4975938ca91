"""Definition-level arc-space classes for one-variable monomial germs.

For f(x) = x^N the truncated arcs with prescribed leading behaviour form a
triangular variety: writing gamma(t) = a_1 t + ... + a_n t^n, the condition
f(gamma(t)) = (+-)t^n + ... forces a_1 = ... = a_{m-1} = 0 and a_m^N = +-1
with m = n/N, and leaves a_{m+1}, ..., a_n free.  The involution gamma(t)
|-> gamma(-t) (applied when n is even) multiplies a_j by (-1)^j, so the
class of the arc space is the class of the real root set of a_m^N = +-1,
with the induced sign action, times an affine factor.

This module computes those classes straight from the definition and
re-derives the stratification by brute-force polynomial expansion, so it
can serve as an independent oracle against the resolution-data engine:
symbolic_constraint_check reports the conditions it finds, and verify
compares them with m = n/N.  The scope is deliberately one monomial
variable: that is exactly the family where every claim is checkable
symbolically.
"""

from __future__ import annotations

from operator import index
from typing import NamedTuple

from .algebra import U_MINUS_ONE, IntPoly, RationalU
from .calculus import Atom, VirtualClass, affine_product, atom_class
from .errors import ConstraintMismatch
from .zeta import dl_zeta_naive, dl_zeta_signed, expand_zeta, monomial_resolution


class MonomialGerm(NamedTuple("MonomialGerm", [("exponent", int)])):
    """The germ x |-> x^N at the origin of the real line."""

    __slots__ = ()

    def __new__(cls, exponent: int):
        exponent = index(exponent)  # TypeError for 2.0, "2", ...
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
    return VirtualClass(IntPoly.zero(), 2)


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
    return U_MINUS_ONE.shift(n - m)


def oracle_zeta(germ: MonomialGerm, sign: str, order: int) -> list:
    """Signed zeta coefficients from the definition: class times u^-n.

    By the affine law the order-n class for N | n is the base class times
    u^(n-m), m = n/N, so ``arc_class(germ, n, sign).value.shift(-n)`` is
    the base value times u^-m: one shift, whose cost is the number of
    terms, not n.
    """
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    N = germ.exponent
    return [(n, _base_class(germ, n // N, sign).value.shift(-(n // N))
             if n % N == 0 else RationalU.zero())
            for n in range(1, order + 1)]


def oracle_zeta_naive(germ: MonomialGerm, order: int) -> list:
    """Naive zeta coefficients from the definition (trivial-group classes)."""
    return [(n, arc_class_plain(germ, n).shift(-n))
            for n in range(1, order + 1)]


# ---------------------------------------------------------------------------
# brute-force verification of the triangular stratification
#
# Small sparse polynomials in the arc coefficients a_1, ..., a_n map packed
# monomials to integer coefficients.  The monomial a_1^p_1 * ... * a_n^p_n
# is the integer sum of p_j * B^j in base B = N + 1: every monomial of
# (a_1 t + ... + a_n t^n)^k with k <= N has total degree k, so no power p_j
# exceeds N, no base-B digit carries, and a product of two monomials is the
# sum of their integers.  Digit 0 is always zero, as there is no a_0.  This
# is the independent route: nothing below knows about the m = n/N shortcut
# it is checking.

def _germ_coefficients(exponent: int, n: int):
    """(B, coefficients of t^0..t^n of (a_1 t + ... + a_n t^n)^exponent),
    each coefficient a polynomial in the a_j over monomials packed in base
    B = exponent + 1."""
    base = exponent + 1
    result = [{} for _ in range(n + 1)]
    result[0] = {0: 1}
    for _ in range(exponent):
        nxt = [{} for _ in range(n + 1)]
        for d1, p1 in enumerate(result):
            for d2 in range(1, n + 1 - d1):
                # times a_d2 t^d2: every coefficient is positive, none cancels
                target, a_d2 = nxt[d1 + d2], base ** d2
                for m, c in p1.items():
                    target[m + a_d2] = target.get(m + a_d2, 0) + c
        result = nxt
    return base, result


def _drop_vars(poly, below: int, base: int):
    """Substitute a_j = 0 for every j < below: keep the monomials whose
    digits below position ``below`` are all zero."""
    unit = base ** below
    return {m: c for m, c in poly.items() if m % unit == 0}


def _sign_twisted(poly, base: int):
    """Apply a_j |-> (-1)^j a_j."""
    out = {}
    for m, c in poly.items():
        parity, j, digits = 0, 0, m
        while digits:
            digits, p = divmod(digits, base)
            parity += j * p
            j += 1
        out[m] = c if parity % 2 == 0 else -c
    return out


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
    """Expand f(gamma(t)) with indeterminate coefficients, check that the
    order-n conditions form a triangular system, and report them.

    One pass over t^1..t^n, with the next pivot a_j^N at t^(jN): below it
    the t^k coefficient vanishes once a_1 = ... = a_(j-1) = 0; at it it
    reduces to exactly a_j^N, which forces a_j = 0 below t^n and is the
    root equation at t^n.  Equivariance: a_j -> (-1)^j a_j, the action of
    t -> -t, multiplies the t^k coefficient by (-1)^k.  Raises
    ConstraintMismatch when the expansion breaks this (which would be a
    bug); comparing the report with the shortcut m = n/N is left to verify.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n > 12:
        raise ValueError("constraint check is limited to n <= 12")
    N = germ.exponent
    base, coeffs = _germ_coefficients(N, n)

    conditions = []
    j = 1  # index of the next pivot; a_1, ..., a_(j-1) are forced to vanish
    for k in range(1, n + 1):
        coeff = coeffs[k]
        if _sign_twisted(coeff, base) != {m: (-1) ** k * c
                                          for m, c in coeff.items()}:
            raise ConstraintMismatch(
                f"t^{k} coefficient is not equivariant under t -> -t")
        reduced = _drop_vars(coeff, j, base)
        if k < j * N:
            if reduced:
                raise ConstraintMismatch(
                    f"t^{k} condition does not vanish modulo "
                    f"a_1 = ... = a_{j - 1} = 0")
        elif reduced != {N * base ** j: 1}:
            raise ConstraintMismatch(
                f"t^{k} condition is not a_{j}^{N} after reduction")
        elif k < n:
            conditions.append(f"a{j} = 0")
            j += 1
    base_index = j if n == j * N else None
    conditions.append("0 = +-1 (empty)" if base_index is None
                      else f"a{j}^{N} = +-1")
    return ConstraintReport(N, n, tuple(range(1, j)), base_index,
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

    def __str__(self):
        return (f"T^{self.n} [{self.kind}] oracle: {self.oracle} | "
                f"formula: {self.formula} | {self.status}")


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
