"""Zeta functions of Nash germs from normal-crossing resolution data.

The closed forms are finite sums over strata of the resolution: each stratum
contributes a coefficient times a product of geometric factors
u^-nu * T^N / (1 - u^-nu * T^N), one per divisor through the stratum.  For
the signed zeta functions the coefficient is (u-1)^(|I|-1) times the class
of the two-sheeted covering of the stratum; for the naive one it is
(u-1)^|I| times the ordinary class of the stratum itself.

One routine, ``_t_series``, turns a closed form into its T-coefficients
from T^0 on, and both ``expand_zeta`` and semantic equality read it.  Only
each term's coefficient p/q is a true fraction: its series starts from p at
T^0 as {T-degree: {u-exponent: int}}, each geometric factor (N, nu) is one
pass of the recurrence out_n = u^-nu (a_(n-N) + out_(n-N)), the integer
sums are taken per distinct q, and one RationalU is built per (q, T-degree).

Covering classes are *inputs*: carving them out of charts would need real
semialgebraic geometry, and the worked examples hand them over directly.
The engine applies the stratum formula literally to the covering classes it
reads; the gcd of the multiplicities only validates a stored m.  The
arc-space module computes the same coefficients straight from the definition
so the two routes can be compared instead of silently reconciled (they are
known to disagree at even multiplicities with even quotient order).
"""

from __future__ import annotations

import json
from collections import Counter
from math import gcd, lcm
from pathlib import Path
from typing import NamedTuple

from .algebra import MAX_COEFFICIENT_DIGITS, U_MINUS_ONE, IntPoly, RationalU
from .calculus import VirtualClass
from .errors import BadGcd, MalformedInput, UnknownDivisor


class Divisor(NamedTuple):
    """An exceptional component: N is the multiplicity of the pulled back
    germ along it, nu is 1 + the multiplicity of the Jacobian."""

    id: str
    N: int
    nu: int


class Stratum(NamedTuple):
    """A locally closed piece of the zero locus, indexed by the set of
    divisors through it, with its covering classes for both signs."""

    divisors: frozenset
    base_class: IntPoly
    covering_plus: VirtualClass
    covering_minus: VirtualClass
    m: int

    def covering(self, sign: str) -> VirtualClass:
        if sign == "+":
            return self.covering_plus
        if sign == "-":
            return self.covering_minus
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")


class ResolutionData(NamedTuple):
    ambient_dim: int
    divisors: tuple
    strata: tuple


#: The least integer with more than MAX_COEFFICIENT_DIGITS digits.
_DIGIT_BOUND = 10 ** MAX_COEFFICIENT_DIGITS


def _check_digits(value: int, field: str) -> None:
    # JSON integers get the digit bound of polynomial text, so no merged or
    # printed value reaches Python's 4300-digit limit on integer strings
    if abs(value) >= _DIGIT_BOUND:
        raise MalformedInput(
            f"{field} longer than {MAX_COEFFICIENT_DIGITS} digits")


def _parse_virtual_class(data, where: str) -> VirtualClass:
    if not isinstance(data, dict) or "poly" not in data or "tail" not in data:
        raise MalformedInput(f"{where}: expected an object with poly and tail")
    try:
        poly = IntPoly.parse(str(data["poly"]))
    except ValueError as exc:
        raise MalformedInput(f"{where}: {exc}") from exc
    tail = data["tail"]
    if type(tail) is not int:
        raise MalformedInput(f"{where}: tail must be an integer")
    _check_digits(tail, f"{where}: tail")
    return VirtualClass(poly, tail)


def load_resolution(source) -> ResolutionData:
    """Read and validate resolution data.

    ``source`` is a mapping, or a path (``str`` or ``Path``) to a JSON
    file.  The gcd of multiplicities is recomputed per stratum and checked
    against the stored value when one is present.
    """
    data = source
    if isinstance(source, (str, Path)):
        try:
            data = json.loads(Path(source).read_text(encoding="utf-8"))
        except (ValueError, RecursionError) as exc:  # or nested too deeply
            raise MalformedInput(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise MalformedInput("resolution data must be a JSON object")

    ambient = data.get("ambient_dim")
    if type(ambient) is not int or ambient < 1:
        raise MalformedInput("ambient_dim must be a positive integer")
    _check_digits(ambient, "ambient_dim")

    divisor_entries = data.get("divisors", [])
    stratum_entries = data.get("strata", [])
    if not isinstance(divisor_entries, list) \
            or not isinstance(stratum_entries, list):
        raise MalformedInput("divisors and strata must be lists")

    by_id = {}
    for entry in divisor_entries:
        try:
            div = Divisor(str(entry["id"]), entry["N"], entry["nu"])
        except (KeyError, TypeError) as exc:
            raise MalformedInput(f"bad divisor entry {entry!r}") from exc
        # JSON integers only: a bool, float or string is refused, not cast
        if type(div.N) is not int or type(div.nu) is not int:
            raise MalformedInput(f"divisor {div.id!r}: N and nu must be integers")
        if div.N < 1 or div.nu < 1:
            raise MalformedInput(f"divisor {div.id!r}: N and nu must be >= 1")
        _check_digits(div.N, f"divisor {div.id!r}: N")
        _check_digits(div.nu, f"divisor {div.id!r}: nu")
        if div.id in by_id:
            raise MalformedInput(f"duplicate divisor id {div.id!r}")
        by_id[div.id] = div

    strata = []
    seen_sets = set()
    for entry in stratum_entries:
        if not isinstance(entry, dict) or "I" not in entry:
            raise MalformedInput(f"stratum without divisor set: {entry!r}")
        if not isinstance(entry["I"], list):
            raise MalformedInput(f"stratum divisor set must be a list: {entry!r}")
        ids = frozenset(str(i) for i in entry["I"])
        if not ids:
            raise MalformedInput("stratum with empty divisor set")
        if len(ids) < len(entry["I"]):  # a set would merge the repeats
            raise MalformedInput(
                f"stratum {entry['I']!r} repeats a divisor id")
        for i in ids:
            if i not in by_id:
                raise UnknownDivisor(f"stratum references unknown divisor {i!r}")
        if ids in seen_sets:
            raise MalformedInput(f"duplicate stratum {sorted(ids)}")
        seen_sets.add(ids)
        true_m = 0
        for i in ids:
            true_m = gcd(true_m, by_id[i].N)
        if "m" in entry:
            if type(entry["m"]) is not int:
                raise MalformedInput(f"stratum {sorted(ids)}: m must be an integer")
            _check_digits(entry["m"], f"stratum {sorted(ids)}: m")
            if entry["m"] != true_m:
                raise BadGcd(f"stratum {sorted(ids)}: stored m = {entry['m']} "
                             f"but gcd of multiplicities is {true_m}")
        try:
            base = IntPoly.parse(str(entry.get("base", "0")))
        except ValueError as exc:
            raise MalformedInput(f"stratum {sorted(ids)}: {exc}") from exc
        cov_plus = _parse_virtual_class(entry.get("cov_plus", {"poly": "0", "tail": 0}),
                                        f"stratum {sorted(ids)} cov_plus")
        cov_minus = _parse_virtual_class(entry.get("cov_minus", {"poly": "0", "tail": 0}),
                                         f"stratum {sorted(ids)} cov_minus")
        strata.append(Stratum(ids, base, cov_plus, cov_minus, true_m))
    return ResolutionData(ambient, tuple(by_id.values()), tuple(strata))


# ---------------------------------------------------------------------------
# closed forms

class ZetaTerm(NamedTuple):
    """coefficient * product of u^-nu T^N / (1 - u^-nu T^N) factors; the
    (coefficient, factors) pair that ZetaClosedForm.from_terms takes."""

    coefficient: RationalU
    factors: tuple  # sorted (N, nu) pairs, repetitions allowed


class ZetaClosedForm(NamedTuple):
    """A finite sum of geometric terms, canonically ordered so equality of
    the closed forms is structural."""

    terms: tuple

    @classmethod
    def from_terms(cls, terms) -> "ZetaClosedForm":
        merged = {}
        for coefficient, factors in terms:
            key = tuple(sorted(factors))
            if key in merged:
                coefficient = merged[key] + coefficient
            elif not isinstance(coefficient, RationalU):  # or TypeError
                coefficient = RationalU.zero() + coefficient
            merged[key] = coefficient
        cleaned = [ZetaTerm(coef, key) for key, coef in merged.items()
                   if not coef.is_zero()]
        cleaned.sort(key=lambda t: t.factors)
        return cls(tuple(cleaned))

    @classmethod
    def zero(cls) -> "ZetaClosedForm":
        return cls(())

    def is_zero(self) -> bool:
        return not self.terms

    def scaled(self, factor: RationalU) -> "ZetaClosedForm":
        return ZetaClosedForm.from_terms(
            (term.coefficient * factor, term.factors) for term in self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        rendered = []
        for term in self.terms:
            coef = str(term.coefficient)
            if term.coefficient.is_polynomial() \
                    and term.coefficient.numerator.term_count() > 1:
                coef = f"({coef})"
            factors = " * ".join(f"[{n},{nu}]" for n, nu in term.factors)
            rendered.append(f"{coef} * {factors}" if factors else coef)
        return " + ".join(rendered)


def dl_zeta_signed(resolution: ResolutionData, sign: str) -> ZetaClosedForm:
    """Signed zeta function: per stratum, (u-1)^(|I|-1) times the covering
    class, times the geometric factor of every divisor through the stratum."""
    return _over_strata(resolution, lambda stratum: _times_u_minus_one(
        stratum.covering(sign).value, len(stratum.divisors) - 1))


def dl_zeta_naive(resolution: ResolutionData) -> ZetaClosedForm:
    """Naive zeta function: per stratum, (u-1)^|I| times the ordinary class
    of the stratum, same geometric factors."""
    return _over_strata(resolution, lambda stratum: _times_u_minus_one(
        RationalU(stratum.base_class), len(stratum.divisors)))


def _times_u_minus_one(value: RationalU, power: int) -> RationalU:
    """value * (u-1)^power, with no product for power 0 (one divisor)."""
    return value * U_MINUS_ONE ** power if power else value


def _over_strata(resolution: ResolutionData, coefficient) -> ZetaClosedForm:
    """Sum over strata of coefficient(stratum) times the geometric factor
    (N, nu) of every divisor through the stratum."""
    factor = {d.id: (d.N, d.nu) for d in resolution.divisors}
    return ZetaClosedForm.from_terms(
        (coefficient(stratum), tuple(factor[i] for i in stratum.divisors))
        for stratum in resolution.strata)


# ---------------------------------------------------------------------------
# expansion and equality

def default_expansion_order(resolution: ResolutionData) -> int:
    """Four repetitions of every geometric factor, at most 64."""
    return min(4 * lcm(*(d.N for d in resolution.divisors)), 64)


def expand_zeta(form: ZetaClosedForm, order: int) -> list:
    """Coefficients of T^1 .. T^order, exactly: ``_t_series`` past T^0."""
    if order < 1:
        raise ValueError("order must be positive")
    return _t_series(form, order)[1:]


def _t_series(form: ZetaClosedForm, order: int) -> list:
    """(n, coefficient of T^n) for n = 0 .. order: each term's integer
    series starts from its numerator p at T^0 and ``_geometric`` applies its
    factors; the series are summed per distinct denominator q, and one
    RationalU is built per (q, T-degree) and added across the q's."""
    by_denominator = {}
    for term in form.terms:
        series = {0: term.coefficient.numerator.coefficients}
        for N, nu in term.factors:
            series = _geometric(series, N, nu, order)
        sums = by_denominator.setdefault(term.coefficient.denominator, {})
        for n, laurent in series.items():
            acc = sums.setdefault(n, {})
            for e, c in laurent.items():
                acc[e] = acc.get(e, 0) + c
    total = {}
    for q, sums in by_denominator.items():
        for n, acc in sums.items():
            acc = {e: c for e, c in acc.items() if c}
            if acc:
                k = max(0, -min(acc))
                value = RationalU(IntPoly._trusted(
                    {e + k: c for e, c in acc.items()}), q.shift(k))
                total[n] = total[n] + value if n in total else value
    return [(n, total[n] if n in total else RationalU.zero())
            for n in range(order + 1)]


def _geometric(a: dict, N: int, nu: int, order: int) -> dict:
    """a * u^-nu T^N / (1 - u^-nu T^N) through T^order, for a T-series
    {T-degree: {u-exponent: int}}.  The product is u^-nu T^N (a + out), so
    out_n = u^-nu (a_(n-N) + out_(n-N)) from n = N up."""
    out = {}
    for n in range(N, order + 1):
        acc = {}
        for part in (a.get(n - N, {}), out.get(n - N, {})):
            for e, c in part.items():
                acc[e - nu] = acc.get(e - nu, 0) + c
        if acc:
            out[n] = acc
    return out


def zeta_equal(a: ZetaClosedForm, b: ZetaClosedForm) -> bool:
    """Semantic equality as rational functions of T, read off expansions.

    Let D = prod (1 - u^-nu T^N)^mult over every distinct factor, mult its
    largest multiplicity in a term of either side, and K = sum N * mult.
    Each term times D is a T-polynomial of degree <= K, so (a - b) * D is
    one too.  D has constant term 1, so (a - b) * D is zero exactly when
    a - b vanishes through T^K: the two ``_t_series`` windows T^0 .. T^K
    agree.
    """
    multiplicities = {}
    for form in (a, b):
        for term in form.terms:
            for f, mult in Counter(term.factors).items():
                multiplicities[f] = max(multiplicities.get(f, 0), mult)
    order = sum(N * mult for (N, _), mult in multiplicities.items())
    return _t_series(a, order) == _t_series(b, order)


# ---------------------------------------------------------------------------
# the sign identity for nonnegative germs

class SignIdentityReport(NamedTuple):
    """Outcome of checking naive = (u-1) * signed-plus."""

    structural_match: bool
    semantic_match: bool
    expansion_order: int
    first_mismatch: tuple | None = None

    @property
    def passed(self) -> bool:
        return self.structural_match and self.semantic_match


def check_sign_identity(resolution: ResolutionData,
                        order: int | None = None) -> SignIdentityReport:
    """For a germ the caller asserts to be nonnegative, verify that the
    naive zeta function equals (u-1) times the positive signed one, both
    term-by-term and on expansions to ``order`` (default
    ``default_expansion_order``).  Closed forms are canonical, so when the
    two sides match term by term their expansions are equal too and are not
    computed; the report is the same either way.  Otherwise both sides are
    expanded and the first T-degree where they differ is reported.

    Precondition: the germ is nonnegative, equivalently (by curve
    selection: no arc has a negative leading coefficient) its minus zeta
    dl_zeta_signed(resolution, "-") is zero.  The plus covering is then a
    free double cover (for x^2, x^4 and x^2+y^4 a swapped pair, class 1),
    which is what makes the identity hold.

    Outside the precondition the report is a refusal, not an error.  For
    f = x^N with N odd, at T^N (n = N, m = 1) the plus arcs are
    {a_1 = 1} x R^(N-1).  The root set of a^N = 1 is a single point, which
    the involution fixes, so its class is u/(u-1) and the left side is
    (u-1) * u/(u-1) * u^(N-1) * u^-N = 1.  The naive side lets a_1 range
    over R^*, giving (u-1) * u^(N-1) * u^-N = (u-1)/u.  The first mismatch
    is therefore (N, 1, (u-1)/u).
    """
    lhs = dl_zeta_signed(resolution, "+").scaled(U_MINUS_ONE)
    rhs = dl_zeta_naive(resolution)
    structural = lhs == rhs
    order = default_expansion_order(resolution) if order is None else order
    if order < 1:
        raise ValueError("order must be positive")
    first_mismatch = None
    if not structural:  # equal closed forms have equal expansions
        for (n, left), (_, right) in zip(expand_zeta(lhs, order),
                                         expand_zeta(rhs, order)):
            if left != right:
                first_mismatch = (n, left, right)
                break
    return SignIdentityReport(structural, first_mismatch is None, order,
                              first_mismatch)


# ---------------------------------------------------------------------------
# canonical datasets

def x2_plus_y4_resolution() -> ResolutionData:
    """Resolution data of the plane germ x^2 + y^4.

    Two blowings-up give two exceptional components with multiplicities
    (N, nu) = (2, 2) and (4, 3).  All gcds are even and the germ is
    nonnegative, so every minus covering is empty.  Each exceptional
    component is a projective line, a circle, and meets the other in one
    point, so both one-divisor strata are lines (base class u).  Over a
    line the double cover is two copies of it exchanged by the involution
    (class u); the intersection point lifts to a swapped pair (class 1).
    """
    return load_resolution({
        "ambient_dim": 2,
        "divisors": [{"id": "E1", "N": 2, "nu": 2},
                     {"id": "E2", "N": 4, "nu": 3}],
        "strata": [
            {"I": ["E1"], "base": "u",
             "cov_plus": {"poly": "u", "tail": 0},
             "cov_minus": {"poly": "0", "tail": 0}},
            {"I": ["E2"], "base": "u",
             "cov_plus": {"poly": "u", "tail": 0},
             "cov_minus": {"poly": "0", "tail": 0}},
            {"I": ["E1", "E2"], "base": "1",
             "cov_plus": {"poly": "1", "tail": 0},
             "cov_minus": {"poly": "0", "tail": 0}},
        ],
    })


def monomial_resolution(exponent: int) -> ResolutionData:
    """Resolution data of the one-variable germ x^N under the identity
    modification: a single divisor with multiplicity N and nu = 1, the
    origin as its only stratum.

    The covering is the real solution set of s^N = +-1: a fixed point for
    odd N on either sign; for even N a swapped pair on the plus side and
    empty on the minus side.
    """
    if exponent < 1:
        raise ValueError("exponent must be >= 1")
    if exponent % 2 == 1:
        cov_plus = cov_minus = {"poly": "0", "tail": 1}
    else:
        cov_plus = {"poly": "1", "tail": 0}
        cov_minus = {"poly": "0", "tail": 0}
    return load_resolution({
        "ambient_dim": 1,
        "divisors": [{"id": "E1", "N": exponent, "nu": 1}],
        "strata": [{"I": ["E1"], "base": "1",
                    "cov_plus": cov_plus, "cov_minus": cov_minus,
                    "m": exponent}],
    })
