"""Zeta functions of Nash germs from normal-crossing resolution data.

The closed forms are finite sums over strata of the resolution: each stratum
contributes a coefficient times a product of geometric factors
u^-nu * T^N / (1 - u^-nu * T^N), one per divisor through the stratum.  For
the signed zeta functions the coefficient is (u-1)^(|I|-1) times the class
of the two-sheeted covering of the stratum; for the naive one it is
(u-1)^|I| times the ordinary class of the stratum itself.

One driver, ``expand_zeta``, turns a closed form into T-coefficients, and
semantic equality reads its windows.  A product of geometric factors has
integer Laurent polynomials in u as T-coefficients, so the truncated
T-products run over {T-degree: {u-exponent: int}}; only each term's
coefficient p/q is a true fraction.  The product starts from the numerator
p, the integer sums are taken per distinct denominator q, and one RationalU
is built per (q, T-degree) at the end.

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

from .algebra import U_MINUS_ONE, IntPoly, RationalU
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
            merged[key] = merged.get(key, RationalU.zero()) + coefficient
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
    return _over_strata(resolution, lambda stratum: (
        U_MINUS_ONE ** (len(stratum.divisors) - 1)
        * stratum.covering(sign).value))


def dl_zeta_naive(resolution: ResolutionData) -> ZetaClosedForm:
    """Naive zeta function: per stratum, (u-1)^|I| times the ordinary class
    of the stratum, same geometric factors."""
    return _over_strata(resolution, lambda stratum: (
        U_MINUS_ONE ** len(stratum.divisors) * RationalU(stratum.base_class)))


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
    """Coefficients of T^1 .. T^order, exactly.

    Each geometric factor is the series sum over k >= 1 of u^(-nu k) T^(N k),
    so a term's numerator times its product of factors has integer Laurent
    polynomials in u as T-coefficients.  ``_t_mul`` convolves those with
    plain ints, and ``_over_denominators`` builds the RationalU values once,
    at the end.
    """
    if order < 1:
        raise ValueError("order must be positive")
    pieces = []
    for term in form.terms:
        series = {0: dict(term.coefficient.numerator.coefficients)}
        for N, nu in term.factors:
            geometric = {N * k: {-nu * k: 1} for k in range(1, order // N + 1)}
            series = _t_mul(series, geometric, order)
        pieces.append((term.coefficient.denominator, series))
    total = _over_denominators(pieces)
    return [(n, total.get(n, RationalU.zero())) for n in range(1, order + 1)]


def _t_mul(a: dict, b: dict, order: int) -> dict:
    """Product of two T-polynomials {T-degree: {u-exponent: int}} whose
    coefficients are integer Laurent polynomials in u, dropping every
    T-degree above ``order``."""
    out = {}
    for t1, c1 in a.items():
        for t2, c2 in b.items():
            if t1 + t2 > order:
                continue
            acc = out.setdefault(t1 + t2, {})
            for e1, v1 in c1.items():
                for e2, v2 in c2.items():
                    acc[e1 + e2] = acc.get(e1 + e2, 0) + v1 * v2
    return out


def _over_denominators(pieces) -> dict:
    """Sum of series / q over (q, T-polynomial) pairs, as {T-degree:
    nonzero RationalU}: the integer sums are taken per distinct q, and one
    RationalU is built per (q, T-degree)."""
    by_denominator = {}
    for q, series in pieces:
        sums = by_denominator.setdefault(q, {})
        for t, laurent in series.items():
            acc = sums.setdefault(t, {})
            for e, c in laurent.items():
                acc[e] = acc.get(e, 0) + c
    total = {}
    for q, sums in by_denominator.items():
        for t, acc in sums.items():
            acc = {e: c for e, c in acc.items() if c}
            if acc:
                k = max(0, -min(acc))
                value = RationalU(IntPoly({e + k: c for e, c in acc.items()}),
                                  q.shift(k))
                total[t] = total[t] + value if t in total else value
    return {t: c for t, c in total.items() if not c.is_zero()}


def zeta_equal(a: ZetaClosedForm, b: ZetaClosedForm) -> bool:
    """Semantic equality as rational functions of T, read off expansions.

    Let D = prod (1 - u^-nu T^N)^mult over every distinct factor, mult its
    largest multiplicity in a term of either side, and K = sum N * mult.
    Each term times D is a T-polynomial of degree <= K, so (a - b) * D is
    one too.  D has constant term 1, so (a - b) * D is zero exactly when
    a - b vanishes through T^K: the T^0 coefficients, which come from terms
    with no factor and which ``expand_zeta`` leaves out, are compared
    directly, and T^1 .. T^K on the two windows.
    """
    multiplicities = {}
    for form in (a, b):
        for term in form.terms:
            for f, mult in Counter(term.factors).items():
                multiplicities[f] = max(multiplicities.get(f, 0), mult)
    constants = [sum((t.coefficient for t in form.terms if not t.factors),
                     RationalU.zero()) for form in (a, b)]
    if constants[0] != constants[1]:
        return False
    order = sum(N * mult for (N, _), mult in multiplicities.items())
    return order == 0 or expand_zeta(a, order) == expand_zeta(b, order)


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
    term-by-term and on expansions.

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
    if order is None:
        order = 4 * max((d.N for d in resolution.divisors), default=1)
    first_mismatch = None
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
