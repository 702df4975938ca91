"""Zeta functions of Nash germs from normal-crossing resolution data.

The closed forms are finite sums over strata of the resolution: each stratum
contributes a coefficient times a product of geometric factors
u^-nu * T^N / (1 - u^-nu * T^N), one per divisor through the stratum.  For
the signed zeta functions the coefficient is (u-1)^(|I|-1) times the class
of the two-sheeted covering of the stratum; for the naive one it is
(u-1)^|I| times the ordinary class of the stratum itself.

Covering classes are *inputs*: carving them out of charts would need real
semialgebraic geometry, and the worked examples hand them over directly.
The engine applies the stratum formula literally, with the covering action
determined by the parity of the gcd of the multiplicities; the arc-space
module computes the same coefficients straight from the definition so the
two routes can be compared instead of silently reconciled (they are known
to disagree at even multiplicities with even quotient order).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from math import gcd
from pathlib import Path

from .algebra import IntPoly, RationalU
from .calculus import VirtualClass
from .errors import BadGcd, MalformedInput, UnknownDivisor

U_MINUS_ONE = RationalU(IntPoly.u() - 1)


@dataclass(frozen=True)
class Divisor:
    """An exceptional component: N is the multiplicity of the pulled back
    germ along it, nu is 1 + the multiplicity of the Jacobian."""

    id: str
    N: int
    nu: int


@dataclass(frozen=True)
class Stratum:
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


@dataclass(frozen=True)
class ResolutionData:
    ambient_dim: int
    divisors: tuple
    strata: tuple

    def divisor(self, divisor_id: str) -> Divisor:
        for d in self.divisors:
            if d.id == divisor_id:
                return d
        raise UnknownDivisor(f"no divisor with id {divisor_id!r}")

    def max_multiplicity(self) -> int:
        return max((d.N for d in self.divisors), default=1)


def _parse_virtual_class(data, where: str) -> VirtualClass:
    if not isinstance(data, dict) or "poly" not in data or "tail" not in data:
        raise MalformedInput(f"{where}: expected an object with poly and tail")
    try:
        poly = IntPoly.parse(str(data["poly"]))
    except ValueError as exc:
        raise MalformedInput(f"{where}: {exc}") from exc
    tail = data["tail"]
    if not isinstance(tail, int):
        raise MalformedInput(f"{where}: tail must be an integer")
    return VirtualClass(poly, tail)


def load_resolution(source) -> ResolutionData:
    """Read and validate resolution data.

    ``source`` may be a mapping, a JSON string, or a path to a JSON file.
    The gcd of multiplicities is recomputed per stratum and checked against
    the stored value when one is present.
    """
    data = source
    if isinstance(source, (str, Path)):
        try:
            text = str(source)
            if not text.lstrip().startswith("{"):
                text = Path(source).read_text(encoding="utf-8")
            data = json.loads(text)
        except ValueError as exc:
            raise MalformedInput(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise MalformedInput("resolution data must be a JSON object")

    ambient = data.get("ambient_dim")
    if not isinstance(ambient, int) or ambient < 1:
        raise MalformedInput("ambient_dim must be a positive integer")

    divisors = []
    seen = set()
    for entry in data.get("divisors", []):
        try:
            div = Divisor(str(entry["id"]), int(entry["N"]), int(entry["nu"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedInput(f"bad divisor entry {entry!r}") from exc
        if div.N < 1 or div.nu < 1:
            raise MalformedInput(f"divisor {div.id!r}: N and nu must be >= 1")
        if div.id in seen:
            raise MalformedInput(f"duplicate divisor id {div.id!r}")
        seen.add(div.id)
        divisors.append(div)
    by_id = {d.id: d for d in divisors}

    strata = []
    seen_sets = set()
    for entry in data.get("strata", []):
        if "I" not in entry:
            raise MalformedInput(f"stratum without divisor set: {entry!r}")
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
            if int(entry["m"]) != true_m:
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
    return ResolutionData(ambient, tuple(divisors), tuple(strata))


# ---------------------------------------------------------------------------
# closed forms

@dataclass(frozen=True)
class ZetaTerm:
    """coefficient * product of u^-nu T^N / (1 - u^-nu T^N) factors."""

    coefficient: RationalU
    factors: tuple  # sorted (N, nu) pairs, repetitions allowed


@dataclass(frozen=True)
class ZetaClosedForm:
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
        cleaned.sort(key=lambda t: (t.factors, str(t.coefficient)))
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
            rendered.append(f"{coef} * {factors}")
        return " + ".join(rendered)


def dl_zeta_signed(resolution: ResolutionData, sign: str) -> ZetaClosedForm:
    """Signed zeta function: per stratum, (u-1)^(|I|-1) times the covering
    class, times the geometric factor of every divisor through the stratum."""
    terms = []
    for stratum in resolution.strata:
        coefficient = (U_MINUS_ONE ** (len(stratum.divisors) - 1)
                       * stratum.covering(sign).value)
        factors = tuple(sorted((resolution.divisor(i).N, resolution.divisor(i).nu)
                               for i in stratum.divisors))
        terms.append((coefficient, factors))
    return ZetaClosedForm.from_terms(terms)


def dl_zeta_naive(resolution: ResolutionData) -> ZetaClosedForm:
    """Naive zeta function: per stratum, (u-1)^|I| times the ordinary class
    of the stratum, same geometric factors."""
    terms = []
    for stratum in resolution.strata:
        coefficient = (U_MINUS_ONE ** len(stratum.divisors)
                       * RationalU(stratum.base_class))
        factors = tuple(sorted((resolution.divisor(i).N, resolution.divisor(i).nu)
                               for i in stratum.divisors))
        terms.append((coefficient, factors))
    return ZetaClosedForm.from_terms(terms)


# ---------------------------------------------------------------------------
# expansion and equality

def default_expansion_order(resolution: ResolutionData, cap: int = 64) -> int:
    """Four repetitions of every geometric factor, capped."""
    lcm = 1
    for d in resolution.divisors:
        lcm = lcm * d.N // gcd(lcm, d.N)
    return min(4 * lcm, cap)


def expand_zeta(form: ZetaClosedForm, order: int) -> list:
    """Coefficients of T^1 .. T^order, exactly.

    Each geometric factor is the series sum over k >= 1 of u^(-nu k) T^(N k);
    the expansion is plain truncated convolution.
    """
    if order < 1:
        raise ValueError("order must be positive")
    total = {}
    for term in form.terms:
        series = {0: term.coefficient}
        for N, nu in term.factors:
            geometric = {N * k: RationalU(1, IntPoly.monomial(nu * k))
                         for k in range(1, order // N + 1)}
            series = _t_mul(series, geometric, order)
        _accumulate(total, series)
    return [(n, total.get(n, RationalU.zero())) for n in range(1, order + 1)]


def _as_t_polynomial(form: ZetaClosedForm, multiplicities: dict) -> dict:
    """The closed form times prod (1 - u^-nu T^N)^mult over all factors,
    as a T-polynomial {T-degree: RationalU}."""
    order = sum(N * mult for (N, _), mult in multiplicities.items())
    result = {}
    for term in form.terms:
        used = Counter(term.factors)
        poly = {0: term.coefficient}
        for (N, nu), total_mult in multiplicities.items():
            monomial = RationalU(1, IntPoly.monomial(nu))
            for _ in range(used[(N, nu)]):
                poly = _t_mul(poly, {N: monomial}, order)
            for _ in range(total_mult - used[(N, nu)]):
                poly = _t_mul(poly, {0: RationalU.one(), N: -monomial}, order)
        _accumulate(result, poly)
    return {e: c for e, c in result.items() if not c.is_zero()}


def _t_mul(a: dict, b: dict, order: int) -> dict:
    """Product of two T-polynomials, dropping every degree above ``order``."""
    out = {}
    for e1, c1 in a.items():
        _accumulate(out, {e1 + e2: c1 * c2 for e2, c2 in b.items()
                          if e1 + e2 <= order})
    return out


def _accumulate(total: dict, poly: dict):
    """Add the T-polynomial ``poly`` into ``total`` in place."""
    for e, c in poly.items():
        total[e] = total[e] + c if e in total else c


def zeta_equal(a: ZetaClosedForm, b: ZetaClosedForm) -> bool:
    """Semantic equality as rational functions of T: cross-multiply both
    sides by every distinct factor denominator and compare T-polynomials."""
    multiplicities = {}
    for form in (a, b):
        for term in form.terms:
            for f, mult in Counter(term.factors).items():
                multiplicities[f] = max(multiplicities.get(f, 0), mult)
    return _as_t_polynomial(a, multiplicities) == _as_t_polynomial(b, multiplicities)


# ---------------------------------------------------------------------------
# the sign identity for nonnegative germs

@dataclass(frozen=True)
class SignIdentityReport:
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
        order = 4 * resolution.max_multiplicity()
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
    nonnegative, so every minus covering is empty.  Both one-divisor strata
    are circles minus two points whose double covers are the circle with the
    two fixed closure points removed (class u); the intersection point lifts
    to a swapped pair (class 1).
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
