"""Independent routes that the benchmark checks z2beta's outputs against.

Nothing in this module imports z2beta.  Canonical text is parsed here and
evaluated at integer points with Fraction arithmetic, Laurent windows come
from long division in 1/u, and zeta coefficients and homology ranks come
from their closed forms.

Polynomials are plain dicts exponent -> integer coefficient.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb

#: Points where text is evaluated; a point is skipped when a denominator
#: vanishes there.
POINTS = (3, 7, 11, 13, 17, 19, 23)

_TERM = re.compile(r"([+-])(\d*)(u(?:\^(-?\d+))?)?")


class TextError(ValueError):
    """Text that is not in the canonical form."""


# ---------------------------------------------------------------------------
# canonical text

def parse_poly(text: str) -> dict:
    """Exponent -> coefficient of a canonical polynomial such as
    ``3u^2 - u + 1``; negative exponents (Laurent windows) are accepted."""
    compact = text.replace(" ", "")
    if not compact:
        raise TextError("empty polynomial")
    if compact[0] not in "+-":
        compact = "+" + compact
    out = {}
    pos = 0
    while pos < len(compact):
        match = _TERM.match(compact, pos)
        if not match or not (match.group(2) or match.group(3)):
            raise TextError(f"cannot parse {text!r} at {pos}")
        coeff = int(match.group(2)) if match.group(2) else 1
        if match.group(1) == "-":
            coeff = -coeff
        exp = 0
        if match.group(3):
            exp = int(match.group(4)) if match.group(4) else 1
        out[exp] = out.get(exp, 0) + coeff
        pos = match.end()
    return {e: c for e, c in out.items() if c}


def _strip_parens(text: str) -> str:
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        return text[1:-1]
    return text


def parse_rational(text: str):
    """(numerator, denominator) dicts of ``P`` or ``P/Q``."""
    num, sep, den = text.partition("/")
    numerator = parse_poly(_strip_parens(num))
    denominator = parse_poly(_strip_parens(den)) if sep else {0: 1}
    if not denominator:
        raise TextError(f"zero denominator in {text!r}")
    return numerator, denominator


def poly_at(poly: dict, t) -> Fraction:
    return sum((Fraction(c) * Fraction(t) ** e for e, c in poly.items()),
               Fraction(0))


def rational_at(num: dict, den: dict, t) -> Fraction | None:
    """num(t)/den(t), or None where den vanishes."""
    d = poly_at(den, t)
    if d == 0:
        return None
    return poly_at(num, t) / d


def text_at(text: str, t) -> Fraction | None:
    return rational_at(*parse_rational(text), t)


def render_poly(poly: dict) -> str:
    """Canonical text of a polynomial with nonnegative exponents."""
    parts = []
    for e in sorted(poly, reverse=True):
        c = poly[e]
        if c == 0:
            continue
        mag = abs(c)
        var = "" if e == 0 else ("u" if e == 1 else f"u^{e}")
        body = str(mag) if not var else (var if mag == 1 else f"{mag}{var}")
        if parts:
            parts.append((" - " if c < 0 else " + ") + body)
        else:
            parts.append(("-" if c < 0 else "") + body)
    return "".join(parts) or "0"


def agree_at_points(text: str, expected, count: int = 2) -> bool:
    """True when ``text`` evaluates to ``expected(t)`` at ``count`` points.

    ``expected`` returns None at a point it cannot evaluate; such points,
    and points where the text has a pole, are skipped."""
    num, den = parse_rational(text)
    seen = 0
    for t in POINTS:
        want = expected(t)
        if want is None:
            continue
        got = rational_at(num, den, t)
        if got is None:
            continue
        if got != want:
            return False
        seen += 1
        if seen == count:
            return True
    return False


# ---------------------------------------------------------------------------
# Laurent windows

def laurent_window(num: dict, den: dict, depth: int):
    """(top exponent, first ``depth`` coefficients) of num/den at u = infinity,
    by long division in v = 1/u with Fraction coefficients."""
    if not num:
        return 0, [Fraction(0)] * depth
    dn, dd = max(num), max(den)
    width = dn + depth + 1
    p = [Fraction(num.get(dn - k, 0)) for k in range(width)]
    q = [Fraction(den.get(dd - k, 0)) for k in range(dd + 1)]
    out = []
    for k in range(depth):
        c = p[k] / q[0]
        out.append(c)
        if c:
            for j in range(1, len(q)):
                if k + j < width:
                    p[k + j] -= c * q[j]
    return dn - dd, out


def parse_window(text: str):
    """(exponent -> coefficient, tail or None) from the ``eval --expand``
    output: ``u + 1 + u^-1 + ...`` and an optional ``  tail: c`` line."""
    lines = text.strip("\n").split("\n")
    body = lines[0].strip()
    if body.endswith(" + ..."):
        body = body[: -len(" + ...")]
    tail = None
    for line in lines[1:]:
        label, _, value = line.strip().partition(":")
        if label != "tail":
            raise TextError(f"unexpected line {line!r}")
        tail = int(value)
    return parse_poly(body), tail


# ---------------------------------------------------------------------------
# zeta closed forms from resolution data

def stratum_coefficient(stratum: dict, n_divisors: int, sign: str, t) -> Fraction:
    """Value at u = t of a stratum's coefficient in the closed form:
    (t-1)^(|I|-1) times the covering class for a sign, (t-1)^|I| times the
    base class for the naive zeta."""
    t = Fraction(t)
    if sign == "naive":
        return (t - 1) ** n_divisors * poly_at(parse_poly(stratum["base"]), t)
    cover = stratum.get("cov_plus" if sign == "+" else "cov_minus",
                        {"poly": "0", "tail": 0})
    value = poly_at(parse_poly(str(cover["poly"])), t) \
        + cover["tail"] * t / (t - 1)
    return (t - 1) ** (n_divisors - 1) * value


def zeta_series_at(resolution: dict, sign: str, order: int, t) -> list:
    """Coefficients of T^1..T^order at u = t of the zeta function given by
    resolution data: each stratum contributes its coefficient times the
    number-weighted sum over k_i >= 1 with sum N_i k_i = n of
    t^(-sum nu_i k_i)."""
    t = Fraction(t)
    by_id = {d["id"]: (d["N"], d["nu"]) for d in resolution["divisors"]}
    total = [Fraction(0)] * (order + 1)
    for stratum in resolution["strata"]:
        coefficient = stratum_coefficient(stratum, len(stratum["I"]), sign, t)
        if coefficient == 0:
            continue
        series = [Fraction(0)] * (order + 1)
        series[0] = coefficient
        for divisor in stratum["I"]:
            N, nu = by_id[divisor]
            step = [Fraction(0)] * (order + 1)
            for e, v in enumerate(series):
                if v:
                    k = 1
                    while e + N * k <= order:
                        step[e + N * k] += v / t ** (nu * k)
                        k += 1
            series = step
        for e in range(1, order + 1):
            total[e] += series[e]
    return total[1:]


def closed_form_at(resolution: dict, sign: str, t, s) -> Fraction:
    """The zeta closed form summed in closed form at u = t, T = s."""
    t, s = Fraction(t), Fraction(s)
    by_id = {d["id"]: (d["N"], d["nu"]) for d in resolution["divisors"]}
    total = Fraction(0)
    for stratum in resolution["strata"]:
        value = stratum_coefficient(stratum, len(stratum["I"]), sign, t)
        for divisor in stratum["I"]:
            N, nu = by_id[divisor]
            g = s ** N / t ** nu
            value *= g / (1 - g)
        total += value
    return total


def parse_closed_form(text: str):
    """[(coefficient text, [(N, nu), ...]), ...] of a rendered closed form
    ``c * [N,nu] * [N,nu] + ...``; the coefficient may itself contain
    ``+`` inside parentheses."""
    if text.strip() == "0":
        return []
    terms, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and text.startswith(" + ", i):
            terms.append(text[start:i])
            start = i + 3
    terms.append(text[start:])
    out = []
    for term in terms:
        pieces = term.split(" * ")
        factors = []
        for piece in pieces[1:]:
            n, nu = piece.strip("[]").split(",")
            factors.append((int(n), int(nu)))
        if not factors:
            raise TextError(f"term without factors: {term!r}")
        out.append((_strip_parens(pieces[0]), factors))
    return out


def closed_form_text_at(text: str, t, s) -> Fraction:
    t, s = Fraction(t), Fraction(s)
    total = Fraction(0)
    for coefficient, factors in parse_closed_form(text):
        value = text_at(coefficient, t)
        for N, nu in factors:
            g = s ** N / t ** nu
            value *= g / (1 - g)
        total += value
    return total


# ---------------------------------------------------------------------------
# arc classes of x^N, from the definition

def monomial_coefficient_at(N: int, n: int, sign: str, t) -> Fraction | None:
    """Coefficient of T^n at u = t of the zeta function of x^N, read off the
    arc spaces: the order-n arcs exist only for N | n, m = n/N; the root set
    of a^N = +-1 is one fixed point (N odd), a swapped pair (N even, m odd,
    plus sign) or empty (minus sign, N even).  Returns None where N and m are
    both even: there the two routes are known to disagree and the value is
    not pinned."""
    t = Fraction(t)
    if sign == "naive":
        return (t - 1) / t ** (n // N) if n % N == 0 else Fraction(0)
    if n % N:
        return Fraction(0)
    m = n // N
    if N % 2:
        return t / (t - 1) / t ** m
    if sign == "-":
        return Fraction(0)
    if m % 2:
        return 1 / t ** m
    return None


# ---------------------------------------------------------------------------
# homology closed forms

def binomial(k: int, q: int) -> int:
    return comb(k, q) if 0 <= q <= k else 0


def tower_equivariant_dim(k: int, n: int) -> int:
    """dim H_n of (antipodal S^3) x (trivial S^1)^k over G: the action is
    free, so this is H_n(RP^3 x T^k; F2) by Kunneth."""
    return sum(binomial(k, n - p) for p in range(4))


def tower_plain_dim(k: int, n: int) -> int:
    """dim H_n(S^3 x T^k; F2)."""
    return binomial(k, n) + binomial(k, n - 3)


def antipodal_sphere_dim(d: int, n: int) -> int:
    """dim H_n of the antipodal d-sphere over G = dim H_n(RP^d; F2)."""
    return 1 if 0 <= n <= d else 0
