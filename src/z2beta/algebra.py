"""Exact arithmetic over integer polynomials in u and their fraction field.

Values of the equivariant series live in Z[[u^-1]][u]: power series in 1/u
with finitely many positive powers of u.  Every value this toolkit produces
is in fact a rational function of u, so all algebra happens exactly in the
fraction field Q(u) restricted to integer-polynomial numerators and
denominators; the Laurent expansion at u = infinity is a *view* of such a
fraction, never an arithmetic domain of its own.  That way truncation error
is impossible by construction.

Canonical text form (the output contract of the whole package): descending
powers, ``^`` for exponents, ``1`` denominators omitted, e.g.
``(u^2 + 1)/(u - 1)``.  One reader, ``LiteralReader``, turns text back
into values: ``IntPoly.parse``, ``RationalU.parse`` and the expression
language share its grammar and its bound of MAX_COEFFICIENT_DIGITS digits
on every integer.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd
from types import MappingProxyType
from typing import NamedTuple

from .errors import (
    DivisionByZero,
    ExpressionSyntaxError,
    NonIntegerExpansion,
    PoleAtPoint,
)

#: Degree of the zero polynomial.  Compares below every integer.
NEG_INFINITY = float("-inf")


class IntPoly:
    """A polynomial in u with arbitrary-precision integer coefficients.

    Stored sparsely as exponent -> coefficient with no zero entries; the zero
    polynomial is the empty map.  Instances are immutable and hashable.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        if coeffs:
            for exp, c in dict(coeffs).items():
                if exp < 0:
                    raise ValueError(f"negative exponent {exp} in IntPoly")
                c = int(c)
                if c != 0:
                    clean[int(exp)] = c
        self._coeffs = clean

    @classmethod
    def _trusted(cls, coeffs: dict) -> "IntPoly":
        # no re-validation: ring results already hold nonzero int
        # coefficients at nonnegative int exponents
        poly = object.__new__(cls)
        poly._coeffs = coeffs
        return poly

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "IntPoly":
        return cls()

    @classmethod
    def one(cls) -> "IntPoly":
        return cls({0: 1})

    @classmethod
    def u(cls) -> "IntPoly":
        return cls({1: 1})

    @classmethod
    def monomial(cls, exp: int, coeff: int = 1) -> "IntPoly":
        return cls({exp: coeff})

    @classmethod
    def geometric_sum(cls, low: int, high: int) -> "IntPoly":
        """u^low + u^(low+1) + ... + u^high (zero when the range is empty)."""
        return cls({e: 1 for e in range(low, high + 1)})

    # -- inspection --------------------------------------------------------

    @property
    def coefficients(self):
        """Read-only exponent -> coefficient view."""
        return MappingProxyType(self._coeffs)

    def __getitem__(self, exp: int) -> int:
        return self._coeffs.get(exp, 0)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def degree(self):
        """Largest stored exponent, NEG_INFINITY for the zero polynomial."""
        return max(self._coeffs) if self._coeffs else NEG_INFINITY

    @property
    def valuation(self):
        """Smallest stored exponent, NEG_INFINITY for the zero polynomial."""
        return min(self._coeffs) if self._coeffs else NEG_INFINITY

    @property
    def leading_coefficient(self) -> int:
        return self._coeffs[max(self._coeffs)] if self._coeffs else 0

    def content(self) -> int:
        """Positive gcd of all coefficients; 0 for the zero polynomial."""
        g = 0
        for c in self._coeffs.values():
            g = int_gcd(g, c)
            if g == 1:
                break
        return g

    def term_count(self) -> int:
        return len(self._coeffs)

    def evaluate(self, point):
        """Exact value at an integer or Fraction point."""
        return sum(c * point ** e for e, c in self._coeffs.items())

    def has_negative_coefficient(self) -> bool:
        return any(c < 0 for c in self._coeffs.values())

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, IntPoly):
            return other
        if isinstance(other, int):
            return IntPoly({0: other})
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other._coeffs:
            return self
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            total = out.get(e, 0) + c
            if total:
                out[e] = total
            else:
                del out[e]
        return IntPoly._trusted(out)

    __radd__ = __add__

    def __neg__(self):
        return IntPoly._trusted({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return IntPoly._trusted({e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("IntPoly cannot be raised to a negative power")
        result = IntPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k: int) -> "IntPoly":
        """Multiply by u^k."""
        if k < 0 and self._coeffs and self.valuation + k < 0:
            raise ValueError(f"negative exponent {self.valuation + k} in IntPoly")
        return IntPoly._trusted({e + k: c for e, c in self._coeffs.items()})

    # -- equality / hashing / text -----------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))

    def __repr__(self):
        return f"IntPoly.parse({str(self)!r})"

    def __str__(self):
        return render_terms((e, self._coeffs[e])
                            for e in sorted(self._coeffs, reverse=True))

    @classmethod
    def parse(cls, text: str) -> "IntPoly":
        """Inverse of str(); see LiteralReader for the grammar."""
        reader = LiteralReader(text)
        return reader.finish(reader.parse_poly())


#: The trivial gcd as _common_factor returns it; _divide tests it by identity.
_ONE = IntPoly({0: 1})


def render_terms(terms) -> str:
    """Canonical text of a sum of c*u^e from (e, c) pairs, in the given
    order; zero coefficients are skipped and an empty sum is "0".  Negative
    exponents are allowed, so Laurent windows share the renderer."""
    parts = []
    for e, c in terms:
        if c == 0:
            continue
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            var = "u" if e == 1 else f"u^{e}"
            body = var if mag == 1 else f"{mag}{var}"
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append((" - " if c < 0 else " + ") + body)
    return "".join(parts) or "0"


# ---------------------------------------------------------------------------
# polynomial division helpers

def exact_divide(num: IntPoly, den: IntPoly) -> IntPoly:
    """Quotient num/den when den divides num over the integers.

    Raises ArithmeticError on a non-exact division; internal callers only
    divide by known factors.
    """
    if den.is_zero():
        raise DivisionByZero("polynomial division by zero")
    quotient = {}
    rest = num
    d = den.degree
    lead = den.leading_coefficient
    while not rest.is_zero() and rest.degree >= d:
        c, rem = divmod(rest.leading_coefficient, lead)
        if rem:
            raise ArithmeticError(f"{num} is not divisible by {den}")
        shift = rest.degree - d
        quotient[shift] = c
        rest = rest - den * IntPoly.monomial(shift, c)
    if not rest.is_zero():
        raise ArithmeticError(f"{num} is not divisible by {den}")
    return IntPoly(quotient)


def _divide_content(p: IntPoly, k: int) -> IntPoly:
    """p with every coefficient divided by k, which divides them all."""
    return IntPoly._trusted({e: v // k for e, v in p.coefficients.items()})


def _primitive(p: IntPoly) -> IntPoly:
    c = p.content()
    if c in (0, 1):
        return p
    return _divide_content(p, c)


def _pseudo_remainder(a: IntPoly, b: IntPoly) -> IntPoly:
    # lc(b)^k * a mod b, eliminating the lead of a without leaving Z
    d = b.degree
    lead = b.leading_coefficient
    rest = a
    while not rest.is_zero() and rest.degree >= d:
        shift = rest.degree - d
        rest = rest * lead - b * IntPoly.monomial(shift, rest.leading_coefficient)
    return rest


def poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd (content stripped, positive leading coefficient).

    Computed by the primitive pseudo-remainder sequence, which never leaves
    the integers.
    """
    a, b = _primitive(a), _primitive(b)
    while not b.is_zero():
        a, b = b, _primitive(_pseudo_remainder(a, b))
    if a.leading_coefficient < 0:
        a = -a
    return a


# ---------------------------------------------------------------------------

def _common_factor(a: IntPoly, b: IntPoly) -> IntPoly:
    """gcd of the nonzero a and b over Q[u], primitive with a positive
    leading coefficient; 1 is returned as ``_ONE``.

    The shape of the inputs decides the common cases without ``poly_gcd``:
    when either is a single term c*u^k (a constant included) the gcd is
    u^min(valuations), and when both have the same primitive part up to
    sign it is that part.
    """
    if a.term_count() == 1 or b.term_count() == 1:
        k = min(a.valuation, b.valuation)
        return _ONE if k == 0 else IntPoly.monomial(k)
    if a.degree == b.degree and a.term_count() == b.term_count():
        pa, pb = _primitive(a), _primitive(b)
        if pa == pb or pa == -pb:
            return pa if pa.leading_coefficient > 0 else -pa
    common = poly_gcd(a, b)
    return _ONE if common.degree == 0 else common


def _divide(p: IntPoly, factor: IntPoly) -> IntPoly:
    """p / factor for a factor from _common_factor that divides p."""
    if factor is _ONE:
        return p
    if factor.term_count() == 1:
        return p.shift(-factor.valuation)
    return exact_divide(p, factor)


class RationalU:
    """A fraction of integer polynomials in u, kept in a unique normal form.

    Normalization: no common polynomial factor, joint integer content 1,
    denominator leading coefficient positive.  Two equal values therefore
    compare equal structurally.

    Arithmetic combines operands that are already in normal form by
    Henrici's rule (Knuth, TAOCP vol. 2, 4.5.1), so no gcd of the full
    cross-multiplied numerator and denominator is ever taken:

    - a/b * c/d: only a with d and c with b can share a factor, so the
      result is (a/g1 * c/g2) / (b/g2 * d/g1) with g1 = gcd(a, d) and
      g2 = gcd(c, b);
    - a/b + c/d: only g = gcd(b, d) can cancel.  With t = a*(d/g) +
      c*(b/g) and h = gcd(t, g) the result is (t/h) / ((b/g) * (d/h)); for
      g = 1 that is (ad + bc)/(bd) as it stands.

    Each partial gcd comes from ``_common_factor``, which needs no
    ``poly_gcd`` when an input is a constant or a single term c*u^k (the
    gcd is a power of u) or when both have the same primitive part.  The
    values of the calculus, P + c*u/(u-1), and their scaling by u^-n never
    reach ``poly_gcd``.  Results are stored by ``_coprime``, which fixes
    only the joint integer content and the sign; ``RationalU(num, den)``
    from outside removes ``_common_factor(num, den)`` first.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator, denominator=None):
        num = self._as_poly(numerator)
        den = IntPoly.one() if denominator is None else self._as_poly(denominator)
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        if num:
            common = _common_factor(num, den)
            num, den = _divide(num, common), _divide(den, common)
        self._settle(num, den)

    def _settle(self, num: IntPoly, den: IntPoly):
        # num and den share no polynomial factor: fix content and sign only
        if not num:
            num, den = IntPoly.zero(), IntPoly.one()
        else:
            joint = den.content()
            if joint > 1:
                joint = int_gcd(joint, num.content())
                if joint > 1:
                    num = _divide_content(num, joint)
                    den = _divide_content(den, joint)
            if den.leading_coefficient < 0:
                num, den = -num, -den
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)

    @classmethod
    def _coprime(cls, num: IntPoly, den: IntPoly) -> "RationalU":
        """num/den for nonzero den sharing no polynomial factor with num."""
        value = object.__new__(cls)
        value._settle(num, den)
        return value

    def __setattr__(self, *args):
        raise AttributeError("RationalU is immutable")

    @staticmethod
    def _as_poly(value) -> IntPoly:
        if isinstance(value, IntPoly):
            return value
        if isinstance(value, int):
            return IntPoly({0: value})
        raise TypeError(f"cannot build RationalU from {type(value).__name__}")

    @classmethod
    def zero(cls) -> "RationalU":
        return cls(0)

    @classmethod
    def one(cls) -> "RationalU":
        return cls(1)

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return self.numerator.is_zero()

    def is_polynomial(self) -> bool:
        return self.denominator == IntPoly.one()

    @property
    def degree(self):
        """deg(numerator) - deg(denominator); NEG_INFINITY for zero."""
        if self.is_zero():
            return NEG_INFINITY
        return self.numerator.degree - self.denominator.degree

    def eval_at(self, point):
        """Exact value at an integer (or Fraction) point."""
        den = self.denominator.evaluate(point)
        if den == 0:
            raise PoleAtPoint(f"denominator vanishes at u = {point}")
        return Fraction(self.numerator.evaluate(point), den)

    # -- field operations --------------------------------------------------

    @classmethod
    def _coerce(cls, other):
        if isinstance(other, RationalU):
            return other
        if isinstance(other, (IntPoly, int)):
            return cls._coprime(cls._as_poly(other), IntPoly.one())
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.numerator, self.denominator
        c, d = other.numerator, other.denominator
        g = _common_factor(b, d)
        b_rest = _divide(b, g)
        t = a * _divide(d, g) + c * b_rest
        if not t:
            return RationalU.zero()
        h = _common_factor(t, g)
        return RationalU._coprime(_divide(t, h), b_rest * _divide(d, h))

    __radd__ = __add__

    def __neg__(self):
        return RationalU._coprime(-self.numerator, self.denominator)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _product(self.numerator, self.denominator,
                        other.numerator, other.denominator)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise DivisionByZero("division by the zero rational function")
        return _product(self.numerator, self.denominator,
                        other.denominator, other.numerator)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        if n < 0:
            if self.is_zero():
                raise DivisionByZero("negative power of zero")
            return RationalU._coprime(self.denominator, self.numerator) ** (-n)
        # powers of coprime polynomials stay coprime
        return RationalU._coprime(self.numerator ** n, self.denominator ** n)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return (self.numerator == other.numerator
                and self.denominator == other.denominator)

    def __hash__(self):
        return hash((self.numerator, self.denominator))

    # -- text --------------------------------------------------------------

    def __repr__(self):
        return f"RationalU.parse({str(self)!r})"

    def __str__(self):
        num_s = str(self.numerator)
        if self.is_polynomial():
            return num_s
        den_s = str(self.denominator)
        if self.numerator.term_count() > 1:
            num_s = f"({num_s})"
        if self.denominator.term_count() > 1:
            den_s = f"({den_s})"
        return f"{num_s}/{den_s}"

    @classmethod
    def parse(cls, text: str) -> "RationalU":
        """Inverse of str(); see LiteralReader for the grammar."""
        reader = LiteralReader(text)
        return reader.finish(reader.parse_fraction())


#: u - 1, the factor that carries a fixed-point tail and scales zeta strata.
U_MINUS_ONE = RationalU(IntPoly.u() - 1)

#: The series of a fixed point: sum of u^i over i <= 0.
TAIL_SERIES = RationalU(IntPoly.u(), IntPoly.u() - 1)


def _product(a: IntPoly, b: IntPoly, c: IntPoly, d: IntPoly) -> RationalU:
    """(a/b) * (c/d) for coprime pairs (a, b) and (c, d), by Henrici's rule."""
    if not a or not c:
        return RationalU.zero()
    g1, g2 = _common_factor(a, d), _common_factor(c, b)
    return RationalU._coprime(_divide(a, g1) * _divide(c, g2),
                              _divide(b, g2) * _divide(d, g1))


# ---------------------------------------------------------------------------
# reading polynomial and fraction text

#: Most digits of any integer in polynomial or fraction text, leading zeros
#: not counted, checked before int() sees it.  The calculus and the zeta
#: engine only add and multiply by small polynomials, so every printed
#: result stays far below Python's 4300-digit limit on integer-string
#: conversion.
MAX_COEFFICIENT_DIGITS = 1000

_SYMBOLS = "(),+-*/^"


class _Token(NamedTuple):
    kind: str  # "name", "int", one of the symbols, or "end of input"
    text: str
    line: int
    column: int


def _tokenize(text: str):
    tokens = []
    line, line_start, i = 1, 0, 0
    while i < len(text):
        ch, j = text[i], i + 1
        if ch in _SYMBOLS:
            kind = ch
        elif "0" <= ch <= "9":  # ASCII only: str.isdigit() also takes "²"
            kind = "int"
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
        elif ch.isalpha() or ch == "_":
            kind = "name"
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
        elif ch.isspace():
            if ch == "\n":
                line, line_start = line + 1, j
            i = j
            continue
        else:
            raise ExpressionSyntaxError(f"unexpected character {ch!r}",
                                        line, i - line_start + 1)
        tokens.append(_Token(kind, text[i:j], line, i - line_start + 1))
        i = j
    tokens.append(_Token("end of input", "", line, len(text) - line_start + 1))
    return tokens


class LiteralReader:
    """Reader of polynomial and fraction text, with one token of lookahead:

        poly     := "(" poly ")" | ["+" | "-"] term (("+" | "-") term)*
        term     := integer ["*"] ["u" ["^" integer]] | "u" ["^" integer]
        fraction := poly ["/" ("(" poly ")" | term)]

    Spacing is free.  Every integer has at most MAX_COEFFICIENT_DIGITS
    digits.  Errors are ExpressionSyntaxError (a ValueError) with line and
    column.  ``IntPoly.parse`` and ``RationalU.parse`` read a whole text as
    one poly or fraction; the expression language subclasses the reader.
    """

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, kind: str) -> _Token:
        token = self.peek()
        if token.kind != kind:
            raise ExpressionSyntaxError(
                f"unexpected {token.text or 'end of input'!r}",
                token.line, token.column, expected=(kind,))
        return self.advance()

    def accept(self, kind: str) -> bool:
        """Consume the next token if it is of ``kind``."""
        if self.peek().kind != kind:
            return False
        self.pos += 1
        return True

    def finish(self, value):
        """value, once the whole text is read."""
        self.expect("end of input")
        return value

    def bounded_int(self) -> int:
        """The next integer token, of at most MAX_COEFFICIENT_DIGITS digits."""
        token = self.expect("int")
        digits = token.text.lstrip("0") or "0"
        # the length test keeps int() away from arbitrarily long digit strings
        if len(digits) > MAX_COEFFICIENT_DIGITS:
            raise ExpressionSyntaxError(
                f"integer longer than {MAX_COEFFICIENT_DIGITS} digits",
                token.line, token.column)
        return int(digits)

    def exponent(self) -> int:
        """The integer after a ``^``."""
        return self.bounded_int()

    def parse_poly(self) -> IntPoly:
        # "(" poly ")" read without recursion, so no nesting depth is too deep
        depth = 0
        while self.accept("("):
            depth += 1
        coeffs = {}
        sign = 1
        if self.peek().kind in ("+", "-"):
            sign = -1 if self.advance().kind == "-" else 1
        while True:
            exponent, coeff = self.parse_term()
            coeffs[exponent] = coeffs.get(exponent, 0) + sign * coeff
            if self.peek().kind not in ("+", "-"):
                break
            sign = -1 if self.advance().kind == "-" else 1
        for _ in range(depth):
            self.expect(")")
        return IntPoly(coeffs)

    def parse_term(self):
        """(exponent, coefficient) of one term c*u^e."""
        coeff, token = 1, self.peek()
        if token.kind == "int":
            coeff = self.bounded_int()
            self.accept("*")
        elif token.text != "u":
            raise ExpressionSyntaxError(
                f"expected a polynomial term, found "
                f"{token.text or 'end of input'!r}",
                token.line, token.column, expected=("integer", "u"))
        if self.peek().text != "u":
            return 0, coeff
        self.advance()
        return (self.exponent() if self.accept("^") else 1), coeff

    def parse_fraction(self) -> RationalU:
        numerator = self.parse_poly()
        if not self.accept("/"):
            return RationalU(numerator)
        if self.peek().kind == "(":
            return RationalU(numerator, self.parse_poly())
        exponent, coeff = self.parse_term()
        return RationalU(numerator, IntPoly.monomial(exponent, coeff))


# ---------------------------------------------------------------------------
# Laurent expansion at u = infinity

class LaurentWindow(NamedTuple):
    """A finite window of the expansion of a rational function at u = infinity.

    ``coefficients[k]`` belongs to exponent ``top_degree - k``.  When
    ``eventually_constant`` is set, every coefficient below the window equals
    exactly that integer; it is only set when that claim is provable.
    """

    top_degree: int
    coefficients: tuple
    eventually_constant: int | None = None

    def coefficient(self, exponent: int) -> int:
        k = self.top_degree - exponent
        if 0 <= k < len(self.coefficients):
            return self.coefficients[k]
        if k >= len(self.coefficients) and self.eventually_constant is not None:
            return self.eventually_constant
        raise IndexError(f"exponent {exponent} outside the computed window")

    def terms(self):
        """Yield (exponent, coefficient) pairs, highest exponent first."""
        for k, c in enumerate(self.coefficients):
            yield self.top_degree - k, c


def laurent_expand(f: RationalU, depth: int) -> LaurentWindow:
    """First ``depth`` coefficients of f at u = infinity, exactly.

    The expansion is the image of f in Z[[u^-1]][u]; coefficients are
    produced by the standard power-series recurrence in v = 1/u and must be
    integers (NonIntegerExpansion otherwise).
    """
    if depth < 1:
        raise ValueError("depth must be positive")
    if f.is_zero():
        return LaurentWindow(0, (0,) * depth, 0)
    num, den = f.numerator, f.denominator
    top = num.degree - den.degree
    # coefficient lists in v = 1/u: position k holds the coefficient of u^(deg - k)
    p = [num[num.degree - k] for k in range(num.degree + 1)]
    q = [den[den.degree - k] for k in range(den.degree + 1)]
    lead = q[0]  # positive in normal form
    coeffs = []
    for k in range(depth):
        acc = p[k] if k < len(p) else 0
        for j in range(1, min(k, len(q) - 1) + 1):
            acc -= q[j] * coeffs[k - j]
        c, rest = divmod(acc, lead)
        if rest:
            raise NonIntegerExpansion(f"coefficient of u^{top - k} in {f} "
                                      f"is the non-integer {Fraction(acc, lead)}")
        coeffs.append(c)
    tail = _detect_constant_tail(f, bottom=top - depth + 1)
    return LaurentWindow(top, tuple(coeffs), tail)


def _detect_constant_tail(f: RationalU, bottom: int):
    """The constant value of all coefficients below the window, if provable.

    Writing f = h + c*u/(u-1) with c = ((u-1)f)(1), the tail is c exactly
    when h is a Laurent polynomial (denominator a power of u) and the window
    already covers every exponent where h or the constant head differ.
    """
    try:
        c_value = (f * U_MINUS_ONE).eval_at(1)
    except PoleAtPoint:
        return None  # (u-1) divides the denominator more than once
    if c_value.denominator != 1:
        return None
    c = int(c_value)
    h = f - c * TAIL_SERIES
    den = h.denominator
    if den.term_count() > 1 or den.leading_coefficient != 1:
        return None  # not a Laurent polynomial
    if h.is_zero():
        limit = 1
    else:
        limit = min(1, h.numerator.valuation - den.degree)
    return c if bottom <= limit else None
