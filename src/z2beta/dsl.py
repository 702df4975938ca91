"""The expression language of the command line front end.

Grammar (one token of lookahead):

    expr    := func "(" args ")"
    func    := "point" | "pair" | "sphere" | "affine" | "custom" | "union"
             | "diff" | "affprod" | "lift" | "quotient" | "blowup" | "curve"
    args    := comma-separated expr | integer | action keyword
             | polynomial / rational literal (for lift and custom)
    actions := "free" | "fixed" | "trivial"
             | "both_negated" | "y_negated" | "x_negated"

Each function maps one-to-one onto a calculus operation.  Parsing is
schema-driven: the expected argument kinds are known from the function name,
which is what lets a bare ``u^2 + 1`` act as a literal inside ``lift(...)``
while everywhere else names must be calls or keywords.  A ``^`` exponent or
an integer argument above MAX_EXPONENT, and a polynomial coefficient of more
than MAX_COEFFICIENT_DIGITS digits, are syntax errors, raised before any
evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import IntPoly, RationalU
from .calculus import (
    ACTION_FIXED,
    ACTION_FREE,
    ACTION_TRIVIAL,
    Atom,
    CURVE_ACTIONS,
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
from .errors import ArityError, ExpressionSyntaxError, UnknownAtom

EXPR = "expr"
INT = "int"
SPHERE_ACTION = "sphere-action"
CURVE_ACTION = "curve-action"
POLY = "poly"
RATIONAL = "rational"

#: function name -> expected argument kinds
SIGNATURES = {
    "point": (),
    "pair": (),
    "sphere": (INT, SPHERE_ACTION),
    "affine": (INT,),
    "custom": (RATIONAL, INT, POLY),
    "union": (EXPR, EXPR),
    "diff": (EXPR, EXPR),
    "affprod": (EXPR, INT),
    "lift": (POLY,),
    "quotient": (EXPR,),
    "blowup": (EXPR, EXPR, EXPR),
    "curve": (CURVE_ACTION,),
}

SPHERE_KEYWORDS = {"free": ACTION_FREE, "fixed": ACTION_FIXED,
                   "trivial": ACTION_TRIVIAL}

#: Largest ``^`` exponent and largest integer argument (a dimension, hence
#: an exponent of u too), checked at parse time: work grows with them.
MAX_EXPONENT = 1024

#: Most digits of a polynomial coefficient, checked at parse time.  The
#: calculus only adds coefficients, so every printed result stays far below
#: Python's 4300-digit limit on integer-string conversion.
MAX_COEFFICIENT_DIGITS = 1000


@dataclass(frozen=True)
class Expression:
    """A parsed call; leaf arguments are int, keyword str, IntPoly or
    RationalU values."""

    func: str
    args: tuple

    def __str__(self):
        return f"{self.func}({', '.join(map(str, self.args))})"


# ---------------------------------------------------------------------------
# tokenizer

_SYMBOLS = "(),+-*/^"


@dataclass(frozen=True)
class _Token:
    kind: str  # "name", "int", one of the symbols, or "end"
    text: str
    line: int
    column: int


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch in _SYMBOLS:
            tokens.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise ExpressionSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
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

    def bounded_int(self, max_digits: int | None = None) -> int:
        """The next integer token, at most MAX_EXPONENT, or with at most
        ``max_digits`` digits when that is given."""
        token = self.expect("int")
        digits = token.text.lstrip("0") or "0"
        # the length test keeps int() away from arbitrarily long digit strings
        if max_digits is not None:
            if len(digits) > max_digits:
                raise ExpressionSyntaxError(
                    f"integer longer than the limit of {max_digits} digits",
                    token.line, token.column)
            return int(digits)
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
            raise ExpressionSyntaxError(
                f"integer larger than the limit {MAX_EXPONENT}",
                token.line, token.column)
        return int(digits)

    # -- grammar -----------------------------------------------------------

    def parse(self) -> Expression:
        expr = self.parse_expr()
        token = self.peek()
        if token.kind != "end":
            raise ExpressionSyntaxError(f"trailing input {token.text!r}",
                                        token.line, token.column,
                                        expected=("end of input",))
        return expr

    def parse_expr(self) -> Expression:
        token = self.expect("name")
        if token.text not in SIGNATURES:
            raise UnknownAtom(f"unknown function {token.text!r}",
                              token.line, token.column,
                              expected=sorted(SIGNATURES))
        signature = SIGNATURES[token.text]
        self.expect("(")
        args = []
        for index, kind in enumerate(signature):
            if index > 0:
                self.expect(",")
            args.append(self.parse_arg(kind))
        closing = self.peek()
        if closing.kind != ")":
            raise ArityError(
                f"{token.text} takes {len(signature)} argument(s)",
                closing.line, closing.column, expected=(")",))
        self.advance()
        return Expression(token.text, tuple(args))

    def parse_arg(self, kind: str):
        token = self.peek()
        if kind == EXPR:
            return self.parse_expr()
        if kind == INT:
            sign = 1
            if token.kind == "-":
                self.advance()
                sign = -1
            return sign * self.bounded_int()
        if kind == SPHERE_ACTION:
            word = self.expect("name")
            if word.text not in SPHERE_KEYWORDS:
                raise ArityError(f"unknown action {word.text!r}",
                                 word.line, word.column,
                                 expected=sorted(SPHERE_KEYWORDS))
            return word.text
        if kind == CURVE_ACTION:
            word = self.expect("name")
            if word.text not in CURVE_ACTIONS:
                raise ArityError(f"unknown curve action {word.text!r}",
                                 word.line, word.column,
                                 expected=sorted(CURVE_ACTIONS))
            return word.text
        if kind == POLY:
            return self.parse_poly()
        if kind == RATIONAL:
            numerator = self.parse_poly()
            if self.peek().kind == "/":
                self.advance()
                denominator = self.parse_denominator()
                return RationalU(numerator, denominator)
            return RationalU(numerator)
        raise AssertionError(f"unhandled argument kind {kind}")

    # -- polynomial literals -------------------------------------------------

    def parse_poly(self) -> IntPoly:
        if self.peek().kind == "(":
            self.advance()
            inner = self.parse_poly()
            self.expect(")")
            return inner
        total = IntPoly.zero()
        sign = 1
        token = self.peek()
        if token.kind in "+-":
            sign = -1 if token.kind == "-" else 1
            self.advance()
        total = total + sign * self.parse_term()
        while self.peek().kind in "+-":
            sign = -1 if self.advance().kind == "-" else 1
            total = total + sign * self.parse_term()
        return total

    def parse_term(self) -> IntPoly:
        token = self.peek()
        coeff = 1
        has_coeff = False
        if token.kind == "int":
            coeff = self.bounded_int(MAX_COEFFICIENT_DIGITS)
            has_coeff = True
            if self.peek().kind == "*":
                self.advance()
        token = self.peek()
        if token.kind == "name" and token.text == "u":
            self.advance()
            exponent = 1
            if self.peek().kind == "^":
                self.advance()
                exponent = self.bounded_int()
            return IntPoly.monomial(exponent, coeff)
        if has_coeff:
            return IntPoly.monomial(0, coeff)
        raise ExpressionSyntaxError(
            f"expected a polynomial term, found {token.text or 'end of input'!r}",
            token.line, token.column, expected=("integer", "u"))

    def parse_denominator(self) -> IntPoly:
        if self.peek().kind == "(":
            self.advance()
            inner = self.parse_poly()
            self.expect(")")
            return inner
        return self.parse_term()


def parse_expression(text: str) -> Expression:
    """Parse the expression language; errors carry line and column."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# evaluation

def evaluate(expr: Expression):
    """Evaluate a parsed expression to a VirtualClass, or to an IntPoly for
    ``quotient`` (whose result is an ordinary virtual polynomial)."""
    func, args = expr.func, expr.args
    if func == "point":
        return atom_class(Atom.point())
    if func == "pair":
        return atom_class(Atom.pair())
    if func == "sphere":
        return atom_class(Atom.sphere(args[0], SPHERE_KEYWORDS[args[1]]))
    if func == "affine":
        return atom_class(Atom.affine(args[0]))
    if func == "custom":
        return atom_class(Atom.custom(args[0], args[1], args[2]))
    if func == "union":
        return union_disjoint(_as_class(expr, 0), _as_class(expr, 1))
    if func == "diff":
        return difference(_as_class(expr, 0), _as_class(expr, 1))
    if func == "affprod":
        return affine_product(_as_class(expr, 0), args[1])
    if func == "lift":
        return trivial_lift(args[0])
    if func == "quotient":
        return free_quotient(_as_class(expr, 0), asserted_free=True)
    if func == "blowup":
        return blowup_class(_as_class(expr, 0), _as_class(expr, 1),
                            _as_class(expr, 2))
    if func == "curve":
        return curve_example(args[0])
    raise UnknownAtom(f"unknown function {func!r}")


def _as_class(expr: Expression, index: int) -> VirtualClass:
    value = evaluate(expr.args[index])
    if not isinstance(value, VirtualClass):
        raise ArityError(
            f"argument {index + 1} of {expr.func} must be a class-valued "
            "expression, not a quotient polynomial")
    return value
