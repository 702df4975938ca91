"""The expression language of the command line front end.

Grammar (one token of lookahead):

    expr    := func "(" args ")"
    func    := "point" | "pair" | "sphere" | "affine" | "custom" | "union"
             | "diff" | "affprod" | "lift" | "quotient" | "blowup" | "curve"
    args    := comma-separated expr | integer | action keyword
             | polynomial / rational literal (for lift and custom)
    actions := "free" | "fixed" | "trivial"
             | "both_negated" | "y_negated" | "x_negated"

One table, ``FUNCTIONS``, maps each function name to its argument kinds and
to the calculus call it stands for.  The parser reads the kinds, which is
what lets a bare ``u^2 + 1`` act as a literal inside ``lift(...)`` while
everywhere else names must be calls or keywords, and ``evaluate`` makes the
call.  The parser extends ``algebra.LiteralReader``, so the tokens, the
literal grammar and the digit bound ``algebra.MAX_COEFFICIENT_DIGITS`` are
those of ``IntPoly.parse`` and ``RationalU.parse``.  On top of that, a ``^``
exponent or an integer argument above ``_Parser.MAX_EXPONENT`` is a syntax
error, raised before any evaluation, and so is a call nested more than
``_Parser.MAX_DEPTH`` deep, which keeps the recursion of both the parser and
``evaluate`` shallow.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import LiteralReader
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

SPHERE_KEYWORDS = {"free": ACTION_FREE, "fixed": ACTION_FIXED,
                   "trivial": ACTION_TRIVIAL}

#: function name -> (argument kinds, calculus call on the argument values)
FUNCTIONS = {
    "point": ((), lambda: atom_class(Atom.point())),
    "pair": ((), lambda: atom_class(Atom.pair())),
    "sphere": ((INT, SPHERE_ACTION), lambda d, action: atom_class(
        Atom.sphere(d, SPHERE_KEYWORDS[action]))),
    "affine": ((INT,), lambda d: atom_class(Atom.affine(d))),
    "custom": ((RATIONAL, INT, POLY), lambda value, dim, fixed: atom_class(
        Atom.custom(value, dim, fixed))),
    "union": ((EXPR, EXPR), union_disjoint),
    "diff": ((EXPR, EXPR), difference),
    "affprod": ((EXPR, INT), affine_product),
    "lift": ((POLY,), trivial_lift),
    "quotient": ((EXPR,), lambda a: free_quotient(a, asserted_free=True)),
    "blowup": ((EXPR, EXPR, EXPR), blowup_class),
    "curve": ((CURVE_ACTION,), curve_example),
}


class Expression(NamedTuple):
    """A parsed call; leaf arguments are int, keyword str, IntPoly or
    RationalU values."""

    func: str
    args: tuple

    def __str__(self):
        return f"{self.func}({', '.join(map(str, self.args))})"


class _Parser(LiteralReader):
    """The expression grammar over the literal grammar of LiteralReader."""

    #: Largest ``^`` exponent and largest integer argument (a dimension,
    #: hence an exponent of u too), checked at parse time: the work of
    #: ``lift`` and ``affprod`` grows with them.
    MAX_EXPONENT = 1024

    #: Most calls nested in one another, checked as each call is opened.
    MAX_DEPTH = 100
    depth = 0  # calls open at the current token

    def exponent(self) -> int:
        token = self.peek()
        value = self.bounded_int()
        if value > self.MAX_EXPONENT:
            raise ExpressionSyntaxError(
                f"integer larger than the limit {self.MAX_EXPONENT}",
                token.line, token.column)
        return value

    # -- grammar -----------------------------------------------------------

    def parse(self) -> Expression:
        return self.finish(self.parse_expr())

    def parse_expr(self) -> Expression:
        token = self.expect("name")
        if token.text not in FUNCTIONS:
            raise UnknownAtom(f"unknown function {token.text!r}",
                              token.line, token.column,
                              expected=sorted(FUNCTIONS))
        if self.depth == self.MAX_DEPTH:
            raise ExpressionSyntaxError(
                f"calls nested more than {self.MAX_DEPTH} deep",
                token.line, token.column)
        signature = FUNCTIONS[token.text][0]
        self.expect("(")
        self.depth += 1
        args = []
        for index, kind in enumerate(signature):
            if index > 0:
                self.expect(",")
            start = self.peek()
            arg = self.parse_arg(kind)
            if kind == EXPR and arg.func == "quotient":
                raise _not_a_class(token.text, index, start.line, start.column)
            args.append(arg)
        # "," or an argument to f() is too many arguments; the end of input
        # is a missing ")", reported by expect below
        stray = self.peek()
        if stray.kind == "," or (not signature
                                 and stray.kind not in (")", "end of input")):
            raise ArityError(
                f"{token.text} takes {len(signature)} argument(s)",
                stray.line, stray.column, expected=(")",))
        self.expect(")")
        self.depth -= 1
        return Expression(token.text, tuple(args))

    def parse_arg(self, kind: str):
        if kind == EXPR:
            return self.parse_expr()
        if kind == INT:
            return (-1 if self.accept("-") else 1) * self.exponent()
        if kind in (SPHERE_ACTION, CURVE_ACTION):
            words = SPHERE_KEYWORDS if kind == SPHERE_ACTION else CURVE_ACTIONS
            word = self.expect("name")
            if word.text not in words:
                raise ArityError(f"unknown action {word.text!r}",
                                 word.line, word.column, expected=sorted(words))
            return word.text
        if kind == POLY:
            return self.parse_poly()
        if kind == RATIONAL:
            return self.parse_fraction()
        raise AssertionError(f"unhandled argument kind {kind}")


def parse_expression(text: str) -> Expression:
    """Parse the expression language; errors carry line and column."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# evaluation

def evaluate(expr: Expression):
    """Evaluate a parsed expression to a VirtualClass, or to an IntPoly for
    ``quotient`` (whose result is an ordinary virtual polynomial)."""
    if expr.func not in FUNCTIONS:
        raise UnknownAtom(f"unknown function {expr.func!r}")
    kinds, call = FUNCTIONS[expr.func]
    return call(*(_as_class(expr, index) if kind == EXPR else arg
                  for index, (kind, arg) in enumerate(zip(kinds, expr.args))))


def _as_class(expr: Expression, index: int) -> VirtualClass:
    value = evaluate(expr.args[index])
    if not isinstance(value, VirtualClass):
        raise _not_a_class(expr.func, index)
    return value


def _not_a_class(func: str, index: int, line=None, column=None) -> ArityError:
    return ArityError(f"argument {index + 1} of {func} must be a "
                      "class-valued expression, not a quotient polynomial",
                      line, column)
