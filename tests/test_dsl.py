"""The expression language: parsing, round trips, evaluation, errors."""

import pytest

from z2beta.algebra import MAX_COEFFICIENT_DIGITS, IntPoly, RationalU
from z2beta.calculus import Atom, atom_class
from z2beta.dsl import Expression, _Parser, evaluate, parse_expression
from z2beta.errors import (
    ArityError,
    ExpressionSyntaxError,
    InvalidAtom,
    NegativeCoefficient,
    UnknownAtom,
)

U = IntPoly.u()


def test_sphere_minus_point():
    tree = parse_expression("diff(sphere(1,fixed), point())")
    assert tree == Expression("diff", (
        Expression("sphere", (1, "fixed")), Expression("point", ())))
    assert evaluate(tree).value == RationalU(U ** 2, U - 1)


def test_affprod():
    tree = parse_expression("affprod(pair(), 3)")
    assert evaluate(tree).value == RationalU(U ** 3)


def test_lift_literal():
    tree = parse_expression("lift(u^2 + 1)")
    assert tree.args == (IntPoly({0: 1, 2: 1}),)
    assert evaluate(tree) == atom_class(Atom.sphere(2, "trivial"))


def test_custom_literal():
    tree = parse_expression("custom(u^3/(u - 1), 2, 1)")
    value = evaluate(tree)
    assert value.value == RationalU(U ** 3, U - 1)
    assert value.value.degree == 2


def test_curve_keywords():
    for action in ("both_negated", "y_negated", "x_negated"):
        tree = parse_expression(f"curve({action})")
        assert evaluate(tree).value == evaluate(tree).value  # evaluates cleanly


def test_quotient_returns_polynomial():
    assert evaluate(parse_expression("quotient(pair())")) == IntPoly.one()
    assert evaluate(parse_expression("quotient(sphere(2,free))")) \
        == IntPoly({0: 1, 1: 1, 2: 1})


@pytest.mark.parametrize("text", [
    "point()",
    "pair()",
    "sphere(2, free)",
    "affine(4)",
    "diff(sphere(1, fixed), point())",
    "union(point(), pair())",
    "affprod(pair(), 3)",
    "lift(u^2 + 1)",
    "lift(2u^3 - 1)",
    "custom(u^3/(u - 1), 2, u)",
    "custom((u^2 + 1)/(u - 1), 1, u + 1)",
    "quotient(pair())",
    "blowup(sphere(2, trivial), point(), sphere(1, trivial))",
    "curve(both_negated)",
])
def test_parse_print_roundtrip(text):
    tree = parse_expression(text)
    assert parse_expression(str(tree)) == tree


def test_whitespace_insensitive():
    a = parse_expression("diff( sphere( 1 , fixed ) , point( ) )")
    b = parse_expression("diff(sphere(1,fixed),point())")
    assert a == b


# ---------------------------------------------------------------------------
# errors

def test_unknown_function():
    with pytest.raises(UnknownAtom) as info:
        parse_expression("gadget(1)")
    assert info.value.line == 1 and info.value.column == 1
    assert "sphere" in info.value.expected


def test_unknown_function_built_by_hand():
    with pytest.raises(UnknownAtom):
        evaluate(Expression("bogus", ()))
    with pytest.raises(UnknownAtom):
        evaluate(Expression("union", (Expression("bogus", ()),
                                      Expression("point", ()))))


def test_arity_too_few():
    with pytest.raises(ExpressionSyntaxError) as info:
        parse_expression("sphere(1)")
    assert info.value.expected == (",",)


def test_arity_too_many():
    with pytest.raises(ArityError):
        parse_expression("point(1)")
    with pytest.raises(ArityError):
        parse_expression("sphere(1, fixed, 2)")


@pytest.mark.parametrize("text, column, token", [
    ("lift(1/u)", 7, "/"),
    ("affprod(point(), 2 3)", 20, "3"),
    ("point(", 7, "end of input"),
    ("pair(", 6, "end of input"),
])
def test_stray_token_is_not_an_arity_error(text, column, token):
    # the argument count is right; the token after the last one is not ")"
    with pytest.raises(ExpressionSyntaxError) as info:
        parse_expression(text)
    assert not isinstance(info.value, ArityError)
    assert info.value.column == column and info.value.expected == (")",)
    assert str(info.value).startswith(f"unexpected {token!r} at line 1")


def test_bad_action_keyword():
    with pytest.raises(ArityError) as info:
        parse_expression("sphere(1, sideways)")
    assert "free" in info.value.expected


def test_sphere_zero_rejected_at_evaluation():
    tree = parse_expression("sphere(0, free)")
    with pytest.raises(InvalidAtom):
        evaluate(tree)


def test_trailing_input():
    with pytest.raises(ExpressionSyntaxError):
        parse_expression("point() point()")


def test_unexpected_character():
    with pytest.raises(ExpressionSyntaxError) as info:
        parse_expression("point();")
    assert info.value.column == 8


def test_error_reports_position_on_second_line():
    with pytest.raises(ExpressionSyntaxError) as info:
        parse_expression("diff(point(),\n gadget())")
    assert info.value.line == 2


def test_integer_length_limits():
    # leading zeros count neither against a limit nor against int()
    tree = parse_expression("lift(" + "0" * 5000 + "3u^" + "0" * 5000 + "2)")
    assert tree.args == (IntPoly({2: 3}),)
    longest = "9" * MAX_COEFFICIENT_DIGITS
    assert parse_expression(f"lift({longest})").args == (IntPoly({0: int(longest)}),)
    with pytest.raises(ExpressionSyntaxError) as info:
        parse_expression(f"lift(u + 1{longest})")
    assert info.value.column == 10


def test_nesting_depth_limit():
    def nested(depth):  # ``depth`` calls, each inside the one before
        return "union(" * (depth - 1) + "point()" + ", point())" * (depth - 1)

    deepest = _Parser.MAX_DEPTH
    assert evaluate(parse_expression(nested(deepest))).value \
        == RationalU(deepest * U, U - 1)
    with pytest.raises(ExpressionSyntaxError) as info:
        parse_expression("\n" + nested(deepest + 1))
    assert (info.value.line, info.value.column) == (2, 6 * deepest + 1)
    # siblings do not add up: only calls open at the same time count
    wide = "union(" + nested(deepest - 1) + ", " + nested(deepest - 1) + ")"
    assert evaluate(parse_expression(wide)).value \
        == RationalU(2 * (deepest - 1) * U, U - 1)


def test_quotient_result_is_not_a_class():
    with pytest.raises(ArityError):
        evaluate(parse_expression("union(quotient(pair()), point())"))


def test_quotient_argument_refused_where_it_stands():
    with pytest.raises(ArityError) as info:
        parse_expression("union(point(),\n  quotient(pair()))")
    assert (info.value.line, info.value.column) == (2, 3)
    assert str(info.value).startswith("argument 2 of union must be")
    assert str(info.value).endswith(" at line 2, column 3")
    # a constructed expression is refused on evaluation, with no position
    built = Expression("union", (Expression("quotient", (
        Expression("pair", ()),)), Expression("point", ())))
    with pytest.raises(ArityError) as info:
        evaluate(built)
    assert info.value.line is None
    assert str(info.value) == ("argument 1 of union must be a class-valued "
                               "expression, not a quotient polynomial")


def test_affprod_negative_dimension_is_a_toolkit_error():
    with pytest.raises(InvalidAtom):
        evaluate(parse_expression("affprod(point(), -1)"))


def test_lift_sign_check_propagates():
    with pytest.raises(NegativeCoefficient):
        evaluate(parse_expression("lift(2u^3 - 1)"))
