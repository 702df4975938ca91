"""Exception hierarchy for the toolkit.

Every error raised on purpose derives from ToolkitError, so callers (and the
command line front end) can separate bad input from genuine bugs.
"""


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------------------
# exact algebra

class DivisionByZero(ToolkitError, ZeroDivisionError):
    """Division by the zero rational function."""


class NonIntegerExpansion(ToolkitError):
    """A Laurent coefficient failed to be an integer.

    Cannot happen for values in the image of the equivariant series; it
    signals corrupted input (a denominator that is not monic after
    normalization).
    """


class PoleAtPoint(ToolkitError):
    """Evaluation of a rational function at a root of its denominator."""


# ---------------------------------------------------------------------------
# G-CW homology

class InvalidComplex(ToolkitError):
    """The cellular data violates an invariant; the message lists them."""


class FixedSetNotSubcomplex(ToolkitError):
    """The involution-fixed cells are not closed under the boundary map."""


# ---------------------------------------------------------------------------
# calculus of virtual classes

class NormalFormError(ToolkitError):
    """A value does not decompose as polynomial + tail * u/(u-1)."""


class InvalidAtom(ToolkitError):
    """Atom parameters out of range, or a custom atom out of normal form."""


class NegativeCoefficient(ToolkitError):
    """Lift of a polynomial with negative coefficients without the override."""


class NotFree(ToolkitError):
    """Quotient requested for a class whose fixed tail is nonzero."""


class AssertionMissing(ToolkitError):
    """A caller-side geometric assertion (freeness, fixed set) was not given."""


# ---------------------------------------------------------------------------
# zeta engine

class BadGcd(ToolkitError):
    """A stratum's stored multiplicity gcd disagrees with its divisors."""


class UnknownDivisor(ToolkitError):
    """A stratum references a divisor id that was never declared."""


class MalformedInput(ToolkitError):
    """Structurally broken input file."""


# ---------------------------------------------------------------------------
# arc oracle

class ConstraintMismatch(ToolkitError):
    """The symbolic arc conditions do not reduce to the triangular system."""


# ---------------------------------------------------------------------------
# expression front end

class ExpressionSyntaxError(ToolkitError, ValueError):
    """Error in expression or polynomial text, with the line and column where
    it was found; one raised after parsing, without a position, prints
    none."""

    def __init__(self, message, line=None, column=None, expected=()):
        super().__init__(message)
        self.line = line
        self.column = column
        self.expected = tuple(expected)

    def __str__(self):
        text = super().__str__()
        if self.line is not None:
            text += f" at line {self.line}, column {self.column}"
        if self.expected:
            text += f" (expected {', '.join(self.expected)})"
        return text


class UnknownAtom(ExpressionSyntaxError):
    """Unknown function name in an expression."""


class ArityError(ExpressionSyntaxError):
    """Wrong number or kind of arguments to an expression function."""
