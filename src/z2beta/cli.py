"""Command line front end.

Verbs: ``eval`` (expression language), ``homology`` (G-CW file), ``zeta``
(resolution file), ``oracle`` (monomial arc spaces), ``verify`` (built-in
suites).  Results go to stdout, diagnostics to stderr; exit status is 0 on
success, 1 on input or validation errors, 2 when a verification check fails.

``main`` parses each argv once, with a parser of its verb alone built
afresh on each call; it prints that verb's help and errors itself.  Only
an argv without a verb, or one whose verb parser leaves an argument over,
goes to the full parser of every verb, which reports it in argparse's own
words.  All help and usage text wraps at 78 columns, the width argparse
uses when there is no terminal, so it is the same bytes under every
terminal width and no parse asks for the terminal size.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys

from . import arcs, homology, verify, zeta
from .algebra import (IntPoly, LaurentWindow, RationalU, laurent_expand,
                      render_terms)
from .calculus import VirtualClass
from .dsl import evaluate, parse_expression
from .errors import ToolkitError


# ---------------------------------------------------------------------------
# formatting

def format_class(value: VirtualClass) -> str:
    """Canonical fraction plus the normal form as a readable sum.

    The sum prints as  (P(u) + c) + c/(u - 1)  because c*u/(u-1) is
    c + c/(u-1); that is how the worked values are usually written.
    """
    canonical = str(value.value)
    head = value.poly_part + value.fixed_tail
    tail = value.fixed_tail
    if tail == 0:
        pretty = str(head)
    else:
        joiner = " + " if tail > 0 else " - "
        pretty = f"{head}{joiner}{abs(tail)}/(u - 1)"
    if pretty == canonical:
        return canonical
    return f"{canonical}\n  = {pretty}"


def format_window(window: LaurentWindow) -> str:
    text = render_terms(window.terms())
    if window.eventually_constant is None:
        return text + " + ..."
    if window.eventually_constant != 0:
        text += " + ..."
    return f"{text}\n  tail: {window.eventually_constant}"


def _format_t_series(pairs) -> str:
    """One ``T^n : c`` line per (n, coefficient) pair."""
    return "\n".join(f"T^{n} : {coeff}" for n, coeff in pairs)


def format_output(value, expand=None) -> str:
    """Canonical text for any result value.

    With ``expand`` = k the text is the Laurent window down to exponent -k
    for series values and quotient polynomials, or the closed form and its
    T-expansion table to order k for zeta closed forms.
    """
    if expand is not None:
        if isinstance(value, VirtualClass):
            value = value.value
        elif isinstance(value, IntPoly):  # a quotient's ordinary polynomial
            value = RationalU(value)
        if isinstance(value, RationalU):
            top = int(value.degree) if not value.is_zero() else 0
            window = laurent_expand(value, max(1, top + expand + 1))
            return format_window(window)
        if isinstance(value, zeta.ZetaClosedForm):
            series = zeta.expand_zeta(value, expand)
            return f"{value}\n{_format_t_series(series)}"
    if isinstance(value, VirtualClass):
        return format_class(value)
    return str(value)


# ---------------------------------------------------------------------------
# verbs

def _cmd_eval(args) -> int:
    tree = parse_expression(args.expression)
    print(format_output(evaluate(tree), args.expand))
    return 0


def _parse_range(text: str):
    low, sep, high = text.partition("..")
    if not sep:
        raise ToolkitError(f"bad range {text!r}, expected NMIN..NMAX")
    try:
        n_min, n_max = _ascii_int(low), _ascii_int(high)
    except ValueError as exc:
        raise ToolkitError(f"bad range {text!r}: {exc}") from exc
    if not 0 <= n_max - n_min <= homology.MAX_DEGREE_SPAN:
        raise ToolkitError(f"bad range {text!r}, expected NMIN <= NMAX "
                           f"<= NMIN + {homology.MAX_DEGREE_SPAN}")
    return n_min, n_max


def _cmd_homology(args) -> int:
    complex_ = homology.GCWComplex.load(args.file)
    if args.range:
        n_min, n_max = _parse_range(args.range)
    else:
        n_min, n_max = -5, max(complex_.top_dimension, 0) + 1
    table = homology.homology_table(complex_, n_min, n_max)
    for n in sorted(table.group_dims, reverse=True):
        print(f"H_{n} : {table.group_dims[n]}")
    if table.stable_negative_dim is not None:
        print(f"below : {table.stable_negative_dim}")
    if args.series:
        series = homology.equivariant_betti_series(complex_)
        print(f"series: {format_class(series)}")
    return 0


def _cmd_zeta(args) -> int:
    resolution = zeta.load_resolution(args.file)
    if args.sign == "naive":
        form = zeta.dl_zeta_naive(resolution)
    else:
        form = zeta.dl_zeta_signed(resolution, args.sign)
    if args.expand == 0:  # --expand without a value
        args.expand = zeta.default_expansion_order(resolution)
    print(format_output(form, args.expand))
    return 0


def _cmd_oracle(args) -> int:
    germ = arcs.MonomialGerm(args.exponent)
    if args.compare_dl:
        report = arcs.compare_with_dl(germ, args.order)
        for entry in report.entries:
            print(entry)
        return 0 if report.all_consistent else 2
    print(_format_t_series(arcs.oracle_zeta(germ, args.sign, args.order)))
    return 0


def _cmd_verify(args) -> int:
    results = verify.run_suite(args.suite)
    for result in results:
        mark = "PASS" if result.passed else "FAIL"
        line = f"[{mark}] {result.name}"
        if result.detail:
            line += f" -- {result.detail}"
        print(line)
    failed = sum(1 for r in results if not r.passed)
    print(f"{len(results)} checks, {failed} failed")
    return 2 if failed else 0


# ---------------------------------------------------------------------------

#: Upper bound of N, ``--order`` and ``--expand``, checked before any work:
#: at this size ``oracle N --order 1024 --compare-dl`` takes at most about
#: 0.05 s in-process (N = 1; 0.03 s for N = 3 on a 2-CPU VM).  The span
#: NMAX - NMIN of ``homology --range`` is bounded by
#: ``homology.MAX_DEGREE_SPAN``.
MAX_ORDER = 1024


def _ascii_int(text: str) -> int:
    """int(text) for [+-]?[0-9]+ only, not other digits, "_" or spaces."""
    if not re.fullmatch("[+-]?[0-9]+", text):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def _int_at_least(low: int):
    """argparse type: an integer from ``low`` to MAX_ORDER."""
    def parse(text: str) -> int:
        try:
            value = _ascii_int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if not low <= value <= MAX_ORDER:
            bound = f">= {low}" if value < low else f"<= {MAX_ORDER}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value
    return parse


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):  # subparsers are built as this class too
        # the width argparse takes with no terminal, so none is asked for
        super().__init__(formatter_class=functools.partial(
            argparse.HelpFormatter, width=78), **kwargs)

    def error(self, message):  # usage problems are input errors: exit 1
        self.print_usage(sys.stderr)
        raise ToolkitError(message)


def _add_eval(parser) -> None:
    parser.add_argument("expression")
    parser.add_argument("--expand", type=_int_at_least(0), metavar="K",
                        help="append the Laurent window down to u^-K")
    parser.set_defaults(handler=_cmd_eval)


def _add_homology(parser) -> None:
    parser.add_argument("file")
    parser.add_argument("--range", metavar="NMIN..NMAX",
                        help="degrees to tabulate (default -5..dim+1)")
    parser.add_argument("--series", action="store_true",
                        help="also print the equivariant series")
    parser.set_defaults(handler=_cmd_homology)


def _add_zeta(parser) -> None:
    parser.add_argument("file")
    parser.add_argument("--sign", choices=["+", "-", "naive"], default="+")
    parser.add_argument("--expand", type=_int_at_least(0), nargs="?", const=0,
                        metavar="K",
                        help="append the T-expansion to order K "
                             "(default or 0: 4 periods of every factor)")
    parser.set_defaults(handler=_cmd_zeta)


def _add_oracle(parser) -> None:
    parser.add_argument("exponent", type=_int_at_least(1), metavar="N")
    parser.add_argument("--sign", choices=["+", "-"], default="+")
    parser.add_argument("--order", type=_int_at_least(1), default=12,
                        metavar="K")
    parser.add_argument("--compare-dl", action="store_true",
                        help="compare against the resolution-data engine")
    parser.set_defaults(handler=_cmd_oracle)


def _add_verify(parser) -> None:
    parser.add_argument("--suite", choices=list(verify.SUITES), default="all")
    parser.set_defaults(handler=_cmd_verify)


#: Verb -> (help line, function adding its arguments), in ``--help`` order.
_VERBS = {"eval": ("evaluate a class expression", _add_eval),
          "homology": ("equivariant homology of a G-CW file", _add_homology),
          "zeta": ("zeta functions from resolution data", _add_zeta),
          "oracle": ("definition-level arc classes of x^N", _add_oracle),
          "verify": ("run the built-in check suites", _add_verify)}


def _verb_parser(verb: str) -> argparse.ArgumentParser:
    """The parser of ``verb`` alone, the same as its subparser in
    ``build_parser``, so its help and errors print the same bytes."""
    parser = _Parser(prog=f"z2beta {verb}")
    _VERBS[verb][1](parser)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser, with one subparser per verb."""
    parser = _Parser(prog="z2beta", description="Equivariant virtual Poincare "
                     "series and zeta functions of Nash germs, exactly.")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (help_line, add) in _VERBS.items():
        add(sub.add_parser(verb, help=help_line))
    return parser


def _parse_args(argv):
    """Parse argv with its verb's parser; the full parser reports an argv
    without a verb, and an argument that the verb's parser leaves over."""
    if argv and argv[0] in _VERBS:
        args, extra = _verb_parser(argv[0]).parse_known_args(argv[1:])
        if not extra:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse_args(argv)
        return args.handler(args)
    except (ToolkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
