"""Command line front end.

Verbs: ``eval`` (expression language), ``homology`` (G-CW file), ``zeta``
(resolution file), ``oracle`` (monomial arc spaces), ``verify`` (built-in
suites).  Results go to stdout, diagnostics to stderr; exit status is 0 on
success, 1 on input or validation errors, 2 when a verification check fails.

``main`` builds only the subparser of the verb it is given (all five when
the first argument is not exactly a verb), afresh on every call.  There is
no module-level parser: one would be faster still, but it raised the
benchmark's ``cli_session`` ``peak_rss_mb`` by about 21%.
"""

from __future__ import annotations

import argparse
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
    if not 0 <= n_max - n_min <= MAX_ORDER:
        raise ToolkitError(f"bad range {text!r}, expected NMIN <= NMAX "
                           f"<= NMIN + {MAX_ORDER}")
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

#: Upper bound of N, ``--order``, ``--expand`` and the span NMAX - NMIN of
#: ``homology --range``, checked before any work: at this size ``oracle N
#: --order 1024 --compare-dl`` takes about a second (1.1 s for N = 3 on a
#: 2-CPU VM).
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
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if value > MAX_ORDER:
            raise argparse.ArgumentTypeError(
                f"must be <= {MAX_ORDER}, got {value}")
        return value
    return parse


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are input errors: exit 1
        self.print_usage(sys.stderr)
        raise ToolkitError(message)


def _add_eval(sub) -> None:
    p_eval = sub.add_parser("eval", help="evaluate a class expression")
    p_eval.add_argument("expression")
    p_eval.add_argument("--expand", type=_int_at_least(0), metavar="K",
                        help="append the Laurent window down to u^-K")
    p_eval.set_defaults(handler=_cmd_eval)


def _add_homology(sub) -> None:
    p_hom = sub.add_parser("homology", help="equivariant homology of a G-CW file")
    p_hom.add_argument("file")
    p_hom.add_argument("--range", metavar="NMIN..NMAX",
                       help="degrees to tabulate (default -5..dim+1)")
    p_hom.add_argument("--series", action="store_true",
                       help="also print the equivariant series")
    p_hom.set_defaults(handler=_cmd_homology)


def _add_zeta(sub) -> None:
    p_zeta = sub.add_parser("zeta", help="zeta functions from resolution data")
    p_zeta.add_argument("file")
    p_zeta.add_argument("--sign", choices=["+", "-", "naive"], default="+")
    p_zeta.add_argument("--expand", type=_int_at_least(0), nargs="?", const=0,
                        metavar="K",
                        help="append the T-expansion to order K "
                             "(default or 0: 4 periods of every factor)")
    p_zeta.set_defaults(handler=_cmd_zeta)


def _add_oracle(sub) -> None:
    p_oracle = sub.add_parser("oracle",
                              help="definition-level arc classes of x^N")
    p_oracle.add_argument("exponent", type=_int_at_least(1), metavar="N")
    p_oracle.add_argument("--sign", choices=["+", "-"], default="+")
    p_oracle.add_argument("--order", type=_int_at_least(1), default=12,
                          metavar="K")
    p_oracle.add_argument("--compare-dl", action="store_true",
                          help="compare against the resolution-data engine")
    p_oracle.set_defaults(handler=_cmd_oracle)


def _add_verify(sub) -> None:
    p_verify = sub.add_parser("verify", help="run the built-in check suites")
    p_verify.add_argument("--suite", choices=list(verify.SUITES), default="all")
    p_verify.set_defaults(handler=_cmd_verify)


#: Verb -> the function that registers its subparser, in ``--help`` order.
_VERBS = {"eval": _add_eval, "homology": _add_homology, "zeta": _add_zeta,
          "oracle": _add_oracle, "verify": _add_verify}


def build_parser(verb=None) -> argparse.ArgumentParser:
    """The parser of every verb, or of ``verb`` alone when one is named.

    With one verb the usage line still lists all five, so an error that the
    top-level parser reports reads the same either way.
    """
    parser = _Parser(prog="z2beta",
                     description="Equivariant virtual Poincare series and "
                                 "zeta functions of Nash germs, exactly.")
    if verb is None:
        # no metavar: it would rename the verb in the "invalid choice" and
        # "required" errors
        sub = parser.add_subparsers(dest="verb", required=True)
        for add in _VERBS.values():
            add(sub)
    else:
        sub = parser.add_subparsers(dest="verb", required=True,
                                    metavar="{" + ",".join(_VERBS) + "}")
        _VERBS[verb](sub)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv and argv[0] in _VERBS else None)
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except (ToolkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
