"""The command line front end: output formats and exit codes."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from z2beta import cli, homology, verify
from z2beta.algebra import IntPoly, RationalU, laurent_expand
from z2beta.calculus import Atom, atom_class
from z2beta.cli import format_class, format_output, format_window, main
from z2beta.homology import MAX_CELLS
from regenerate_golden import GOLDEN, REFUSALS, slug

U = IntPoly.u()


X2Y4 = {
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
}


POINT = {"cells": [{"id": "v", "dim": 0}]}


def _x2y4_with(divisor=None, base=None):
    """X2Y4 with fields of the first divisor, or every base, replaced."""
    data = json.loads(json.dumps(X2Y4))
    data["divisors"][0].update(divisor or {})
    for stratum in data["strata"]:
        stratum["base"] = base or stratum["base"]
    return data


@pytest.fixture()
def x2y4_file(tmp_path):
    path = tmp_path / "x2y4.json"
    path.write_text(json.dumps(X2Y4), encoding="utf-8")
    return path


@pytest.fixture()
def circle_file(tmp_path):
    path = tmp_path / "s1.json"
    path.write_text(json.dumps({
        "cells": [{"id": "v1", "dim": 0}, {"id": "v2", "dim": 0},
                  {"id": "e1", "dim": 1}, {"id": "e2", "dim": 1}],
        "boundary": {"e1": ["v1", "v2"], "e2": ["v1", "v2"]},
        "sigma": {"v1": "v2", "v2": "v1", "e1": "e2", "e2": "e1"},
        "fixed_is_geometric": True,
    }), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# formatting

def test_format_class_point():
    text = format_class(atom_class(Atom.point()))
    assert text.splitlines()[0] == "u/(u - 1)"
    assert "1 + 1/(u - 1)" in text


def test_format_class_polynomial_value():
    assert format_class(atom_class(Atom.pair())) == "1"
    assert format_class(atom_class(Atom.sphere(2, "free"))) == "u^2 + u + 1"


def test_format_window():
    window = laurent_expand(RationalU(U, U - 1), 4)
    text = format_window(window)
    assert text.splitlines()[0] == "1 + u^-1 + u^-2 + u^-3 + ..."
    assert text.splitlines()[1].strip() == "tail: 1"


def test_format_window_skips_zero_terms():
    window = laurent_expand(RationalU(U ** 2 + 1, U), 3)
    assert format_window(window).splitlines()[0] == "u + u^-1"


def test_format_output_unknown_tail():
    # the coefficients of 1/(u^2 + 1) repeat with period 4, so the window
    # names no constant tail
    assert (format_output(RationalU.parse("1/(u^2 + 1)"), 5)
            == "u^-2 - u^-4 + ...")


def test_format_output_zero():
    assert format_output(RationalU.zero()) == "0"


def test_format_output_expand_mode():
    text = format_output(atom_class(Atom.point()), expand=3)
    assert text.startswith("1 + u^-1 + u^-2 + u^-3")


# ---------------------------------------------------------------------------
# verbs and exit codes

def test_eval_curve(capsys):
    code = main(["eval", "curve(both_negated)"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "u^2/(u - 1)"
    assert "u + 1 + 1/(u - 1)" in out


def test_eval_curve_y_negated(capsys):
    main(["eval", "curve(y_negated)"])
    assert "u + 2 + 3/(u - 1)" in capsys.readouterr().out


def test_eval_with_expansion(capsys):
    code = main(["eval", "point()", "--expand", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "1 + u^-1 + u^-2 + u^-3 + ..." in out
    assert "tail: 1" in out


def test_eval_quotient_with_expansion(capsys):
    # a quotient's ordinary polynomial is read as a series over 1
    code = main(["eval", "quotient(sphere(2,free))", "--expand", "3"])
    assert code == 0
    assert capsys.readouterr().out == "u^2 + u + 1\n  tail: 0\n"


def test_eval_error_exit_code(capsys):
    code = main(["eval", "sphere(0,free)"])
    err = capsys.readouterr().err
    assert code == 1
    assert "sphere dimension" in err


def test_eval_parse_error_position(capsys):
    code = main(["eval", "diff(point(),"])
    assert code == 1
    assert "line 1" in capsys.readouterr().err


def test_zeta_closed_form(x2y4_file, capsys):
    code = main(["zeta", str(x2y4_file), "--sign", "+"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert out == "u * [2,2] + (u - 1) * [2,2] * [4,3] + u * [4,3]"


def test_zeta_naive_form(x2y4_file, capsys):
    code = main(["zeta", str(x2y4_file), "--sign", "naive"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert out == ("(u^2 - u) * [2,2] + (u^2 - 2u + 1) * [2,2] * [4,3]"
                   " + (u^2 - u) * [4,3]")


def test_zeta_expansion_table(x2y4_file, capsys):
    code = main(["zeta", str(x2y4_file), "--sign", "+", "--expand", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "T^2 : 1/u" in out
    assert "T^4 :" in out


def test_zeta_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{\"ambient_dim\": 0}", encoding="utf-8")
    assert main(["zeta", str(path)]) == 1
    assert "ambient_dim" in capsys.readouterr().err


def test_homology_table(circle_file, capsys):
    # a leading minus needs --range=...; argparse would read it as a flag
    code = main(["homology", str(circle_file), "--range=-3..2", "--series"])
    out = capsys.readouterr().out
    assert code == 0
    lines = dict(line.split(" : ") for line in out.splitlines()
                 if " : " in line)
    assert lines["H_1"] == "1" and lines["H_0"] == "1"
    assert lines["H_-1"] == "0"
    assert "series: u + 1" in out


def test_homology_invalid_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "cells": [{"id": "v", "dim": 0}, {"id": "e", "dim": 1}],
        "sigma": {"v": "e", "e": "v"},
    }), encoding="utf-8")
    assert main(["homology", str(path)]) == 1
    assert "invalid" in capsys.readouterr().err


def test_range_span_is_the_library_bound(tmp_path, capsys, monkeypatch):
    # ``homology --range`` refuses what ``homology_table`` would refuse,
    # and accepts the default table at the largest dimension
    top = tmp_path / "top.json"
    top.write_text(json.dumps({"cells": [{"id": "v", "dim": 1024}]}),
                   encoding="utf-8")
    assert main(["homology", str(top)]) == 0
    default = capsys.readouterr().out
    assert main(["homology", str(top), "--range=-5..1025"]) == 0
    assert capsys.readouterr().out == default
    path = tmp_path / "point.json"
    path.write_text(json.dumps(POINT), encoding="utf-8")
    monkeypatch.setattr(homology, "MAX_DEGREE_SPAN", 3)
    assert main(["homology", str(path), "--range=0..3"]) == 0
    assert main(["homology", str(path), "--range=0..4"]) == 1
    assert capsys.readouterr().err.endswith(
        "error: bad range '0..4', expected NMIN <= NMAX <= NMIN + 3\n")


def test_range_is_refused_before_the_file_is_read(circle_file, capsys,
                                                   monkeypatch):
    assert main(["homology", "nosuch.json", "--range=3..1"]) == 1
    assert capsys.readouterr().err.startswith("error: bad range '3..1'")
    monkeypatch.setattr(homology.GCWComplex, "load", lambda path: pytest.fail(
        "the complex was loaded before its range was checked"))
    assert main(["homology", str(circle_file), "--range=3"]) == 1
    assert capsys.readouterr().err == (
        "error: bad range '3', expected NMIN..NMAX\n")


def test_oracle_coefficients(capsys):
    code = main(["oracle", "2", "--order", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "T^2 : 1/u" in out
    assert "T^4 : 2/(u^2 - u)" in out


def test_oracle_compare(capsys):
    code = main(["oracle", "2", "--order", "8", "--compare-dl"])
    out = capsys.readouterr().out
    assert code == 0
    assert "known_divergence" in out


def test_verify_paper_suite(capsys):
    code = main(["verify", "--suite", "paper"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS]" in out
    assert "[FAIL]" not in out
    assert "0 failed" in out


def test_verify_failing_check_is_reported(capsys, monkeypatch):
    monkeypatch.setattr(verify, "run_suite", lambda suite: [
        verify.CheckResult("holds", True),
        verify.CheckResult("breaks", False, "got 1, expected 2")])
    code = main(["verify"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 2
    assert "[FAIL] breaks -- got 1, expected 2" in lines
    assert lines[-1] == "2 checks, 1 failed"


def test_missing_file_is_input_error(capsys):
    assert main(["zeta", "/nonexistent/path.json"]) == 1


def test_usage_error_is_input_error(capsys):
    assert main(["zeta"]) == 1
    assert main(["frobnicate"]) == 1


USAGE_ARGV = [
    [], ["-h"], ["--help"], ["eval", "-h"], ["homology", "-h"],
    ["zeta", "-h"], ["oracle", "-h"], ["verify", "-h"], ["bogus"], ["ev"],
    ["--bogus", "eval", "point()"], ["eval", "point()", "extra"],
    ["eval", "point()", "--bogus"], ["zeta", "{file}", "--sign", "q"],
    ["verify", "--suite", "x"], ["oracle", "0"], ["oracle", "2000"],
    ["eval", "point()", "--expand", "x"], ["eval", "point()", "-h"],
    ["eval", "point()", "--exp", "3"], ["eval", "point()", "--expand=3"],
    ["eval", "point()", "--expand", "3", "--expand", "4"],
    ["eval", "--", "point()"], ["eval", "point()", "--", "extra"],
    ["oracle", "3", "--order", "4", "--", "5"],
    ["oracle", "3", "--ord", "4", "--sign", "-"],
    ["zeta", "{file}", "--expand"], ["verify", "--suite", "paper", "extra"],
    # rejected by the verb's parser, which prints the error itself
    ["eval"], ["homology"], ["eval", "--h"], ["eval", "--he", "point()"],
    ["eval", "-hx"], ["oracle", "3", "--order"], ["zeta", "{file}", "--sign"],
    ["eval", "point()", "--expand", "-1"], ["oracle", "3", "--sign", "-h"],
    ["verify", "--su"],
]


def _run_main(argv, capsys):
    """(exit code, stdout, stderr) of main(argv); --help exits."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", USAGE_ARGV,
                         ids=[" ".join(a) or "none" for a in USAGE_ARGV])
def test_one_verb_parser_prints_as_the_full_one(argv, x2y4_file, capsys,
                                                monkeypatch):
    # argparse wording differs between Python versions, so the golden
    # corpus leaves it out; this compares it on whichever Python runs
    argv = [arg.format(file=x2y4_file) for arg in argv]
    built = _run_main(argv, capsys)
    monkeypatch.setattr(cli, "_parse_args",
                        lambda argv: cli.build_parser().parse_args(argv))
    assert built == _run_main(argv, capsys)


#: Verb -> argv that its parser accepts whole.
VALID_ARGV = {
    "eval": [["point()"], ["point()", "--expand", "3"],
             ["--expand=0", "--", "pair()"], ["--exp", "2", "point()"]],
    "homology": [["{file}"], ["{file}", "--range=-3..2", "--series"]],
    "zeta": [["{file}"], ["{file}", "--sign", "naive", "--expand"],
             ["{file}", "--expand", "8", "--sign", "-"]],
    "oracle": [["3"], ["2", "--sign", "-", "--order", "4"],
               ["3", "--ord", "8", "--compare-dl"]],
    "verify": [[], ["--suite", "paper"], ["--suite=all"]],
}


@pytest.mark.parametrize("verb", list(cli._VERBS))
def test_verb_parser_reads_as_the_full_one(verb, x2y4_file):
    for rest in VALID_ARGV[verb]:
        rest = [arg.format(file=x2y4_file) for arg in rest]
        full = vars(cli.build_parser().parse_args([verb] + rest))
        assert full.pop("verb") == verb
        assert vars(cli._verb_parser(verb).parse_args(rest)) == full, rest


@pytest.mark.parametrize("argv", [
    ["eval", "point()", "--expand", "2"], ["homology", "{file}", "--series"],
    ["zeta", "{file}", "--expand", "4"], ["oracle", "2", "--order", "4"],
    ["verify", "--suite", "paper"]], ids=list(cli._VERBS))
def test_valid_call_asks_for_no_help_text(argv, circle_file, x2y4_file,
                                          monkeypatch, capsys):
    # a parser with the default formatter queries the terminal size, and a
    # valid argv is parsed by its verb's parser alone
    def refuse(*args, **kwargs):
        raise AssertionError("a valid call asked for help text")
    monkeypatch.setattr(shutil, "get_terminal_size", refuse)
    monkeypatch.setattr(cli, "build_parser", refuse)
    file = circle_file if argv[0] == "homology" else x2y4_file
    assert main([arg.format(file=file) for arg in argv]) == 0


@pytest.mark.parametrize("argv", [["--help"]] + [[verb, "-h"]
                                                 for verb in cli._VERBS],
                         ids=["none"] + list(cli._VERBS))
def test_help_is_the_same_at_every_terminal_width(argv, monkeypatch, capsys):
    printed = []
    for columns in (40, 200):
        monkeypatch.setattr(shutil, "get_terminal_size",
                            lambda *args, columns=columns:
                            os.terminal_size((columns, 24)))
        printed.append(_run_main(argv, capsys))
    assert printed[0] == printed[1]
    assert printed[0][0] == 0 and printed[0][1].startswith("usage: z2beta")


def test_refusal_text_is_the_same_under_every_hash_seed():
    # the refusal corpus holds the two refusals whose text once followed
    # hash order: three faces of one cell that are not cells, and a stratum
    # naming two unknown divisors
    code = ("import sys; from regenerate_golden import REFUSALS, render\n"
            "sys.stdout.buffer.write(b''.join(map(render, REFUSALS)))")
    path = os.pathsep.join([str(Path(cli.__file__).resolve().parents[1]),
                            str(GOLDEN.parent)])
    printed = [subprocess.run(
        [sys.executable, "-c", code], capture_output=True, check=True,
        env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed}).stdout
        for seed in ("1", "2")]
    assert printed[0] == printed[1]
    assert printed[0] == b"".join(
        (GOLDEN / slug(argv)).read_bytes() for argv in REFUSALS)


def _count_parsers(monkeypatch):
    count = []
    init = cli._Parser.__init__

    def counting(self, *args, **kwargs):
        count.append(1)
        init(self, *args, **kwargs)
    monkeypatch.setattr(cli._Parser, "__init__", counting)
    return count


def test_main_builds_only_the_named_verb(monkeypatch, capsys):
    count = _count_parsers(monkeypatch)
    assert main(["eval", "point()"]) == 0
    assert len(count) == 1
    count.clear()
    with pytest.raises(SystemExit):
        main(["--help"])
    assert len(count) == 6
    count.clear()
    # a left-over argument is reported by the full parser
    assert main(["eval", "point()", "extra"]) == 1
    assert len(count) == 1 + 6
    count.clear()
    # an argument the verb's parser rejects is reported by that parser
    assert main(["oracle", "3", "--order", "0"]) == 1
    assert len(count) == 1


def test_main_reads_sys_argv(monkeypatch, capsys):
    count = _count_parsers(monkeypatch)
    monkeypatch.setattr(sys, "argv", ["z2beta", "eval", "point()"])
    assert main() == 0
    assert capsys.readouterr().out.startswith("u/(u - 1)\n")
    assert len(count) == 1


@pytest.mark.parametrize("argv, content", [
    (["homology", "{file}"], {"cells": [{"dim": 0}]}),
    (["homology", "{file}"], [{"id": "v", "dim": 0}]),
    (["homology", "{file}"], "not json"),
    (["zeta", "{file}"], "not json"),
    (["zeta", "{file}", "--expand", "-3"], None),
    (["eval", "point()", "--expand", "-3"], None),
    (["oracle", "0"], None),
    (["oracle", "2", "--order", "0"], None),
    (["zeta", "{file}"], {"ambient_dim": 1, "divisors": [],
                          "strata": [{"I": 5}]}),
    (["zeta", "{file}"], {"ambient_dim": 1, "divisors": 7}),
    (["zeta", "{file}"], {"ambient_dim": 1,
                          "divisors": [{"id": "E1", "N": 2, "nu": 1}],
                          "strata": [{"I": ["E1"], "m": "x"}]}),
    (["zeta", "{file}"], {"ambient_dim": 1, "divisors": [], "strata": [7]}),
    (["homology", "{file}"], {"cells": [{"id": "v", "dim": -3}]}),
    (["oracle", "2", "--order", "100000"], None),
    (["zeta", "{file}", "--expand", "100000"], None),
    (["eval", "lift(u^100000000)"], None),
    (["eval", "lift(u^" + "9" * 5000 + ")"], None),
    (["eval", "lift(" + "1" * 5000 + ")"], None),
    (["zeta", "{file}"], _x2y4_with({"N": 2.9})),
    (["zeta", "{file}"], _x2y4_with({"N": "4"})),
    (["zeta", "{file}"], _x2y4_with({"nu": True})),
    (["homology", "{file}"], {"cells": [{"id": "v", "dim": 0},
                                        {"id": "e", "dim": 1.9}]}),
    (["homology", "{file}"], {"cells": [{"id": "v", "dim": "0"}]}),
    (["homology", "{file}", "--range=-2..-5"], POINT),
    (["homology", "{file}", "--range=3..1"], POINT),
    (["homology", "{file}", "--range=-600..600"], POINT),
    (["zeta", "{file}", "--sign", "naive", "--expand", "8"],
     _x2y4_with(base="9" * 4300)),
    (["eval", "lift(\u00b2)"], None),
    (["homology", "{file}"], {"cells": [{"id": "v", "dim": 20000}]}),
    (["eval", "union(" * 500 + "point()" + ", point())" * 500], None),
    (["homology", "{file}"], {"cells": [{"id": "v", "dim": 0},
                                        {"id": "e", "dim": 1}],
                              "sigma": {"v": "e", "e": "v"}}),
    (["homology", "{file}"], "[" * 100000 + "]" * 100000),
    (["zeta", "{file}"], "[" * 100000 + "]" * 100000),
    (["homology", "{file}"], {"cells": [{"id": f"v{i}", "dim": 0}
                                        for i in range(MAX_CELLS + 1)]}),
    (["homology", "{file}"], {"cells": [{"id": 1, "dim": 0},
                                        {"id": 1, "dim": 1}]}),
    (["homology", "{file}"], {"cells": [{"id": "p", "dim": 0},
                                        {"id": "q", "dim": 0}],
                              "sigma": {"p": "q", "q": "p"},
                              "fixed_is_geometric": "false"}),
    (["homology", "{file}"], {"cells": [{"id": "v", "dim": 0},
                                        {"id": "w", "dim": 0},
                                        {"id": "e", "dim": 1}],
                              "boundary": {"e": "vw"}}),
    (["eval", "affprod(point(), -1)"], None),
    (["eval", "custom(1/(u^2 - 2u + 1), 1, 1)"], None),
    (["homology", "{file}"], {"ambient_dim": 1, "divisors": [],
                              "strata": []}),
    (["zeta", "{file}", "--sign", "+"], {
        "ambient_dim": 2,
        "divisors": [{"id": "E1", "N": 2, "nu": 2},
                     {"id": "E2", "N": 2, "nu": 2}],
        "strata": [{"I": [i], "cov_plus": {"poly": "0", "tail": int("9" * 4300)}}
                   for i in ("E1", "E2")]}),
    (["zeta", "{file}", "--expand", "2"], {
        "ambient_dim": 1,
        "divisors": [{"id": "E1", "N": 1, "nu": int("9" * 4300)}],
        "strata": [{"I": ["E1"], "cov_plus": {"poly": "1", "tail": 0}}]}),
    (["zeta", "{file}"], {
        "ambient_dim": 1,
        "divisors": [{"id": "E1", "N": 2, "nu": 1}],
        "strata": [{"I": ["E1", "E1"], "base": "1"}]}),
    (["oracle", "\u0663", "--order", "4"], None),
    (["homology", "{file}", "--range=\u0660..\u0662"], POINT),
    (["oracle", "2", "--order", "1_0"], None),
    (["eval", "point("], None),
], ids=["cell-without-id", "top-level-list", "homology-not-json",
        "zeta-not-json", "zeta-negative-expand", "eval-negative-expand",
        "oracle-zero-exponent", "oracle-zero-order", "stratum-I-not-list",
        "divisors-not-list", "stratum-m-not-int", "stratum-not-object",
        "negative-cell-dim", "oracle-order-above-max",
        "zeta-expand-above-max", "eval-exponent-above-max",
        "eval-exponent-digits-above-max",
        "eval-coefficient-digits-above-max", "divisor-N-float",
        "divisor-N-string", "divisor-nu-bool", "cell-dim-float",
        "cell-dim-string", "range-descending-negative",
        "range-descending", "range-span-above-max",
        "resolution-base-digits-above-max", "eval-superscript-digit",
        "cell-dim-above-max", "eval-nesting-above-max",
        "invalid-complex-report", "homology-nesting-above-json-limit",
        "zeta-nesting-above-json-limit", "cell-count-above-max",
        "cell-id-repeated", "fixed-is-geometric-string",
        "boundary-not-list", "affprod-negative-dimension",
        "custom-double-pole",
        "complex-without-cells", "resolution-tail-digits-above-max",
        "resolution-nu-digits-above-max", "stratum-divisor-repeated",
        "oracle-arabic-digit", "range-arabic-digit", "order-underscore",
        "eval-unclosed-call"])
def test_bad_input_is_one_error_line(argv, content, x2y4_file, tmp_path,
                                     capsys):
    path = x2y4_file
    if content is not None:
        path = tmp_path / "input.json"
        path.write_text(content if isinstance(content, str)
                        else json.dumps(content), encoding="utf-8")
    assert main([arg.format(file=path) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].startswith("error: ")
    assert "Traceback" not in captured.err
