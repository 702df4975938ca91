"""The command line front end: output formats and exit codes."""

import json

import pytest

from z2beta.algebra import IntPoly, RationalU, laurent_expand
from z2beta.calculus import Atom, atom_class
from z2beta.cli import format_class, format_output, format_window, main
from z2beta.homology import MAX_CELLS

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
    assert format_class(atom_class(Atom.sphere(2, "free"))) == "u^2 + 1"


def test_format_window():
    window = laurent_expand(RationalU(U, U - 1), 4)
    text = format_window(window)
    assert text.splitlines()[0] == "1 + u^-1 + u^-2 + u^-3 + ..."
    assert text.splitlines()[1].strip() == "tail: 1"


def test_format_window_skips_zero_terms():
    window = laurent_expand(RationalU(U ** 2 + 1, U), 3)
    assert format_window(window).splitlines()[0] == "u + u^-1"


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


def test_missing_file_is_input_error(capsys):
    assert main(["zeta", "/nonexistent/path.json"]) == 1


def test_usage_error_is_input_error(capsys):
    assert main(["zeta"]) == 1
    assert main(["frobnicate"]) == 1


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
        "boundary-not-list"])
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
