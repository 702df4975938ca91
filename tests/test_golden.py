"""Printed output, exit codes included, is byte-identical to the corpus.

The corpus under ``tests/golden/`` and the stdout of ``verify --suite all``
in ``tests/verify_suite_all.txt`` are written by ``regenerate_golden.py``;
a change that alters printed text regenerates them and names each changed
file.
"""

import re

import pytest

from regenerate_golden import (COMMANDS, GOLDEN, ROOT, VERIFY_ALL, render, run,
                               slug)
from z2beta import verify


def test_one_file_per_command():
    names = [slug(argv) for argv in COMMANDS]
    assert len(set(names)) == len(names)
    assert sorted(p.name for p in GOLDEN.glob("*.txt")) == sorted(names)


@pytest.mark.parametrize("argv", COMMANDS, ids=slug)
def test_output_matches_corpus(argv):
    assert render(argv) == (GOLDEN / slug(argv)).read_bytes()


def test_verify_suite_all_matches_its_file(verify_results, monkeypatch):
    # the session's results, printed as ``z2beta verify --suite all`` does
    monkeypatch.setattr(verify, "run_suite", lambda suite: verify_results)
    code, out, _ = run(["verify", "--suite", "all"])
    assert code == 0
    assert out.encode("utf-8") == VERIFY_ALL.read_bytes()


def test_readme_library_example_prints_its_comment(capsys):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    [example] = re.findall(r"```python\n(.*?)```", text, re.S)
    exec(compile(example, "README.md", "exec"), {})
    assert capsys.readouterr().out == "u^2/(u - 1)\n"
