"""Printed output, exit codes included, is byte-identical to the corpus.

The corpus under ``tests/golden/`` is written by ``regenerate_golden.py``;
a change that alters printed text regenerates it and names each changed
file.
"""

import pytest

from regenerate_golden import COMMANDS, GOLDEN, render, slug


def test_one_file_per_command():
    names = [slug(argv) for argv in COMMANDS]
    assert len(set(names)) == len(names)
    assert sorted(p.name for p in GOLDEN.glob("*.txt")) == sorted(names)


@pytest.mark.parametrize("argv", COMMANDS, ids=slug)
def test_output_matches_corpus(argv):
    assert render(argv) == (GOLDEN / slug(argv)).read_bytes()
