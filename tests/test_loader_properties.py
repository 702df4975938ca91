"""The two JSON loaders against arbitrary JSON-shaped values, with hypothesis.

``GCWComplex.from_dict`` and ``load_resolution`` read data from files, so on
any JSON value they must return a value or raise a ToolkitError; every
complex that loads has a total differential that squares to zero, and every
complex whose faces and involution pass the structural checks is judged as
the set-based reference of the algebraic checks judges it.  The
values have the shape of the file format with one part, or the whole value,
replaced by any JSON value, so that they reach past the first type check.
"""

import pytest

from conftest import assert_squares_to_zero, build_against_reference
from z2beta.errors import ToolkitError
from z2beta.homology import GCWComplex
from z2beta.zeta import load_resolution

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

SETTINGS = hypothesis.settings(max_examples=150, deadline=None,
                               derandomize=True, database=None)

KEYS = ("cells", "boundary", "sigma", "fixed_is_geometric", "id", "dim",
        "ambient_dim", "divisors", "strata", "N", "nu", "I", "m", "base",
        "cov_plus", "cov_minus", "poly", "tail", "a", "b", "E1", "E2")
keys = st.sampled_from(KEYS) | st.text(max_size=3)
scalars = (st.none() | st.booleans() | st.integers(-3, 5)
           | st.integers(-2 ** 70, 2 ** 70)
           | st.floats(allow_nan=False, allow_infinity=False)
           | st.sampled_from(KEYS + ("0", "1", "u", "u - 1", "2u^2 + 1",
                                     "x", "u/(u - 1)", "", "1/0"))
           | st.text(max_size=4))
json_values = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(keys, inner, max_size=5)),
    max_leaves=12)


def _parts(value, path=()):
    """The path of every part of a JSON value, the value itself first."""
    yield path
    items = value.items() if isinstance(value, dict) \
        else enumerate(value) if isinstance(value, list) else ()
    for key, part in items:
        yield from _parts(part, path + (key,))


@st.composite
def corrupted(draw, shape):
    """A value of the file format's shape with at most one part, possibly
    the whole value, replaced by any JSON value."""
    value = draw(shape)
    path = draw(st.none() | st.sampled_from(list(_parts(value))))
    if path is None:
        return value
    if not path:
        return draw(json_values)
    parent = value
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = draw(json_values)
    return value


ids = st.sampled_from(["a", "b", "c"])
complexes = st.fixed_dictionaries(
    {"cells": st.lists(st.fixed_dictionaries(
        {"id": ids, "dim": st.integers(0, 3)}), max_size=4)},
    optional={"boundary": st.dictionaries(ids, st.lists(ids, max_size=3),
                                          max_size=3),
              "sigma": st.dictionaries(ids, ids, max_size=3),
              "fixed_is_geometric": st.booleans()})

divisor_ids = st.sampled_from(["E1", "E2"])
classes = st.fixed_dictionaries(
    {"poly": st.sampled_from(["0", "1", "u", "u - 1"]),
     "tail": st.integers(-2, 2)})
resolutions = st.fixed_dictionaries(
    {"ambient_dim": st.integers(1, 3),
     "divisors": st.lists(st.fixed_dictionaries(
         {"id": divisor_ids, "N": st.integers(1, 4),
          "nu": st.integers(1, 4)}), max_size=2,
         unique_by=lambda divisor: divisor["id"]),
     "strata": st.lists(st.fixed_dictionaries(
         {"I": st.lists(divisor_ids, min_size=1, max_size=2)},
         optional={"m": st.integers(1, 4),
                   "base": st.sampled_from(["0", "1", "u"]),
                   "cov_plus": classes, "cov_minus": classes}),
         max_size=3)})


def _value_or_toolkit_error(load, data):
    try:
        return load(data)
    except ToolkitError:
        return None


@SETTINGS
@hypothesis.given(corrupted(complexes))
def test_complex_loader_total(data):
    # a complex that passes the structural checks is refused with the
    # set-based reference's report, or accepted if that report is empty
    x, _ = build_against_reference(GCWComplex.from_dict, data)
    if x is not None:
        assert_squares_to_zero(x)


@SETTINGS
@hypothesis.given(corrupted(resolutions))
def test_resolution_loader_total(data):
    if isinstance(data, str):  # a path to a file, not data
        return
    _value_or_toolkit_error(load_resolution, data)
