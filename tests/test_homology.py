"""Equivariant homology of the curated complexes against the known tables."""

import gc
import json

import pytest

from z2beta.algebra import IntPoly, RationalU
from z2beta.calculus import Atom, atom_class
from z2beta.complexes import (
    point_complex,
    sphere_complex,
    swapped_pair_complex,
    two_fixed_points_complex,
)
from z2beta.errors import (
    AssertionMissing,
    FixedSetNotSubcomplex,
    InvalidComplex,
    ToolkitError,
)
import z2beta.homology as homology
from z2beta.homology import (
    MAX_CELLS,
    MAX_DEGREE_SPAN,
    MAX_DIMENSION,
    GCWComplex,
    equivariant_betti_series,
    equivariant_cohomology,
    equivariant_homology,
    fixed_subcomplex,
    homology_table,
    plain_homology,
    product_with_trivial,
    validate_complex,
)

U = IntPoly.u()


# ---------------------------------------------------------------------------
# validation

def test_valid_examples():
    assert validate_complex(point_complex()) == []
    assert validate_complex(swapped_pair_complex()) == []
    assert validate_complex(sphere_complex(3, "free")) == []


def test_dimension_violation_reported():
    with pytest.raises(InvalidComplex, match="dimension"):
        GCWComplex({"v": 0, "e": 1}, sigma={"v": "e", "e": "v"})


def test_involution_violation_reported():
    with pytest.raises(InvalidComplex, match="involution"):
        GCWComplex({"a": 0, "b": 0, "c": 0},
                   sigma={"a": "b", "b": "c", "c": "a"})


def test_boundary_squared_violation_reported():
    with pytest.raises(InvalidComplex, match="boundary of boundary"):
        GCWComplex({"v": 0, "e": 1, "f": 2},
                   boundary={"f": ["e"], "e": ["v"]})


def test_equivariance_violation_reported():
    with pytest.raises(InvalidComplex, match="commute"):
        GCWComplex({"v1": 0, "v2": 0, "e1": 1, "e2": 1},
                   boundary={"e1": ["v1", "v2"], "e2": []},
                   sigma={"e1": "e2", "e2": "e1"})


def test_operations_refuse_invalid_input():
    # an invalid complex never exists, so no operation can receive one
    with pytest.raises(InvalidComplex, match="invalid complex"):
        GCWComplex({"v": 0, "e": 1}, sigma={"v": "e", "e": "v"})


def test_cell_dimension_bound():
    assert GCWComplex({"v": MAX_DIMENSION}).top_dimension == MAX_DIMENSION
    for dim in (-1, MAX_DIMENSION + 1):
        with pytest.raises(InvalidComplex, match="cell dimensions"):
            GCWComplex({"v": dim})


def test_cell_count_bound():
    assert len(GCWComplex({f"v{i}": 0 for i in range(MAX_CELLS)}).cells) \
        == MAX_CELLS
    with pytest.raises(InvalidComplex, match="invalid complex: more than"):
        GCWComplex({f"v{i}": 0 for i in range(MAX_CELLS + 1)})


@pytest.mark.parametrize("dim", [0.7, "1", 1.0, None])
def test_cell_dimension_must_be_an_integer(dim):
    # a float or string is refused, not cast, as by from_dict
    with pytest.raises(InvalidComplex, match="cell dimensions must be integers"):
        GCWComplex({"v": 0, "e": dim}, boundary={"e": ["v", "v"]})
    assert GCWComplex({"v": False, "e": True}).cells == {"v": 0, "e": 1}


@pytest.mark.parametrize("ids", [(1, 1), ("1", 1)])
def test_duplicate_cell_ids_compare_as_stored(ids):
    # cell ids are stored as text, so ids that print alike are one id
    cells = [{"id": ids[0], "dim": 0}, {"id": ids[1], "dim": 1}]
    with pytest.raises(InvalidComplex, match="duplicate cell id"):
        GCWComplex.from_dict({"cells": cells})
    with pytest.raises(InvalidComplex, match="duplicate cell id"):
        GCWComplex({"1": 0, 1: 1})


@pytest.mark.parametrize("flag", ["false", "true", 0, 1, None, [False]])
def test_fixed_is_geometric_must_be_a_json_boolean(flag):
    data = {"cells": [{"id": "p", "dim": 0}, {"id": "q", "dim": 0}],
            "sigma": {"p": "q", "q": "p"}}
    with pytest.raises(InvalidComplex, match="fixed_is_geometric"):
        GCWComplex.from_dict({**data, "fixed_is_geometric": flag})


@pytest.mark.parametrize("faces", ["vw", {"v": 1, "w": 1}, 7, None])
def test_boundary_value_must_be_a_json_list(faces):
    # a string would be read as its characters, an object as its keys
    data = {"cells": [{"id": "v", "dim": 0}, {"id": "w", "dim": 0},
                      {"id": "e", "dim": 1}],
            "boundary": {"e": faces}}
    with pytest.raises(InvalidComplex, match="boundary of 'e' must be a list"):
        GCWComplex.from_dict(data)


def test_validated_and_indexed_once_per_complex(monkeypatch):
    calls, built = [], []
    real = homology.validate_complex

    def counting(x):
        calls.append(x)
        return real(x)

    class CountingChainData(homology._ChainData):
        def __init__(self, x):
            built.append(x)
            super().__init__(x)

    monkeypatch.setattr(homology, "validate_complex", counting)
    monkeypatch.setattr(homology, "_ChainData", CountingChainData)
    cw = sphere_complex(2, "free")
    # the constructor validates on the chain data it builds and keeps
    assert calls == [cw] and built == [cw]
    homology_table(cw, -3, 3)
    equivariant_betti_series(cw)
    equivariant_cohomology(cw, 1)
    plain_homology(cw, 1)
    assert calls == [cw] and built == [cw]  # no query builds another


def test_negative_tail_ranked_once(monkeypatch):
    # every equivariant homology degree reads the ranks of one elimination
    calls = []
    real = homology.gf2_rank

    def counting(columns):
        calls.append(len(columns))
        return real(columns)

    monkeypatch.setattr(homology, "gf2_rank", counting)
    cw = sphere_complex(2, "free")
    homology_table(cw, -5, 3)
    homology_table(cw, -1, 3)
    equivariant_betti_series(cw)
    for n in range(-3, 5):
        equivariant_homology(cw, n)
    assert calls == [len(cw.cells)]


def test_every_table_ranked_once(monkeypatch):
    # each table is built once from one elimination: homology and plain
    # homology rank with gf2_rank, cohomology counts its own lowest-row
    # pivots, and a second round of queries eliminates nothing
    calls, built = [], []
    real = homology.gf2_rank

    def counting(columns):
        calls.append(len(columns))
        return real(columns)

    class CountingChainData(homology._ChainData):
        def __init__(self, x):
            built.append(x)
            super().__init__(x)

    # the factors, built first, have their own chain data
    x, y = sphere_complex(2, "free"), sphere_complex(1, "trivial")
    monkeypatch.setattr(homology, "gf2_rank", counting)
    monkeypatch.setattr(homology, "_ChainData", CountingChainData)
    cw = product_with_trivial(x, y)
    top = cw.top_dimension
    tables = ("homology_dims", "cohomology_dims", "plain_dims")
    for i in range(2):
        for n in range(-5, top + 6):
            equivariant_homology(cw, n)
            equivariant_cohomology(cw, n)
            plain_homology(cw, n)
        assert calls == [len(cw.cells)] * 2 and built == [cw], i
        assert all(name in vars(cw._chains) for name in tables), i


def test_chain_data_leaves_no_cycle():
    # the chain data keeps its cell order and columns, never the complex
    # that holds it, so the complex and its tables are freed by reference
    # counting
    gc.collect()
    gc.disable()
    try:
        cw = product_with_trivial(sphere_complex(3, "free"),
                                  sphere_complex(1, "trivial"))
        data = cw._chains
        data.homology_dims, data.cohomology_dims, data.plain_dims
        del cw, data
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_refused_complex_leaves_no_cycle():
    # the chain data built for a complex that fails the algebraic checks is
    # dropped with the complex, by reference counting
    gc.collect()
    gc.disable()
    try:
        try:
            GCWComplex({"v": 0, "e": 1, "f": 2},
                       boundary={"f": ["e"], "e": ["v"]})
        except InvalidComplex as exc:
            message = str(exc)
        assert message.startswith("invalid complex: boundary of boundary")
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_complex_is_immutable():
    cw = sphere_complex(1, "free")
    for name in ("cells", "boundary", "sigma"):
        with pytest.raises(TypeError):
            getattr(cw, name)["c0+"] = "x"
        with pytest.raises(AttributeError):
            setattr(cw, name, {})
    with pytest.raises(AttributeError):
        cw.fixed_is_geometric = False
    assert validate_complex(cw) == []


def test_validating_again_keeps_the_chain_data():
    cw = sphere_complex(2, "free")
    chains = cw._chains
    assert equivariant_homology(cw, 1) == 1
    assert validate_complex(cw) == []
    # the complex keeps its chain data and the rank family it took
    assert cw._chains is chains and "homology_dims" in vars(chains)


def test_boundary_reduced_mod_two():
    circle = GCWComplex({"v": 0, "e": 1}, boundary={"e": ["v", "v"]})
    assert circle.boundary == {}  # the two copies cancel


# ---------------------------------------------------------------------------
# the table record

def test_homology_table_object():
    table = homology_table(sphere_complex(2, "trivial"), -4, 3)
    assert table.group_dims[3] == 0
    assert table.group_dims[2] == 1
    assert table.stable_negative_dim == 2


def test_homology_table_ranges():
    s2 = sphere_complex(2, "trivial")
    table = homology_table(s2, -3, -3)  # one degree: no stability claim
    assert table.group_dims == {-3: 2} and table.stable_negative_dim is None
    for n_min, n_max in [(-2, -5), (3, 1)]:
        with pytest.raises(ToolkitError):
            homology_table(s2, n_min, n_max)


def test_homology_table_span_bound():
    s2 = sphere_complex(2, "trivial")
    table = homology_table(s2, -600, -600 + MAX_DEGREE_SPAN)
    assert len(table.group_dims) == MAX_DEGREE_SPAN + 1
    fresh = sphere_complex(2, "trivial")
    for n_min, n_max in [(-600, -599 + MAX_DEGREE_SPAN), (0, 10 ** 9)]:
        with pytest.raises(ToolkitError, match="spans more than 1030 degrees"):
            homology_table(fresh, n_min, n_max)
    # refused before any work: no rank family was taken
    assert "homology_dims" not in vars(fresh._chains)
    # the bound is the default table of ``homology``, -5 .. top + 1, at the
    # largest dimension
    top = GCWComplex({"v": MAX_DIMENSION})
    table = homology_table(top, -5, MAX_DIMENSION + 1)
    assert len(table.group_dims) == MAX_DEGREE_SPAN + 1
    with pytest.raises(ToolkitError, match="spans more than 1030 degrees"):
        homology_table(top, -6, MAX_DIMENSION + 1)


# ---------------------------------------------------------------------------
# plain homology

def test_plain_homology():
    s2 = sphere_complex(2, "trivial")
    assert [plain_homology(s2, n) for n in range(-1, 4)] == [0, 1, 0, 1, 0]
    assert plain_homology(point_complex(), 0) == 1
    assert plain_homology(sphere_complex(1, "free"), 1) == 1


def test_trivial_action_reduces_to_plain():
    # with the identity involution, dim H_n = sum of plain dims above max(0, n)
    for cw in (point_complex(), sphere_complex(1, "trivial"),
               sphere_complex(3, "trivial"), two_fixed_points_complex()):
        top = cw.top_dimension
        for n in range(top + 2, -4, -1):
            expected = sum(plain_homology(cw, q)
                           for q in range(max(0, n), top + 1))
            assert equivariant_homology(cw, n) == expected


# ---------------------------------------------------------------------------
# series extraction and the bridge to the atoms

def test_reflection_circle_matches_fixed_point_series():
    # two fixed vertices, two swapped edges: a different cellular model of a
    # circle with fixed points must give the same series
    reflection = GCWComplex(
        {"v1": 0, "v2": 0, "e1": 1, "e2": 1},
        boundary={"e1": ["v1", "v2"], "e2": ["v1", "v2"]},
        sigma={"e1": "e2", "e2": "e1"},
        fixed_is_geometric=True)
    assert validate_complex(reflection) == []
    assert equivariant_betti_series(reflection) \
        == atom_class(Atom.sphere(1, "with_fixed_point"))
    fixed = fixed_subcomplex(reflection)
    assert set(fixed.cells) == {"v1", "v2"}


# ---------------------------------------------------------------------------
# fixed subcomplex and the negative degrees

def test_fixed_subcomplex():
    circle = sphere_complex(1, "with_fixed_point")
    assert set(fixed_subcomplex(circle).cells) == {"v", "e"}
    assert fixed_subcomplex(sphere_complex(2, "free")).cells == {}
    mixed = GCWComplex({"p": 0, "q": 0, "f": 0},
                       sigma={"p": "q", "q": "p"}, fixed_is_geometric=True)
    assert set(fixed_subcomplex(mixed).cells) == {"f"}


def test_fixed_subcomplex_requires_assertion():
    free = GCWComplex({"p": 0, "q": 0}, sigma={"p": "q", "q": "p"})
    with pytest.raises(AssertionMissing):
        fixed_subcomplex(free)


def test_fixed_set_must_be_closed():
    # fixed 1-cell with swapped endpoints
    bad = GCWComplex({"v1": 0, "v2": 0, "e": 1},
                     boundary={"e": ["v1", "v2"]},
                     sigma={"v1": "v2", "v2": "v1"},
                     fixed_is_geometric=True)
    assert validate_complex(bad) == []
    with pytest.raises(FixedSetNotSubcomplex):
        fixed_subcomplex(bad)


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_cohomology_closed_forms(d):
    # closed forms that do not go through the total-complex builder:
    # antipodal S^d / G = RP^d has one class in each degree 0..d, and the
    # trivial S^d gives H^*(BG) (one class in every degree >= 0) tensored
    # with H^*(S^d) (degrees 0 and d)
    antipodal = sphere_complex(d, "free")
    trivial = sphere_complex(d, "trivial")
    for n in range(-2, d + 3):
        assert equivariant_cohomology(antipodal, n) == int(0 <= n <= d)
        assert equivariant_cohomology(trivial, n) == int(n >= 0) + int(n >= d)


@pytest.mark.parametrize("builder,args", [
    (point_complex, ()),
    (swapped_pair_complex, ()),
    (two_fixed_points_complex, ()),
    (sphere_complex, (1, "trivial")),
    (sphere_complex, (2, "trivial")),
    (sphere_complex, (1, "free")),
])
def test_negative_degrees_equal_fixed_set_homology(builder, args):
    cw = builder(*args)
    fixed = fixed_subcomplex(cw)
    total = sum(plain_homology(fixed, i)
                for i in range(fixed.top_dimension + 1))
    for n in (-1, -2, -3):
        assert equivariant_homology(cw, n) == total


# ---------------------------------------------------------------------------
# products

def test_product_point_by_point():
    prod = product_with_trivial(point_complex(), point_complex())
    assert len(prod.cells) == 1
    assert equivariant_betti_series(prod) == atom_class(Atom.point())


def test_product_pair_by_circle():
    prod = product_with_trivial(swapped_pair_complex(),
                                sphere_complex(1, "trivial"))
    assert len(prod.cells) == 4
    assert equivariant_betti_series(prod).value == RationalU(U + 1)


def test_product_fixed_circle_by_circle():
    prod = product_with_trivial(sphere_complex(1, "with_fixed_point"),
                                sphere_complex(1, "trivial"))
    expected = atom_class(Atom.sphere(1, "with_fixed_point")).value \
        * RationalU(U + 1)
    assert equivariant_betti_series(prod).value == expected


def test_one_string_per_cell_id():
    # every face and sigma image is the key object of ``cells``, in the
    # product and after a JSON round trip, which makes fresh strings
    prod = product_with_trivial(sphere_complex(2, "free"),
                                sphere_complex(1, "trivial"))
    loaded = GCWComplex.from_dict(json.loads(json.dumps(prod.to_dict())))
    for cw in (prod, loaded):
        key = {c: c for c in cw.cells}
        for cell, faces in cw.boundary.items():
            assert cell is key[cell]
            assert all(f is key[f] for f in faces)
        assert all(a is key[a] and b is key[b] for a, b in cw.sigma.items())


def test_product_requires_trivial_second_factor():
    with pytest.raises(InvalidComplex):
        product_with_trivial(point_complex(), swapped_pair_complex())


@pytest.mark.parametrize("x_builder,x_args", [
    (swapped_pair_complex, ()),
    (sphere_complex, (1, "with_fixed_point")),
    (sphere_complex, (1, "free")),
])
def test_kunneth_rule(x_builder, x_args):
    x = x_builder(*x_args)
    y = sphere_complex(2, "trivial")
    prod = product_with_trivial(x, y)
    for n in range(-3, prod.top_dimension + 2):
        expected = sum(equivariant_homology(x, p) * plain_homology(y, n - p)
                       for p in range(n - y.top_dimension,
                                      x.top_dimension + 1))
        assert equivariant_homology(prod, n) == expected, n


# ---------------------------------------------------------------------------
# cohomology and duality

@pytest.mark.parametrize("d", [1, 2, 3])
def test_free_action_equals_quotient_homology(d):
    # for a free involution the equivariant groups are those of the quotient;
    # the quotient of the antipodal model is one cell per dimension with
    # vanishing mod-2 boundary
    sphere = sphere_complex(d, "free")
    quotient = GCWComplex({f"c{q}": q for q in range(d + 1)})
    for n in range(-3, d + 3):
        assert equivariant_homology(sphere, n) == plain_homology(quotient, n)


def test_point_cohomology():
    point = point_complex()
    for n in range(-3, 5):
        assert equivariant_cohomology(point, n) == (1 if n >= 0 else 0)


@pytest.mark.parametrize("builder,args", [
    (point_complex, ()),
    (swapped_pair_complex, ()),
    (sphere_complex, (1, "trivial")),
    (sphere_complex, (2, "trivial")),
    (sphere_complex, (3, "trivial")),
    (sphere_complex, (1, "free")),
])
def test_poincare_duality(builder, args):
    cw = builder(*args)
    d = max(cw.top_dimension, 0)
    for n in range(-2, d + 4):
        assert equivariant_cohomology(cw, n) == equivariant_homology(cw, d - n)


def _antipodal_tower():
    """The antipodal S^3 times (S^1)^8: 2048 cells, dimension 11."""
    cw = sphere_complex(3, "free")
    for _ in range(8):
        cw = product_with_trivial(cw, sphere_complex(1, "trivial"))
    return cw


@pytest.mark.parametrize("build", [
    _antipodal_tower, lambda: sphere_complex(1023, "free"),
], ids=["tower", "s1023"])
def test_poincare_duality_at_max_cells(build):
    # the only check of the transposed columns at the cell bound: no
    # workload asks for the cohomology of a complex this large
    cw = build()
    d = cw.top_dimension
    assert len(cw.cells) == MAX_CELLS
    for n in range(-3, d + 4):
        assert equivariant_cohomology(cw, n) == equivariant_homology(cw, d - n)


# ---------------------------------------------------------------------------
# file format

def test_json_roundtrip(tmp_path):
    import json

    source = {
        "cells": [{"id": "v1", "dim": 0}, {"id": "v2", "dim": 0},
                  {"id": "e1", "dim": 1}, {"id": "e2", "dim": 1}],
        "boundary": {"e1": ["v1", "v2"], "e2": ["v1", "v2"]},
        "sigma": {"v1": "v2", "v2": "v1", "e1": "e2", "e2": "e1"},
        "fixed_is_geometric": True,
    }
    path = tmp_path / "circle.json"
    path.write_text(json.dumps(source), encoding="utf-8")
    loaded = GCWComplex.load(path)
    assert validate_complex(loaded) == []
    assert equivariant_betti_series(loaded).value == RationalU(U + 1)
    again = GCWComplex.from_dict(loaded.to_dict())
    assert again.cells == loaded.cells
    assert again.boundary == loaded.boundary
    assert again.sigma == loaded.sigma


def test_missing_sigma_defaults_to_fixed():
    cw = GCWComplex.from_dict({"cells": [{"id": "v", "dim": 0}]})
    assert cw.sigma == {"v": "v"}
