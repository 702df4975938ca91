"""Homology of random invariant subcomplexes against two exact relations.

Every draw is a set of cells of one base complex, closed under the
involution and under faces, so it is a finite G-CW complex in its own
right.  Two relations hold on any such X (Bredon 1972, *Introduction to
Compact Transformation Groups*, ch. III):

* localization: the fixed tail of the equivariant series is the total F2
  Betti number of the fixed set X^G, and the Smith inequality bounds it by
  the total F2 Betti number of X;
* for a free action, H^G_n(X) = H_n(X/G; F2), the homology of the orbit
  complex, and H^n_G(X) = H^n(X/G; F2), which over F2 has the dimensions
  of H_n(X/G; F2).

Written as P + c*u/(u - 1), the series takes half the Euler
characteristic at u = -1: P(-1) + c/2 = chi(X)/2, as u/(u - 1) is 1/2
there (McCrory-Parusinski 2003, "Virtual Betti numbers of real algebraic
varieties").

The bases are the antipodal and the reflection S^1..S^3, each times
(S^1)^0..2.  Every nonempty subcomplex of a reflection base holds a fixed
vertex, and no subcomplex of an antipodal base has a fixed cell, so the
free draws come from the antipodal bases.

The same draws, the bases themselves and two larger complexes also check
the tables each complex computes once against one elimination per query
over the slices of the total differential that the degree uses, and
against tables built from the ranks of an earlier chain-data builder, and
that the total differential squares to zero.  On the draws, homology tables and series equal
per-degree reads, and equivariant cohomology above the top degree is the
total Betti number of the fixed set (localization again).  Tampered bases,
with one face flipped or the involution redirected, are judged as the
set-based reference of the algebraic checks judges them.
"""

from fractions import Fraction
from itertools import accumulate, pairwise

import pytest

from conftest import assert_squares_to_zero, build_against_reference
from z2beta.algebra import IntPoly
from z2beta.calculus import VirtualClass
from z2beta.complexes import sphere_complex
from z2beta.homology import (
    GCWComplex,
    _degrees,
    equivariant_betti_series,
    equivariant_cohomology,
    equivariant_homology,
    fixed_subcomplex,
    gf2_rank,
    homology_table,
    plain_homology,
    product_with_trivial,
)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

SETTINGS = hypothesis.settings(max_examples=200, deadline=None,
                               derandomize=True, database=None)


def reflection_sphere(d: int) -> GCWComplex:
    """S^d with the reflection in its equator: fixed cells c_q^+ and c_q^-
    for q < d, and two d-cells exchanged by the involution."""
    cells, boundary = {}, {}
    for q in range(d):
        cells[f"c{q}+"] = cells[f"c{q}-"] = q
    for cell in ("h+", "h-"):
        cells[cell] = d
    for cell, q in cells.items():
        if q >= 1:
            boundary[cell] = [f"c{q - 1}+", f"c{q - 1}-"]
    return GCWComplex(cells, boundary, {"h+": "h-", "h-": "h+"},
                      fixed_is_geometric=True)


def with_circles(x: GCWComplex, k: int) -> GCWComplex:
    for _ in range(k):
        x = product_with_trivial(x, sphere_complex(1, "trivial"))
    return x


FREE_BASES = [with_circles(sphere_complex(d, "free"), k)
              for d in (1, 2, 3) for k in (0, 1, 2)]
BASES = FREE_BASES + [with_circles(reflection_sphere(d), k)
                      for d in (1, 2, 3) for k in (0, 1, 2)]


@st.composite
def subcomplexes(draw, bases):
    """A random cell set of a base, closed under sigma and faces."""
    base = draw(st.sampled_from(bases))
    todo = list(draw(st.sets(st.sampled_from(sorted(base.cells)),
                             min_size=1, max_size=8)))
    kept = set()
    while todo:
        cell = todo.pop()
        if cell not in kept:
            kept.add(cell)
            todo.append(base.sigma[cell])
            todo.extend(base.boundary.get(cell, ()))
    return GCWComplex({c: base.cells[c] for c in kept},
                      {c: base.boundary[c] for c in kept if c in base.boundary},
                      {c: base.sigma[c] for c in kept},
                      fixed_is_geometric=True)


@st.composite
def tampered(draw, bases):
    """The cells, in any order, boundary and involution of a base with one
    face of a cell flipped or with sigma conjugated by a swap of two cells
    of one dimension.  Either keeps every face and sigma image a cell of the
    right dimension and sigma an involution, so only boundary^2 = 0 and
    sigma commuting with the boundary can fail."""
    base = draw(st.sampled_from(bases))
    cells = {c: base.cells[c] for c in draw(st.permutations(list(base.cells)))}
    boundary = {c: set(faces) for c, faces in base.boundary.items()}
    if draw(st.booleans()):
        cell = draw(st.sampled_from(sorted(c for c in cells if cells[c] > 0)))
        face = draw(st.sampled_from(sorted(
            c for c in cells if cells[c] == cells[cell] - 1)))
        boundary.setdefault(cell, set()).symmetric_difference_update({face})
        sigma = dict(base.sigma)
    else:
        a = draw(st.sampled_from(sorted(cells)))
        b = draw(st.sampled_from(sorted(
            c for c in cells if cells[c] == cells[a])))
        swap = {a: b, b: a}

        def t(c):
            return swap.get(c, c)

        sigma = {c: t(base.sigma[t(c)]) for c in cells}
    return cells, boundary, sigma


def total_betti(x: GCWComplex) -> int:
    return sum(plain_homology(x, n) for n in range(x.top_dimension + 1))


def orbit_complex(x: GCWComplex) -> GCWComplex:
    """X/G for a free X: one cell per orbit, named by its least cell, with
    the boundary of that cell carried to orbits (reduced mod 2)."""
    orbit = {c: min(c, x.sigma[c]) for c in x.cells}
    return GCWComplex({o: x.cells[o] for o in set(orbit.values())},
                      {o: [orbit[f] for f in x.boundary.get(o, ())]
                       for o in set(orbit.values())})


@SETTINGS
@hypothesis.given(subcomplexes(BASES))
def test_tail_is_fixed_set_homology_and_obeys_smith(x):
    tail = total_betti(fixed_subcomplex(x))
    assert equivariant_betti_series(x).fixed_tail == tail
    assert tail <= total_betti(x)


@SETTINGS
@hypothesis.given(subcomplexes(FREE_BASES))
def test_free_action_equals_orbit_complex_homology(x):
    assert all(x.sigma[c] != c for c in x.cells)
    quotient = orbit_complex(x)
    for n in range(-2, x.top_dimension + 3):
        assert equivariant_homology(x, n) == plain_homology(quotient, n), n
        assert equivariant_cohomology(x, n) == plain_homology(quotient, n), n


def assert_half_euler_at_minus_one(x: GCWComplex):
    series = equivariant_betti_series(x)
    euler = sum((-1) ** d for d in x.cells.values())
    assert (series.poly_part.evaluate(-1) + Fraction(series.fixed_tail, 2)
            == Fraction(euler, 2)), series


@SETTINGS
@hypothesis.given(subcomplexes(BASES))
def test_series_at_minus_one_is_half_euler(x):
    assert_half_euler_at_minus_one(x)


def test_series_at_minus_one_is_half_euler_on_models():
    # "with_fixed_point" builds the "trivial" model
    spheres = [sphere_complex(d, action) for d in range(1, 6)
               for action in ("trivial", "free")]
    for x in [*spheres, *BASES]:
        assert_half_euler_at_minus_one(x)


@SETTINGS
@hypothesis.given(tampered(BASES))
def test_validation_matches_set_based_reference(data):
    _, checked = build_against_reference(GCWComplex, *data)
    assert checked


def _masked_rank(columns, end):
    """Rank of ``columns`` restricted to the rows before position ``end``."""
    mask = (1 << end) - 1
    return gf2_rank([col & mask for col in columns])[-1]


def per_query_dims(x: GCWComplex, n: int) -> tuple:
    """Reference: equivariant homology, plain homology and equivariant
    cohomology in degree n, each from fresh eliminations over the slices of
    the total differential that degree n uses."""
    data = x._chains
    cols, last = data.columns, len(data.start) - 1

    def pos(q):
        return data.start[min(max(q, 0), last)]

    lo, mid, end = pos(n), pos(n + 1), pos(n + 2)
    return (len(cols) - lo - gf2_rank(cols[lo:])[-1]
            - gf2_rank(cols[mid:])[-1],
            mid - lo - _masked_rank(cols[lo:mid], lo)
            - _masked_rank(cols[mid:end], mid),
            mid - _masked_rank(cols[:end], mid) - _masked_rank(cols[:mid], lo))


def reference_ranks(x: GCWComplex) -> tuple:
    """Reference: the block starts and the suffix, row and boundary-block
    ranks of an earlier builder, with the cells sorted by (dimension, id),
    each face shifted to its bit, the rows peeled lowest bit first from the
    columns and every boundary column masked on its own."""
    order = sorted(x.cells, key=lambda c: (x.cells[c], c))
    index = {c: i for i, c in enumerate(order)}
    counts = [0] * (x.top_dimension + 2)
    for d in x.cells.values():
        counts[d + 1] += 1
    start = list(accumulate(counts))
    columns = []
    for i, cell in enumerate(order):
        col = (1 << i) ^ (1 << index[x.sigma[cell]])
        for f in x.boundary.get(cell, ()):
            col ^= 1 << index[f]
        columns.append(col)
    suffix = gf2_rank(columns[::-1])
    rows = [0] * len(columns)
    for j, col in enumerate(columns):
        while col:
            low = col & -col
            rows[low.bit_length() - 1] |= 1 << j
            col ^= low
    row = gf2_rank(rows)
    bnd = gf2_rank([columns[i] & ((1 << s) - 1)
                    for s, e in pairwise(start) for i in range(s, e)])
    return (start, [suffix[len(columns) - s] for s in start],
            [row[s] for s in start],
            [bnd[e] - bnd[s] for s, e in pairwise(start)] + [0])


def reference_dims(x: GCWComplex) -> tuple:
    """Reference: the homology, cohomology and plain homology tables over
    the degrees -1 .. top + 1, built from ``reference_ranks``."""
    start, suffix, row, bnd = reference_ranks(x)
    total = len(x.cells)
    blocks = list(_degrees(start))
    return ([total - s0 - r0 - r1
             for (s0, _), (r0, r1) in zip(blocks, _degrees(suffix))],
            [s1 - r1 - r0 for (_, s1), (r0, r1) in zip(blocks, _degrees(row))],
            [s1 - s0 - r0 - r1
             for (s0, s1), (r0, r1) in zip(blocks, _degrees(bnd))])


def assert_dims_match_per_query(x: GCWComplex):
    assert_squares_to_zero(x)
    data = x._chains
    assert (data.homology_dims, data.cohomology_dims,
            data.plain_dims) == reference_dims(x)
    top = x.top_dimension
    # far outside the complex too, so both ends of each table are read
    for n in [-50, -top - 3, *range(-3, top + 3), top + 3, top + 50]:
        assert (equivariant_homology(x, n), plain_homology(x, n),
                equivariant_cohomology(x, n)) == per_query_dims(x, n), n


@SETTINGS
@hypothesis.given(subcomplexes(BASES))
def test_dims_match_per_query_elimination(x):
    assert_dims_match_per_query(x)


@SETTINGS
@hypothesis.given(subcomplexes(BASES), st.integers(-8, 8), st.integers(0, 8))
def test_table_and_series_equal_per_degree_reads(x, n_min, span):
    n_max = n_min + span
    reads = {n: equivariant_homology(x, n)
             for n in range(n_max, n_min - 1, -1)}
    table = homology_table(x, n_min, n_max)
    assert list(table.group_dims.items()) == list(reads.items())
    assert table.stable_negative_dim == (
        reads[n_min] if n_min <= -2 and n_min < n_max else None)
    # the series as it was built from one read per degree
    top = max(x.top_dimension, 0)
    dims = {n: equivariant_homology(x, n) for n in range(top, -2, -1)}
    tail = dims.pop(-1)
    dims[0] -= tail
    assert equivariant_betti_series(x) == VirtualClass(IntPoly(dims), tail)


@SETTINGS
@hypothesis.given(subcomplexes(BASES))
def test_cohomology_above_top_is_fixed_set_homology(x):
    # not 0 above the top degree: every degree from top + 1 on reads the
    # total Betti number of the fixed set, which a fixed cell makes nonzero
    top = x.top_dimension
    fixed = total_betti(fixed_subcomplex(x))
    assert [equivariant_cohomology(x, n)
            for n in (top + 1, top + 2, top + 3, top + 50)] == [fixed] * 4
    assert (fixed > 0) == any(x.sigma[c] == c for c in x.cells)


def test_dims_match_per_query_elimination_on_bases():
    # an edge with one end: on the bases the last row of every block
    # depends on the rows before it, and on these products it does not
    ray = GCWComplex({"v": 0, "e": 1}, {"e": ["v"]})
    for x in [*BASES, sphere_complex(32, "free"),
              with_circles(sphere_complex(3, "free"), 5), ray,
              product_with_trivial(sphere_complex(2, "free"), ray),
              product_with_trivial(reflection_sphere(2), ray)]:
        assert_dims_match_per_query(x)
