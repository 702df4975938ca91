"""Equivariant Borel-Moore homology of finite Z/2Z-CW complexes over F2.

The complex is encoded by its cells, the mod-2 boundary map and a cellular
involution.  Homology in degree n is the homology of the total complex of a
double complex with one copy of the cellular chains C_q in bidegree (p, q)
for every p >= 0: 0-th column differentials are the boundary map, rows carry
1 + sigma (over F2 the two alternating differentials of the period-2
resolution of the group ring coincide).  The degree-n piece is the direct
sum of C_q over q >= max(0, n) with p = q - n, so each degree is finite
dimensional and no truncation is ever needed; both differential components
lower n by one.

Every copy of C_q carries the same two maps, so one matrix holds the whole
total differential: one column per cell, the cells grouped by dimension,
column c = boundary(c) + (1 + sigma)(c).  Each differential is a slice of
it, and every slice is a run of whole blocks, so the order of the cells
inside a block changes no rank.  Degree-n homology uses the columns of
the blocks q >= max(0, n) for the map out and those of q >= max(0, n + 1)
for the map in, with all their rows.  Because only compact complexes are
accepted, Borel-Moore homology agrees with ordinary homology, and
equivariant cohomology in degree n is built on the blocks C^q with
q <= n: its coboundary is the transpose of the columns of the blocks
q <= n + 1 with the rows of the blocks q > n masked off (sigma is an
involution, so the 1 + sigma block is symmetric), and has the rank of
the rows of the blocks q <= n.  Plain homology masks the boundary of
block n to the rows of block n - 1, dropping 1 + sigma.

For every n <= -1 the degree-n piece and the pieces next to it are all the
blocks C_0 .. C_top, so the differentials in and out are the same matrices:
H_{-1} is the whole negative tail, exactly, with no stabilisation window.

A GCWComplex is immutable and its constructor runs ``validate_complex``,
so each complex is validated once.  It checks on ids that every face and
every sigma image is a cell of the right dimension and that sigma is an
involution.  Then it builds the total differential D = boundary +
(1 + sigma) and checks on its columns that D squares to zero, one column
at a time:

    D^2 = boundary^2 + (boundary sigma + sigma boundary) + (1 + sigma)^2

over F2, where (1 + sigma)^2 = 0 as sigma^2 = 1.  On a q-cell the first
term lies in the rows of dimension q - 2 and the second in those of
dimension q - 1, so D^2 = 0 holds exactly when boundary^2 = 0 and sigma
commutes with the boundary, and the rows of a nonzero column of D^2 say
which fails.  A valid complex keeps the cell order and the columns it was
checked on, and nothing else of its differential.  Every rank a query
needs is the rank of a suffix of the columns (homology), of the rows
before a block start (cohomology: the count of lowest-row pivots before
it, in one elimination of the kept columns) or of one boundary block
(plain homology), so each of the three tables of dimensions, for the
degrees -1 .. top + 1, is built once per complex by one Gaussian
elimination over F2 with Python integers as bit vectors.  The degrees
below and above read the ends of a table, and each degree reads one
entry.
"""

from __future__ import annotations

import json
import operator
from bisect import bisect_left
from functools import cached_property
from itertools import accumulate, pairwise
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

from .calculus import VirtualClass
from .algebra import IntPoly
from .errors import (
    AssertionMissing,
    FixedSetNotSubcomplex,
    InvalidComplex,
    ToolkitError,
)

#: Largest cell dimension, as ``cli.MAX_ORDER``: ``homology --series`` on a
#: lone cell of this dimension takes about 0.002 s on a 2-CPU VM.
MAX_DIMENSION = 1024

#: Largest cell count: on a 2-CPU VM, building a complex from its cell,
#: face and sigma lists and taking its ``equivariant_betti_series`` takes
#: about 0.013 s on the antipodal S^3 times (S^1)^8, 2048 cells with 1.5
#: faces each, and 0.024 s on the denser antipodal S^7 times the fixed S^7
#: and S^3 (two cells per dimension), 2048 cells with 5 faces each (medians
#: of 21, Python 3.11.7); nearly all of it is the construction, which
#: validates on the total differential it builds.  With the bound raised,
#: it takes 0.082 s on the sparse tower at 8192 cells and 0.15 s on the
#: antipodal S^7 times the fixed S^7 and S^15 at 8192, whose cohomology
#: and plain homology tables take 0.05 s more.
MAX_CELLS = 2048

#: Largest span n_max - n_min of a ``homology_table``, and of ``homology
#: --range``, checked before any work: the span of -5 .. top + 1, the
#: default table of ``homology``, at the largest dimension.
MAX_DEGREE_SPAN = MAX_DIMENSION + 6


class GCWComplex:
    """A finite CW complex over F2 with a cellular involution, valid and
    immutable once built.

    ``cells`` maps id -> dimension (0 .. MAX_DIMENSION), with at most
    MAX_CELLS cells, ``boundary`` maps id -> frozenset of ids one dimension
    down (already reduced mod 2), ``sigma`` is the involution (missing
    entries mean fixed cells); all three are read-only mappings.
    ``fixed_is_geometric`` is a caller assertion that the sigma-fixed cells
    model the geometric fixed set.
    The constructor raises InvalidComplex naming every violated invariant,
    and a complex keeps the total differential that ``validate_complex``
    builds while it checks.
    """

    __slots__ = ("cells", "boundary", "sigma", "fixed_is_geometric", "_chains")

    def __init__(self, cells, boundary=None, sigma=None, fixed_is_geometric=False):
        cell_map = {}
        for cell_id, dim in cells.items() if isinstance(cells, dict) else cells:
            if str(cell_id) in cell_map:
                raise InvalidComplex(f"duplicate cell id {cell_id!r}")
            try:
                cell_map[str(cell_id)] = operator.index(dim)
            except TypeError:
                raise InvalidComplex("cell dimensions must be integers") from None
        if len(cell_map) > MAX_CELLS:
            raise InvalidComplex(
                f"invalid complex: more than {MAX_CELLS} cells")
        if any(not 0 <= d <= MAX_DIMENSION for d in cell_map.values()):
            raise InvalidComplex(
                f"cell dimensions must be from 0 to {MAX_DIMENSION}")
        # faces and sigma images share the id strings of ``cells``; an id
        # that is not a cell keeps its own, for validate_complex to name
        ids = {c: c for c in cell_map}
        bnd = {}
        for cell_id, faces in (boundary or {}).items():
            reduced = set()
            for f in map(str, faces):  # repeated ids cancel mod 2
                reduced.symmetric_difference_update({ids.get(f, f)})
            if reduced:
                bnd[ids.get(str(cell_id), str(cell_id))] = frozenset(reduced)
        invol = dict(ids)
        for a, b in (sigma or {}).items():
            invol[str(a)] = ids.get(str(b), str(b))
        object.__setattr__(self, "cells", MappingProxyType(cell_map))
        object.__setattr__(self, "boundary", MappingProxyType(bnd))
        object.__setattr__(self, "sigma", MappingProxyType(invol))
        object.__setattr__(self, "fixed_is_geometric", bool(fixed_is_geometric))
        object.__setattr__(self, "_chains", None)
        report = validate_complex(self)
        if report:
            raise InvalidComplex("invalid complex: " + "; ".join(report))

    def __setattr__(self, *args):
        raise AttributeError("GCWComplex is immutable")

    # -- structured text form ------------------------------------------------

    @classmethod
    def from_dict(cls, data: dict) -> "GCWComplex":
        if not isinstance(data, dict):
            raise InvalidComplex("complex data must be a JSON object")
        if "cells" not in data:
            raise InvalidComplex("complex data has no 'cells' list")
        try:
            cells = [(c["id"], c["dim"]) for c in data["cells"]]
            # JSON integers only: a bool, float or string is refused, not cast
            if any(type(dim) is not int for _, dim in cells):
                raise InvalidComplex("cell dimensions must be integers")
            fixed_is_geometric = data.get("fixed_is_geometric", False)
            if type(fixed_is_geometric) is not bool:
                raise InvalidComplex("fixed_is_geometric must be a boolean")
            boundary = data.get("boundary", {})
            for cell, faces in boundary.items():
                if not isinstance(faces, list):
                    raise InvalidComplex(f"boundary of {cell!r} must be a list")
            return cls(cells,
                       boundary=boundary,
                       sigma=data.get("sigma", {}),
                       fixed_is_geometric=fixed_is_geometric)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise InvalidComplex(f"malformed complex data "
                                 f"({type(exc).__name__}: {exc})") from exc

    @classmethod
    def load(cls, path) -> "GCWComplex":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (ValueError, RecursionError) as exc:  # or nested too deeply
            raise InvalidComplex(f"invalid JSON: {exc}") from exc
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        return {
            "cells": [{"id": c, "dim": d} for c, d in sorted(self.cells.items())],
            "boundary": {c: sorted(fs) for c, fs in sorted(self.boundary.items())},
            "sigma": {a: b for a, b in sorted(self.sigma.items()) if a != b},
            "fixed_is_geometric": self.fixed_is_geometric,
        }

    # -- basic queries ---------------------------------------------------------

    @property
    def top_dimension(self) -> int:
        return max(self.cells.values(), default=-1)


def validate_complex(x: GCWComplex) -> list:
    """Every violated invariant with the offending cells; empty means valid.

    Faces and sigma images are checked on ids, the bad faces of a cell
    named in sorted order.  When they are all cells of the right
    dimension and sigma is an involution, the chain data of ``x`` is
    built, and boundary^2 = 0 and sigma commuting with the boundary are
    checked on its columns.  A complex under construction keeps that
    chain data if both hold; a constructed one keeps its own."""
    report = []
    for a, b in x.sigma.items():
        if a not in x.cells:
            report.append(f"sigma defined on unknown cell {a!r}")
            continue
        if b not in x.cells:
            report.append(f"sigma({a!r}) = {b!r} is not a cell")
            continue
        if x.cells[a] != x.cells[b]:
            report.append(f"sigma({a!r}) changes dimension "
                          f"{x.cells[a]} -> {x.cells[b]}")
        if x.sigma.get(b) != a:
            report.append(f"sigma is not an involution at {a!r}")
    cells = x.cells
    for cell, faces in x.boundary.items():
        if cell not in cells:
            report.append(f"boundary defined on unknown cell {cell!r}")
            continue
        below = cells[cell] - 1
        for f in sorted(faces):  # not in hash order, which varies by run
            if f not in cells:
                report.append(f"boundary of {cell!r} hits unknown cell {f!r}")
            elif cells[f] != below:
                report.append(f"boundary of {cell!r} hits {f!r} of dimension "
                              f"{cells[f]}, expected {below}")
    if report:
        return report  # structural breakage; skip the algebraic checks
    # D(D(cell)), the XOR of the columns of cell, sigma(cell) and its
    # faces, is boundary(boundary(cell)) in the rows of dimension q - 2
    # plus boundary(sigma(cell)) + sigma(boundary(cell)) in those of
    # dimension q - 1, for a q-cell: (1 + sigma)^2 = 0 as sigma^2 = 1
    chains = _ChainData(x)
    order, start = chains._order, chains.start
    column = dict(zip(order, chains.columns))
    sigma, boundary = x.sigma, x.boundary
    for cell, q in x.cells.items():
        square = column[cell] ^ column[sigma[cell]]
        for f in boundary.get(cell, ()):
            square ^= column[f]
        if square:
            low = start[q - 1]
            second = square & ((1 << low) - 1)
            if second:
                ids = sorted(order[i] for i in range(low) if second >> i & 1)
                report.append(f"boundary of boundary of {cell!r} is {ids}")
            if square >> low:
                report.append(
                    f"sigma does not commute with boundary at {cell!r}")
    if not report and x._chains is None:
        object.__setattr__(x, "_chains", chains)
    return report


# ---------------------------------------------------------------------------
# F2 linear algebra: a map is a list of column bitmasks

def gf2_rank(columns) -> list:
    """Ranks over F2 of every prefix of ``columns`` from one elimination:
    entry k is the rank of ``columns[:k]``, so the last is the full rank."""
    pivots = {}
    rank = 0
    ranks = [0]
    for v in columns:
        while v:
            top = v.bit_length() - 1
            if top in pivots:
                v ^= pivots[top]
            else:
                pivots[top] = v
                rank += 1
                break
        ranks.append(rank)
    return ranks


class _ChainData:
    """The total differential of one complex as one matrix, and the tables
    of dimensions that the homology queries read.

    Cells are grouped by dimension, in the complex's own order inside each
    block, and column i, over rows in the same order, is boundary(cell i) +
    (1 + sigma)(cell i).  ``start[q]`` is the position of the first cell of
    dimension q, and ``start[top + 1]`` the cell count.  Every rank read is
    that of a whole block or run of blocks, so the order inside a block
    changes none.  ``validate_complex`` builds this object once the
    structural checks pass, and checks D(D(cell)) = 0 on its columns.
    Only the cell order and the columns are kept, never the complex: it
    holds this object, and a reference back would be a cycle that only
    the garbage collector frees.  Each table is a plain list of
    dimensions, entry n + 1 for degree n = -1 .. top + 1, built by one
    elimination of the columns on the first query that reads it (for
    cohomology, the count of lowest-row pivots); a query reads one entry."""

    def __init__(self, x: GCWComplex):
        cells, sigma, boundary = x.cells, x.sigma, x.boundary
        self._order = sorted(cells, key=cells.__getitem__)
        counts = [0] * (x.top_dimension + 2)
        for d in cells.values():
            counts[d + 1] += 1
        self.start = list(accumulate(counts))
        bit = {c: 1 << i for i, c in enumerate(self._order)}
        self.columns = []
        for cell in self._order:
            col = bit[cell] ^ bit[sigma[cell]]
            for f in boundary.get(cell, ()):
                col ^= bit[f]
            self.columns.append(col)

    @cached_property
    def homology_dims(self) -> list:
        """Equivariant homology in degrees -1 .. top + 1, from the rank of
        ``columns[start[q]:]`` for every block q."""
        total = len(self.columns)
        ranks = gf2_rank(self.columns[::-1])
        suffix = [ranks[total - s] for s in self.start]
        return [total - s0 - r0 - r1 for (s0, _), (r0, r1)
                in zip(_degrees(self.start), _degrees(suffix))]

    @cached_property
    def cohomology_dims(self) -> list:
        """Equivariant cohomology in degrees -1 .. top + 1, from the rank of
        the rows before ``start[q]`` for every block q: the transpose of
        ``columns[:start[q + 1]]`` with the rows from ``start[q]`` on masked
        off, since no later column has an entry in those rows.  One
        elimination of the columns keys each pivot by its lowest row, and
        that rank is the number of pivot rows before ``start[q]``."""
        pivots = {}
        for v in self.columns:
            while v and (low := (v & -v).bit_length() - 1) in pivots:
                v ^= pivots[low]
            if v:
                pivots[low] = v
        rows = sorted(pivots)
        prefix = [bisect_left(rows, s) for s in self.start]
        return [s1 - r1 - r0 for (_, s1), (r0, r1)
                in zip(_degrees(self.start), _degrees(prefix))]

    @cached_property
    def plain_dims(self) -> list:
        """Plain homology in degrees -1 .. top + 1, from the rank of the
        boundary of every block q: its columns with the rows from
        ``start[q]`` on masked off (0 for the empty block top + 1).  The
        blocks hit disjoint rows, so one elimination ranks all."""
        masked = []
        for s, e in pairwise(self.start):
            masked += map(((1 << s) - 1).__and__, self.columns[s:e])
        ranks = gf2_rank(masked)
        blocks = [ranks[e] - ranks[s] for s, e in pairwise(self.start)] + [0]
        return [s1 - s0 - r0 - r1 for (s0, s1), (r0, r1)
                in zip(_degrees(self.start), _degrees(blocks))]


def _degrees(blocks: list):
    """The pairs (blocks[b(n)], blocks[b(n + 1)]) for n = -1 .. top + 1 of a
    list over the blocks 0 .. top + 1, where b(q) is q clamped to that
    range: degree -1 reads block 0 twice and top + 1 the last block twice."""
    return pairwise([blocks[0], *blocks, blocks[-1]])


def _read(table: list, n: int) -> int:
    """Degree n of a table over the degrees -1 .. top + 1: every degree
    below it reads the first entry, every degree above it the last."""
    i = n + 1
    return table[i] if 0 <= i < len(table) else table[0 if i < 0 else -1]


def equivariant_homology(x: GCWComplex, n: int) -> int:
    """dim over F2 of the n-th equivariant Borel-Moore homology group."""
    return _read(x._chains.homology_dims, n)


def plain_homology(x: GCWComplex, n: int) -> int:
    """Ordinary cellular F2 homology dimension (the involution is ignored)."""
    return _read(x._chains.plain_dims, n)


def equivariant_cohomology(x: GCWComplex, n: int) -> int:
    """dim over F2 of the n-th equivariant cohomology group.

    The coboundary out of degree n is the transpose of the total
    differential from the blocks q <= n + 1 to the blocks q <= n, and has
    its rank; valid because the accepted complexes are compact.  It is not
    0 above the top degree: every degree n >= top + 1 reads the total F2
    Betti number of the fixed set (the point gives 1 in every degree
    n >= 0).
    """
    return _read(x._chains.cohomology_dims, n)


# ---------------------------------------------------------------------------
# derived operations

class HomologyResult(NamedTuple):
    """A homology table: degree -> dimension, plus the value of every degree
    below the table when the table reaches -2 with at least two rows (every
    degree <= -1 has the dimension of H_{-1})."""

    group_dims: dict
    stable_negative_dim: int | None = None


def homology_table(x: GCWComplex, n_min: int, n_max: int) -> HomologyResult:
    if n_min > n_max:
        raise ToolkitError(f"empty degree range {n_min}..{n_max}")
    if n_max - n_min > MAX_DEGREE_SPAN:
        raise ToolkitError(f"degree range {n_min}..{n_max} spans more "
                           f"than {MAX_DEGREE_SPAN} degrees")
    table = x._chains.homology_dims
    dims = {n: _read(table, n) for n in range(n_max, n_min - 1, -1)}
    stable = dims[n_min] if n_min <= -2 and n_min < n_max else None
    return HomologyResult(dims, stable)


def fixed_subcomplex(x: GCWComplex) -> GCWComplex:
    """Subcomplex of involution-fixed cells, with the identity involution."""
    if not x.fixed_is_geometric:
        raise AssertionMissing(
            "fixed_subcomplex requires the fixed_is_geometric assertion")
    fixed = {c for c, image in x.sigma.items() if c == image}
    for cell in sorted(fixed):  # not in hash order, which varies by run
        stray = set(x.boundary.get(cell, ())) - fixed
        if stray:
            raise FixedSetNotSubcomplex(
                f"boundary of fixed cell {cell!r} leaves the fixed set: "
                f"{sorted(stray)}")
    return GCWComplex({c: x.cells[c] for c in fixed},
                      boundary={c: x.boundary[c] for c in fixed
                                if c in x.boundary},
                      sigma={},
                      fixed_is_geometric=True)


def equivariant_betti_series(x: GCWComplex) -> VirtualClass:
    """The equivariant Poincare series of a compact nonsingular complex, in
    normal form P(u) + c*u/(u-1): H_top ... H_{-1} are read top down, and c
    is the dimension of H_{-1}, shared by every degree below zero (the
    homology of the fixed set).
    """
    table = x._chains.homology_dims
    top = max(len(table) - 3, 0)  # the table holds degrees -1 .. top + 1
    tail = table[0]
    dims = dict(zip(range(top, -1, -1), table[top + 1:0:-1]))
    dims[0] -= tail
    return VirtualClass(IntPoly(dims), tail)


def product_with_trivial(x: GCWComplex, y: GCWComplex) -> GCWComplex:
    """Product complex of x (any involution) with y (identity involution).

    Cells are pairs, dimensions add, the boundary is the Leibniz sum mod 2
    and the involution acts on the first factor.
    """
    if any(a != b for a, b in y.sigma.items()):
        raise InvalidComplex("second factor must carry the identity involution")

    # each pair id is formatted once and shared by its cell, faces and image
    ids = {(a, b): f"{a}|{b}" for a in x.cells for b in y.cells}
    # a list, so the constructor can reject pair-id collisions
    cells = [(cell, x.cells[a] + y.cells[b]) for (a, b), cell in ids.items()]
    boundary = {}
    for (a, b), cell in ids.items():
        faces = [ids[fa, b] for fa in x.boundary.get(a, ())]
        faces += [ids[a, fb] for fb in y.boundary.get(b, ())]
        if faces:
            boundary[cell] = faces
    sigma = {cell: ids[x.sigma[a], b] for (a, b), cell in ids.items()}
    return GCWComplex(cells, boundary, sigma,
                      fixed_is_geometric=x.fixed_is_geometric
                      and y.fixed_is_geometric)
