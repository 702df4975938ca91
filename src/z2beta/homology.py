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
total differential: one column per cell, the cells sorted by dimension,
column c = boundary(c) + (1 + sigma)(c).  Each differential is a slice of
it.  Degree-n homology uses the columns of the blocks q >= max(0, n) for
the map out and those of q >= max(0, n + 1) for the map in, with all their
rows.  Because only compact complexes are accepted, Borel-Moore homology
agrees with ordinary homology, and equivariant cohomology in degree n is
built on the blocks C^q with q <= n: its coboundary is the transpose of the
columns of the blocks q <= n + 1 with the rows of the blocks q > n masked
off (sigma is an involution, so the 1 + sigma block is symmetric), and over
F2 a matrix and its transpose have the same rank.  Plain homology masks the
boundary of block n to the rows of block n - 1, dropping 1 + sigma.

For every n <= -1 the degree-n piece and the pieces next to it are all the
blocks C_0 .. C_top, so the differentials in and out are the same matrices:
H_{-1} is the whole negative tail, exactly, with no stabilisation window.

A GCWComplex is immutable and its constructor runs ``validate_complex``,
so each complex is validated once.  Its total differential is built once,
on its first homology query.

Ranks are taken by dense Gaussian elimination over F2 with Python integers
as bit rows.
"""

from __future__ import annotations

import json
from itertools import accumulate
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
#: lone cell of this dimension takes about 0.02 s on a 2-CPU VM.
MAX_DIMENSION = 1024

#: Largest cell count: ``equivariant_betti_series`` of the antipodal S^3
#: times (S^1)^8, 2048 cells, takes about 2 s on a 2-CPU VM (0.4 s at 1024
#: cells, 13 s at 4096).
MAX_CELLS = 2048


class GCWComplex:
    """A finite CW complex over F2 with a cellular involution, valid and
    immutable once built.

    ``cells`` maps id -> dimension (0 .. MAX_DIMENSION), with at most
    MAX_CELLS cells, ``boundary`` maps id -> frozenset of ids one dimension
    down (already reduced mod 2), ``sigma`` is the involution (missing
    entries mean fixed cells); all three are read-only mappings.
    ``fixed_is_geometric`` is a caller assertion that the sigma-fixed cells
    model the geometric fixed set.
    The constructor raises InvalidComplex naming every violated invariant.
    """

    __slots__ = ("cells", "boundary", "sigma", "fixed_is_geometric", "_chains")

    def __init__(self, cells, boundary=None, sigma=None, fixed_is_geometric=False):
        cell_map = {}
        for cell_id, dim in cells.items() if isinstance(cells, dict) else cells:
            if str(cell_id) in cell_map:
                raise InvalidComplex(f"duplicate cell id {cell_id!r}")
            cell_map[str(cell_id)] = int(dim)
        if len(cell_map) > MAX_CELLS:
            raise InvalidComplex(
                f"invalid complex: more than {MAX_CELLS} cells")
        if any(not 0 <= d <= MAX_DIMENSION for d in cell_map.values()):
            raise InvalidComplex(
                f"cell dimensions must be from 0 to {MAX_DIMENSION}")
        bnd = {}
        for cell_id, faces in (boundary or {}).items():
            reduced = set()
            for f in faces:  # repeated ids cancel mod 2
                reduced.symmetric_difference_update({str(f)})
            if reduced:
                bnd[str(cell_id)] = frozenset(reduced)
        invol = {c: c for c in cell_map}
        for a, b in (sigma or {}).items():
            invol[str(a)] = str(b)
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
        try:
            cells = [(c["id"], c["dim"]) for c in data.get("cells", [])]
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

    def _chain_data(self) -> "_ChainData":
        """The total differential, built on the first homology query."""
        if self._chains is None:
            object.__setattr__(self, "_chains", _ChainData(self))
        return self._chains


def validate_complex(x: GCWComplex) -> list:
    """Every violated invariant with the offending cells; empty means valid."""
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
    for cell, faces in x.boundary.items():
        if cell not in x.cells:
            report.append(f"boundary defined on unknown cell {cell!r}")
            continue
        for f in faces:
            if f not in x.cells:
                report.append(f"boundary of {cell!r} hits unknown cell {f!r}")
            elif x.cells[f] != x.cells[cell] - 1:
                report.append(f"boundary of {cell!r} hits {f!r} of dimension "
                              f"{x.cells[f]}, expected {x.cells[cell] - 1}")
    if report:
        return report  # structural breakage; skip the algebraic checks
    for cell in x.cells:
        # d(d(cell)) = 0 over F2
        second = set()
        for f in x.boundary.get(cell, ()):
            second.symmetric_difference_update(x.boundary.get(f, ()))
        if second:
            report.append(f"boundary of boundary of {cell!r} is {sorted(second)}")
        # sigma commutes with the boundary
        mapped = {x.sigma[f] for f in x.boundary.get(cell, ())}
        if mapped != set(x.boundary.get(x.sigma[cell], ())):
            report.append(f"sigma does not commute with boundary at {cell!r}")
    return report


# ---------------------------------------------------------------------------
# F2 linear algebra: a map is a list of column bitmasks

def gf2_rank(columns) -> int:
    pivots = {}
    rank = 0
    for v in columns:
        while v:
            top = v.bit_length() - 1
            if top in pivots:
                v ^= pivots[top]
            else:
                pivots[top] = v
                rank += 1
                break
    return rank


def _apply(columns, vector: int, start: int) -> int:
    """The image of ``vector`` under ``columns[start:]``; bit i of
    ``vector`` (i >= start) selects column i."""
    out = 0
    vector >>= start
    j = start
    while vector:
        if vector & 1:
            out ^= columns[j]
        vector >>= 1
        j += 1
    return out


def _masked_rank(columns, end: int) -> int:
    """Rank of ``columns`` restricted to the rows before position ``end``."""
    mask = (1 << end) - 1
    return gf2_rank([col & mask for col in columns])


class _ChainData:
    """The total differential of one complex as one matrix.

    Cells are sorted by (dimension, id) and column i, over rows in the same
    order, is boundary(cell i) + (1 + sigma)(cell i).  ``start[q]`` is the
    position of the first cell of dimension q, and ``start[top + 1]`` the
    cell count."""

    def __init__(self, x: GCWComplex):
        order = sorted(x.cells, key=lambda c: (x.cells[c], c))
        index = {c: i for i, c in enumerate(order)}
        counts = [0] * (x.top_dimension + 2)
        for d in x.cells.values():
            counts[d + 1] += 1
        self.start = list(accumulate(counts))
        self.columns = []
        for i, cell in enumerate(order):
            col = (1 << i) ^ (1 << index[x.sigma[cell]])
            for f in x.boundary.get(cell, ()):
                col ^= 1 << index[f]
            self.columns.append(col)

    def pos(self, q: int) -> int:
        """Position of the first cell of dimension >= q."""
        return self.start[min(max(q, 0), len(self.start) - 1)]


def equivariant_homology(x: GCWComplex, n: int) -> int:
    """dim over F2 of the n-th equivariant Borel-Moore homology group."""
    data = x._chain_data()
    cols, lo, hi = data.columns, data.pos(n), data.pos(n + 1)
    # the total differential squares to zero
    for col in cols[hi:]:
        if _apply(cols, col, lo):
            raise InvalidComplex(
                f"total differential fails to square to zero in degree {n + 1}")
    return len(cols) - lo - gf2_rank(cols[lo:]) - gf2_rank(cols[hi:])


def plain_homology(x: GCWComplex, n: int) -> int:
    """Ordinary cellular F2 homology dimension (the involution is ignored)."""
    data = x._chain_data()
    cols, lo, mid = data.columns, data.pos(n), data.pos(n + 1)
    return (mid - lo - _masked_rank(cols[lo:mid], lo)
            - _masked_rank(cols[mid:data.pos(n + 2)], mid))


def equivariant_cohomology(x: GCWComplex, n: int) -> int:
    """dim over F2 of the n-th equivariant cohomology group.

    The coboundary out of degree n is the transpose of the total
    differential from the blocks q <= n + 1 to the blocks q <= n, and has
    its rank; valid because the accepted complexes are compact.
    """
    data = x._chain_data()
    cols, lo, mid = data.columns, data.pos(n), data.pos(n + 1)
    return (mid - _masked_rank(cols[:data.pos(n + 2)], mid)
            - _masked_rank(cols[:mid], lo))


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
    dims = {}
    for n in range(n_max, n_min - 1, -1):
        # every degree below -1 has the blocks, so the dimension, of H_{-1}
        dims[n] = dims[n + 1] if n < -1 and n + 1 in dims \
            else equivariant_homology(x, n)
    stable = dims[n_min] if n_min <= -2 and n_min < n_max else None
    return HomologyResult(dims, stable)


def fixed_subcomplex(x: GCWComplex) -> GCWComplex:
    """Subcomplex of involution-fixed cells, with the identity involution."""
    if not x.fixed_is_geometric:
        raise AssertionMissing(
            "fixed_subcomplex requires the fixed_is_geometric assertion")
    fixed = {c for c, image in x.sigma.items() if c == image}
    for cell in fixed:
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
    top = max(x.top_dimension, 0)
    dims = {n: equivariant_homology(x, n) for n in range(top, -2, -1)}
    tail = dims.pop(-1)
    dims[0] -= tail
    return VirtualClass(IntPoly(dims), tail)


def product_with_trivial(x: GCWComplex, y: GCWComplex) -> GCWComplex:
    """Product complex of x (any involution) with y (identity involution).

    Cells are pairs, dimensions add, the boundary is the Leibniz sum mod 2
    and the involution acts on the first factor.
    """
    if any(a != b for a, b in y.sigma.items()):
        raise InvalidComplex("second factor must carry the identity involution")

    def pair_id(a: str, b: str) -> str:
        return f"{a}|{b}"

    # a list, so the constructor can reject pair-id collisions
    cells = [(pair_id(a, b), da + db)
             for a, da in x.cells.items() for b, db in y.cells.items()]
    boundary = {}
    for a in x.cells:
        for b in y.cells:
            faces = [pair_id(fa, b) for fa in x.boundary.get(a, ())]
            faces += [pair_id(a, fb) for fb in y.boundary.get(b, ())]
            if faces:
                boundary[pair_id(a, b)] = faces
    sigma = {pair_id(a, b): pair_id(x.sigma[a], b)
             for a in x.cells for b in y.cells}
    return GCWComplex(cells, boundary, sigma,
                      fixed_is_geometric=x.fixed_is_geometric
                      and y.fixed_is_geometric)
