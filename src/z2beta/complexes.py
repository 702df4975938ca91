"""Curated cellular models used throughout the test vectors.

All of them are compact, so their equivariant series can be read off their
homology and compared against the closed forms of the calculus atoms.  A
sphere takes the atoms' actions, ``calculus.SPHERE_ACTIONS``.
"""

from __future__ import annotations

from .calculus import ACTION_FREE, Atom
from .homology import GCWComplex


def point_complex() -> GCWComplex:
    """A single fixed 0-cell."""
    return GCWComplex({"v": 0}, fixed_is_geometric=True)


def swapped_pair_complex() -> GCWComplex:
    """Two 0-cells exchanged by the involution."""
    return GCWComplex({"p": 0, "q": 0}, sigma={"p": "q", "q": "p"},
                      fixed_is_geometric=True)


def two_fixed_points_complex() -> GCWComplex:
    """Two fixed 0-cells."""
    return GCWComplex({"p": 0, "q": 0}, fixed_is_geometric=True)


def sphere_complex(d: int, action: str) -> GCWComplex:
    """A d-sphere with the involution of ``Atom.sphere(d, action)``, which
    validates both arguments (``InvalidAtom``).

    * ``free``: two cells in every dimension 0..d, swapped by the
      involution, with d(c_q) = both cells below (the antipodal map).
    * ``with_fixed_point`` / ``trivial``: one 0-cell and one d-cell, both
      fixed.  A cellular action with a fixed point is trivial on this
      decomposition whatever the geometric action does, which is why the two
      actions share a model.
    """
    Atom.sphere(d, action)  # validates d and action
    if action != ACTION_FREE:
        # for d = 1 the two endpoints of the 1-cell agree and cancel mod 2
        return GCWComplex({"v": 0, "e": d}, boundary={"e": []},
                          fixed_is_geometric=True)
    cells = {}
    boundary = {}
    sigma = {}
    for q in range(d + 1):
        plus, minus = f"c{q}+", f"c{q}-"
        cells[plus] = cells[minus] = q
        sigma[plus], sigma[minus] = minus, plus
        if q >= 1:
            below = [f"c{q - 1}+", f"c{q - 1}-"]
            boundary[plus] = below
            boundary[minus] = below
    return GCWComplex(cells, boundary, sigma, fixed_is_geometric=True)
