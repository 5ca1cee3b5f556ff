"""Plane formation (Yamauchi–Uehara–Kijima–Yamashita, DISC 2015).

The predecessor problem the paper builds on: make the robots land on a
common plane without multiplicities.  Solvable iff no *3D* rotation
group survives in ``ϱ(P)`` — i.e. the tetrahedral group is not in the
symmetricity.  Implemented on top of this library's substrate:
``ψ_SYM`` breaks the 3D rotation group, then every robot moves into
the plane through ``b(P)`` perpendicular to the surviving principal
axis, onto one free ring per orbit at a radius set by the orbit's
agreed rank, so no two robots collide.
"""

from repro.planeformation.algorithm import (
    is_plane_formable,
    make_plane_formation_algorithm,
    is_coplanar,
)

__all__ = [
    "is_plane_formable",
    "make_plane_formation_algorithm",
    "is_coplanar",
]
