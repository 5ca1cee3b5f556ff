"""Tolerant 3D Euclidean geometry substrate.

All higher layers (rotation groups, symmetricity, the robot simulator)
are built on the primitives exported here.  Floating point comparisons
throughout the library go through :mod:`repro.geometry.tolerance` so a
single tolerance discipline applies everywhere.
"""

from repro.geometry.tolerance import (
    DEFAULT_TOL,
    Tolerance,
    isclose,
    iszero,
    canonical_round,
)
from repro.geometry.vectors import (
    norm,
    normalize,
    distance,
    angle_between,
    orthonormal_basis_for,
    is_unit,
    are_parallel,
    are_perpendicular,
    centroid,
)
from repro.geometry.rotations import (
    rotation_about_axis,
    rotation_angle,
    rotation_axis,
    is_rotation_matrix,
    identity_rotation,
    rotation_aligning,
    random_rotation,
    rotation_order,
)
from repro.geometry.balls import (
    Ball,
    smallest_enclosing_ball,
    innermost_empty_ball,
    is_spherical,
)
from repro.geometry.transforms import Similarity
from repro.geometry.polygons import (
    regular_polygon_fold,
    is_regular_polygon,
    regular_polygon,
)
from repro.geometry.convex import ConvexPolyhedron

__all__ = [
    "DEFAULT_TOL",
    "Tolerance",
    "isclose",
    "iszero",
    "canonical_round",
    "norm",
    "normalize",
    "distance",
    "angle_between",
    "orthonormal_basis_for",
    "is_unit",
    "are_parallel",
    "are_perpendicular",
    "centroid",
    "rotation_about_axis",
    "rotation_angle",
    "rotation_axis",
    "is_rotation_matrix",
    "identity_rotation",
    "rotation_aligning",
    "random_rotation",
    "rotation_order",
    "Ball",
    "smallest_enclosing_ball",
    "innermost_empty_ball",
    "is_spherical",
    "Similarity",
    "regular_polygon_fold",
    "is_regular_polygon",
    "regular_polygon",
    "ConvexPolyhedron",
]
