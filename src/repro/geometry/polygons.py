"""Regular polygons embedded in 3-space: generation and detection."""

from __future__ import annotations

import numpy as np

from repro.errors import GeometryError
from repro.geometry.tolerance import DEFAULT_TOL, Tolerance
from repro.geometry.vectors import as_vector, orthonormal_basis_for

__all__ = [
    "regular_polygon",
    "is_regular_polygon",
    "regular_polygon_fold",
]


def regular_polygon(k: int, radius: float = 1.0, center=(0.0, 0.0, 0.0),
                    axis=(0.0, 0.0, 1.0), phase: float = 0.0) -> list[np.ndarray]:
    """Vertices of a regular ``k``-gon in the plane through ``center``
    perpendicular to ``axis``.

    ``phase`` rotates the polygon about the axis (radians).  ``k = 1``
    gives a single point offset from the center; ``k = 2`` gives two
    antipodal points (the paper treats a point as a regular 1-gon and a
    pair as a regular 2-gon).
    """
    if k < 1:
        raise GeometryError("polygon needs k >= 1 vertices")
    if radius <= 0:
        raise GeometryError("polygon radius must be positive")
    u, v, _ = orthonormal_basis_for(axis)
    c = as_vector(center)
    pts = []
    for i in range(k):
        ang = phase + 2.0 * np.pi * i / k
        pts.append(c + radius * (np.cos(ang) * u + np.sin(ang) * v))
    return pts


def is_regular_polygon(points, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True if the points are the vertices of a regular polygon.

    Points must be coplanar, equidistant from their centroid, and have
    consecutive angular gaps of exactly ``2 pi / k`` about the
    centroid.  Two points always qualify (regular 2-gon); a single
    point qualifies (regular 1-gon); three or more are checked fully.
    """
    return regular_polygon_fold(points, tol) is not None


def regular_polygon_fold(points, tol: Tolerance = DEFAULT_TOL) -> int | None:
    """Return ``k`` if the points form a regular ``k``-gon, else None.

    The fold equals the number of points.  For one or two points the
    answer is 1 or 2 by the paper's convention.
    """
    pts = [as_vector(p) for p in points]
    n = len(pts)
    if n == 0:
        return None
    if n == 1:
        return 1
    if n == 2:
        return 2
    arr = np.asarray(pts)
    center = arr.mean(axis=0)
    rel = arr - center
    radii = np.linalg.norm(rel, axis=1)
    scale = float(radii.max())
    if tol.zero(scale):
        return None
    slack = 20 * max(tol.abs_tol, tol.rel_tol) * max(1.0, scale)
    if not np.allclose(radii, radii[0], atol=slack):
        return None
    # Coplanarity: normal from first two independent directions.
    normal = None
    for i in range(1, n):
        cand = np.cross(rel[0], rel[i])
        if np.linalg.norm(cand) > slack * scale:
            normal = cand / np.linalg.norm(cand)
            break
    if normal is None:
        return None  # collinear, cannot be a k-gon with k >= 3
    if not np.allclose(rel @ normal, 0.0, atol=slack):
        return None
    # Angular positions about the normal.
    u = rel[0] / np.linalg.norm(rel[0])
    v = np.cross(normal, u)
    angles = np.arctan2(rel @ v, rel @ u)
    angles = np.sort(np.mod(angles, 2.0 * np.pi))
    gaps = np.diff(np.concatenate([angles, [angles[0] + 2.0 * np.pi]]))
    expected = 2.0 * np.pi / n
    angle_slack = 40 * max(tol.abs_tol, tol.rel_tol)
    if not np.allclose(gaps, expected, atol=angle_slack):
        return None
    return n
