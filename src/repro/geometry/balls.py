"""Smallest enclosing ball (Welzl, 3D) and the innermost empty ball.

The paper denotes by ``B(P)`` the smallest enclosing ball of a point
(multi)set ``P``, by ``b(P)`` its center, and by ``I(P)`` the innermost
empty ball: the largest ball centered at ``b(P)`` whose interior
contains no point of ``P`` (at least one point of ``P`` lies on it).

Every kernel here keeps the bits of the NumPy formulation it replaced:
``tests/properties/kernel_oracle.py`` holds that formulation of Welzl's
recursion, and the equivalence suite compares centre bytes and radii.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from repro.errors import GeometryError
from repro.geometry.tolerance import (
    CIRCUMSPHERE_DENOM_FLOOR,
    COPLANAR_DET_FLOOR,
    DEFAULT_TOL,
    Tolerance,
)

__all__ = [
    "Ball",
    "smallest_enclosing_ball",
    "innermost_empty_ball",
    "is_spherical",
]

# From this many points on, Welzl runs on the convex-hull vertices
# only (the support of the smallest enclosing ball is a subset of the
# hull).  Below the gate the historical full-set path runs unchanged,
# so small (oracle-pinned) workloads stay bit-identical.
_HULL_PRUNE_MIN = 512

# Skip hull pruning when every point lies in a thin spherical shell
# around the centroid (min radius above this fraction of the max):
# nearly every point is then a hull vertex, so Qhull — slowest exactly
# on such degenerate inputs — would do all the work for no pruning,
# while Welzl's violation scans terminate quickly anyway.
_THIN_SHELL = 0.9


@dataclass(frozen=True)
class Ball:
    """A ball in 3-space given by center and radius."""

    center: np.ndarray
    radius: float

    def contains(self, point, tol: Tolerance = DEFAULT_TOL) -> bool:
        """True if ``point`` lies in the closed ball (with slack)."""
        d = float(np.linalg.norm(np.asarray(point, dtype=float) - self.center))
        return d <= self.radius + tol.abs_tol + tol.rel_tol * max(self.radius, 1.0)

    def on_sphere(self, point, tol: Tolerance = DEFAULT_TOL) -> bool:
        """True if ``point`` lies on the bounding sphere."""
        d = float(np.linalg.norm(np.asarray(point, dtype=float) - self.center))
        return tol.close(d, self.radius)

    def strictly_inside(self, point, tol: Tolerance = DEFAULT_TOL) -> bool:
        """True if ``point`` lies in the open ball (off the sphere)."""
        d = float(np.linalg.norm(np.asarray(point, dtype=float) - self.center))
        return d < self.radius - max(tol.abs_tol, tol.rel_tol * max(self.radius, 1.0))


def _ball_from_points(points: list[np.ndarray]) -> Ball:
    """Exact smallest ball through 0..4 boundary points.

    The 2-point radius and the 4-point ``det``/``solve`` stay NumPy
    calls: a 1-D ``np.linalg.norm`` or ``np.dot`` goes through BLAS,
    whose bits scalar arithmetic does not reproduce.
    """
    count = len(points)
    if count == 0:
        return Ball(center=np.zeros(3), radius=0.0)
    if count == 1:
        return Ball(center=points[0].copy(), radius=0.0)
    if count == 2:
        center = (points[0] + points[1]) / 2.0
        radius = float(np.linalg.norm(points[0] - center))
        return Ball(center=center, radius=radius)
    if count == 3:
        return _circumball_triangle(points[0], points[1], points[2])
    return _circumball_tetrahedron(points[0], points[1], points[2], points[3])


def _cross3(u, v) -> tuple[float, float, float]:
    """Cross product of two 3-tuples in scalar arithmetic.

    ``np.cross`` pays two orders of magnitude of call overhead on
    3-vectors, and the circumball helpers sit in Welzl's innermost
    recursion.
    """
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _circumball_triangle(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> Ball:
    """Smallest ball whose sphere passes through three points.

    The center lies in the plane of the triangle (circumcenter).
    Degenerate (collinear) triples fall back to the longest-edge
    diametral ball.
    """
    ax, ay, az = a.tolist()
    bx, by, bz = b.tolist()
    cx, cy, cz = c.tolist()
    ab = (bx - ax, by - ay, bz - az)
    ac = (cx - ax, cy - ay, cz - az)
    cross = _cross3(ab, ac)
    denom = 2.0 * (cross[0] ** 2 + cross[1] ** 2 + cross[2] ** 2)
    if denom < CIRCUMSPHERE_DENOM_FLOOR:
        # Collinear: diametral ball of the farthest pair.
        pairs = [(a, b), (a, c), (b, c)]
        far = max(pairs, key=lambda pq: float(np.linalg.norm(pq[0] - pq[1])))
        center = (far[0] + far[1]) / 2.0
        return Ball(center=center, radius=float(np.linalg.norm(far[0] - center)))
    ab_sq = ab[0] ** 2 + ab[1] ** 2 + ab[2] ** 2
    ac_sq = ac[0] ** 2 + ac[1] ** 2 + ac[2] ** 2
    cross_ab = _cross3(cross, ab)
    ac_cross = _cross3(ac, cross)
    rel = ((ac_sq * cross_ab[0] + ab_sq * ac_cross[0]) / denom,
           (ac_sq * cross_ab[1] + ab_sq * ac_cross[1]) / denom,
           (ac_sq * cross_ab[2] + ab_sq * ac_cross[2]) / denom)
    center = np.array([ax + rel[0], ay + rel[1], az + rel[2]])
    radius = math.hypot(*rel)
    return Ball(center=center, radius=radius)


def _circumball_tetrahedron(a, b, c, d) -> Ball:
    """Ball whose sphere passes through four points (circumsphere)."""
    mat = np.stack([b - a, c - a, d - a])
    rhs = 0.5 * np.array([
        float(np.dot(b - a, b - a)),
        float(np.dot(c - a, c - a)),
        float(np.dot(d - a, d - a)),
    ])
    det = float(np.linalg.det(mat))
    if abs(det) < COPLANAR_DET_FLOOR:
        # Degenerate (coplanar) quadruple: fall back to triangle balls.
        best: Ball | None = None
        pts = [a, b, c, d]
        for i in range(4):
            sub = [pts[j] for j in range(4) if j != i]
            ball = _circumball_triangle(*sub)
            if all(ball.contains(p) for p in pts):
                if best is None or ball.radius < best.radius:
                    best = ball
        if best is None:
            raise GeometryError("degenerate circumsphere support set")
        return best
    rel = np.linalg.solve(mat, rhs)
    center = a + rel
    radius = float(np.linalg.norm(rel))
    return Ball(center=center, radius=radius)


def _boundary_candidates(pts: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Convex-hull vertices of ``pts``.

    The support set of the smallest enclosing ball lies on the convex
    hull, so Welzl may run on the hull vertices alone.  Qhull rejects
    rank-deficient input, so the rank is detected first and flat
    configurations are projected: coplanar sets keep the property
    (their ball center lies in the plane), collinear sets reduce to
    the extreme pair.  Any Qhull failure returns the full set —
    pruning is an optimization, never a correctness dependency.
    """
    from scipy.spatial import ConvexHull, QhullError

    centered = pts - pts.mean(axis=0)
    try:
        _, sing, vt = np.linalg.svd(centered, full_matrices=False)
    except np.linalg.LinAlgError:
        return pts
    floor = tol.relative_slack(float(sing[0]))
    rank = int(np.sum(sing > floor))
    try:
        if rank >= 3:
            return pts[ConvexHull(centered).vertices]
        if rank == 2:
            return pts[ConvexHull(centered @ vt[:2].T).vertices]
        if rank == 1:
            along = centered @ vt[0]
            return pts[[int(np.argmin(along)), int(np.argmax(along))]]
        return pts[:1]
    except (QhullError, ValueError):
        return pts


def smallest_enclosing_ball(points, tol: Tolerance = DEFAULT_TOL,
                            seed: int = 0) -> Ball:
    """Smallest enclosing ball ``B(P)`` of a non-empty point set.

    Implements Welzl's randomized move-to-front algorithm.  The
    shuffle uses a deterministic seed so results are reproducible: the
    points are visited in the order ``random.Random(seed)`` shuffles
    their indices into.  Large inputs are pre-pruned to their
    convex-hull vertices (see :data:`_HULL_PRUNE_MIN`); the recursion
    then runs on the support superset only.
    """
    arr = np.asarray(points, dtype=float)
    if arr.size == 0:
        raise GeometryError("smallest enclosing ball of an empty set")
    if len(arr) >= _HULL_PRUNE_MIN:
        radii = np.linalg.norm(arr - arr.mean(axis=0), axis=1)
        rmax = float(radii.max())
        if rmax <= 0.0 or float(radii.min()) < _THIN_SHELL * rmax:
            arr = _boundary_candidates(arr, tol)
    order = list(range(len(arr)))
    random.Random(seed).shuffle(order)
    shuffled = arr[order]
    return _welzl(shuffled, shuffled.tolist(), len(shuffled), [], tol)


def _welzl(points: np.ndarray, rows: list, end: int,
           boundary: list[np.ndarray], tol: Tolerance) -> Ball:
    """Welzl's recursion over ``points[:end]`` with a scalar scan.

    ``rows`` holds the same points as Python floats, walked in order.
    A point outside the current ball joins the boundary of a recursion
    over the points before it, whose ball becomes the current one.  The
    distance is ``sqrt((dx*dx + dy*dy) + dz*dz)``, the bits that
    ``np.linalg.norm(tail - center, axis=1)`` gives, without a NumPy
    round trip per step.  Boundary points stay rows of ``points``, so
    the balls through them are the ones the NumPy formulation built.
    """
    ball = _ball_from_points(boundary)
    if len(boundary) == 4:
        return ball
    cx, cy, cz = ball.center.tolist()
    limit = ball.radius + tol.abs_tol + tol.rel_tol * max(ball.radius, 1.0)
    for i in range(end):
        x, y, z = rows[i]
        dx = x - cx
        dy = y - cy
        dz = z - cz
        if math.sqrt((dx * dx + dy * dy) + dz * dz) > limit:
            ball = _welzl(points, rows, i, boundary + [points[i]], tol)
            cx, cy, cz = ball.center.tolist()
            limit = (ball.radius + tol.abs_tol
                     + tol.rel_tol * max(ball.radius, 1.0))
    return ball


def innermost_empty_ball(points, center=None,
                         tol: Tolerance = DEFAULT_TOL) -> Ball:
    """Innermost empty ball ``I(P)``: centered at ``b(P)``, touching
    the nearest point of ``P``.

    ``center`` overrides the ball center (defaults to ``b(P)``).
    If a point of ``P`` sits exactly at the center, the radius is 0.
    """
    pts = np.asarray([np.asarray(p, dtype=float) for p in points],
                     dtype=float)
    if pts.size == 0:
        raise GeometryError("innermost empty ball of an empty set")
    if center is None:
        center = smallest_enclosing_ball(list(pts), tol).center
    center = np.asarray(center, dtype=float)
    radius = float(np.linalg.norm(pts - center, axis=1).min())
    return Ball(center=center, radius=radius)


def is_spherical(points, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True if all points lie on the smallest enclosing sphere."""
    pts = [np.asarray(p, dtype=float) for p in points]
    ball = smallest_enclosing_ball(pts, tol)
    scale_tol = Tolerance(abs_tol=tol.abs_tol * max(1.0, ball.radius),
                          rel_tol=tol.rel_tol)
    return all(ball.on_sphere(p, scale_tol) for p in pts)
