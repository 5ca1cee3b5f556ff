"""Similarity transforms and pattern similarity testing.

The paper's set ``T`` consists of rotations, translations, uniform
scalings and their combinations (all orientation preserving, since
local coordinate systems are right-handed).  ``F' ≃ F`` means there is
a ``Z ∈ T`` with ``F' = Z(F)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import GeometryError
from repro.geometry.rotations import is_rotation_matrix, random_rotation
from repro.geometry.tolerance import (
    AXIS_NORM_FLOOR,
    DEFAULT_TOL,
    LOOSE_TOL,
    Tolerance,
)
from repro.geometry.vectors import as_vector

__all__ = ["Similarity", "are_similar"]


@dataclass(frozen=True)
class Similarity:
    """Orientation-preserving similarity ``x -> scale * R x + t``."""

    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    scale: float = 1.0
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise GeometryError("similarity scale must be positive")
        if not is_rotation_matrix(self.rotation):
            raise GeometryError("similarity rotation must be in SO(3)")

    def apply(self, point) -> np.ndarray:
        """Image of a single point."""
        return self.scale * (self.rotation @ as_vector(point)) + self.translation

    def apply_all(self, points) -> list[np.ndarray]:
        """Image of each point in a collection (order preserved)."""
        return [self.apply(p) for p in points]

    def inverse(self) -> "Similarity":
        """The inverse similarity."""
        rot_inv = self.rotation.T
        scale_inv = 1.0 / self.scale
        return Similarity(
            rotation=rot_inv,
            scale=scale_inv,
            translation=-scale_inv * (rot_inv @ self.translation),
        )

    def compose(self, other: "Similarity") -> "Similarity":
        """Return the similarity ``self ∘ other`` (apply other first)."""
        return Similarity(
            rotation=self.rotation @ other.rotation,
            scale=self.scale * other.scale,
            translation=self.scale * (self.rotation @ other.translation)
            + self.translation,
        )

    @staticmethod
    def random(rng: np.random.Generator,
               scale_range: tuple[float, float] = (0.2, 5.0),
               translation_scale: float = 10.0) -> "Similarity":
        """Random similarity (uniform rotation, log-uniform scale)."""
        low, high = scale_range
        scale = float(np.exp(rng.uniform(np.log(low), np.log(high))))
        return Similarity(
            rotation=random_rotation(rng),
            scale=scale,
            translation=rng.normal(scale=translation_scale, size=3),
        )


def _normalized_cloud(points, tol: Tolerance) -> np.ndarray | None:
    """Center at the centroid and scale RMS radius to 1.

    Returns None for a degenerate (single repeated point) cloud.
    """
    arr = np.asarray(points, dtype=float)
    arr = arr - arr.mean(axis=0)
    rms = float(np.sqrt((arr ** 2).sum() / len(arr)))
    if tol.zero(rms):
        return None
    return arr / rms


def are_similar(first, second, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Test whether two point multisets are similar (``first ≃ second``).

    Both arguments are sequences of 3-points; multiplicities matter but
    order does not.  Only orientation-preserving similarities count,
    matching the paper's ``T``.

    Strategy: normalize both clouds (centroid to origin, RMS radius to
    1), then search for a rotation aligning them.  Candidate rotations
    map a deterministic pair of independent points of the first cloud
    onto candidate pairs of the second; each candidate is verified
    against the full multiset.
    """
    a_pts = [np.asarray(p, dtype=float) for p in first]
    b_pts = [np.asarray(p, dtype=float) for p in second]
    if len(a_pts) != len(b_pts):
        return False
    if len(a_pts) == 0:
        return True
    a_cloud = _normalized_cloud(a_pts, tol)
    b_cloud = _normalized_cloud(b_pts, tol)
    if a_cloud is None or b_cloud is None:
        return a_cloud is None and b_cloud is None
    return _clouds_rotation_equal(a_cloud, b_cloud, tol)


def _clouds_rotation_equal(a: np.ndarray, b: np.ndarray,
                           tol: Tolerance) -> bool:
    """True if some rotation maps multiset ``a`` onto multiset ``b``."""
    slack = 40 * max(tol.abs_tol, tol.rel_tol)
    radii_a = np.linalg.norm(a, axis=1)
    radii_b = np.linalg.norm(b, axis=1)
    if not np.allclose(np.sort(radii_a), np.sort(radii_b), atol=slack):
        return False
    # Pick an anchor in a: the point with the largest radius (farthest
    # from the centroid); ties do not matter, any anchor works.
    i0 = int(np.argmax(radii_a))
    p0 = a[i0]
    r0 = radii_a[i0]
    # Second anchor: point not collinear with p0 through origin and
    # with the largest perpendicular distance from the p0 line.
    perp = np.linalg.norm(np.cross(a, p0[None, :] / max(r0, 1e-300)), axis=1)
    i1 = int(np.argmax(perp))
    collinear_cloud = perp[i1] <= slack
    candidates_0 = [j for j in range(len(b))
                    if abs(radii_b[j] - r0) <= slack]
    if collinear_cloud:
        # All points on a line through the origin: align the line.
        return _collinear_rotation_equal(a, b, i0, candidates_0, tol, slack)
    p1 = a[i1]
    r1 = radii_a[i1]
    dot01 = float(np.dot(p0, p1))
    for j0 in candidates_0:
        q0 = b[j0]
        for j1 in range(len(b)):
            if abs(radii_b[j1] - r1) > slack:
                continue
            q1 = b[j1]
            if abs(float(np.dot(q0, q1)) - dot01) > slack * max(1.0, r0 * r1):
                continue
            rot = _rotation_mapping_pairs(p0, p1, q0, q1, tol)
            if rot is None:
                continue
            if _multiset_equal(a @ rot.T, b, slack):
                return True
    return False


def _collinear_rotation_equal(a, b, i0, candidates_0, tol, slack) -> bool:
    """Handle clouds whose points all lie on a line through origin."""
    from repro.geometry.rotations import rotation_aligning

    p0 = a[i0]
    for j0 in candidates_0:
        q0 = b[j0]
        if np.linalg.norm(q0) <= slack:
            continue
        rot = rotation_aligning(p0, q0, tol)
        if _multiset_equal(a @ rot.T, b, slack):
            return True
    return False


def _rotation_mapping_pairs(p0, p1, q0, q1, tol) -> np.ndarray | None:
    """Rotation with ``R p0 = q0`` and ``R p1 = q1`` if one exists."""
    n_p = np.cross(p0, p1)
    n_q = np.cross(q0, q1)
    len_np = float(np.linalg.norm(n_p))
    len_nq = float(np.linalg.norm(n_q))
    if tol.zero(len_np) or tol.zero(len_nq):
        return None
    basis_p = _frame(p0, n_p)
    basis_q = _frame(q0, n_q)
    if basis_p is None or basis_q is None:
        return None
    rot = basis_q @ basis_p.T
    # Guard against numerically invalid frames.
    if not is_rotation_matrix(rot, LOOSE_TOL):
        return None
    return rot


def _frame(x, n) -> np.ndarray | None:
    """Right-handed orthonormal frame with first axis ∥ x, third ∥ n."""
    lx = float(np.linalg.norm(x))
    ln = float(np.linalg.norm(n))
    if lx < AXIS_NORM_FLOOR or ln < AXIS_NORM_FLOOR:
        return None
    e0 = x / lx
    e2 = n / ln
    e1 = np.cross(e2, e0)
    return np.column_stack([e0, e1, e2])


def _multiset_equal(a: np.ndarray, b: np.ndarray, slack: float) -> bool:
    """Multiset equality of two point clouds with greedy matching."""
    remaining = list(range(len(b)))
    for p in a:
        best_idx = None
        best_d = None
        for pos, j in enumerate(remaining):
            d = float(np.linalg.norm(p - b[j]))
            if best_d is None or d < best_d:
                best_d = d
                best_idx = pos
        if best_d is None or best_d > slack:
            return False
        remaining.pop(best_idx)
    return True
