"""Tolerance discipline for floating-point geometry.

The paper's constructions live in exact real arithmetic; we reproduce
them in float64.  Every feature the algorithms depend on (edge lengths,
orbit radii, angles between rotation axes) is bounded well away from
zero for the configurations the model admits, so a uniform absolute /
relative tolerance is sound.  All comparisons in the library funnel
through this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "LOOSE_TOL",
    "AXIS_NORM_FLOOR",
    "SPAN_FLOOR",
    "CIRCUMSPHERE_DENOM_FLOOR",
    "ANGLE_WRAP_EPS",
    "COPLANAR_DET_FLOOR",
    "ALLCLOSE_RTOL",
    "isclose",
    "iszero",
    "canonical_round",
]

# ----------------------------------------------------------------------
# Named degeneracy floors.
#
# These are NOT comparison tolerances: they guard denominators and
# norms against degenerate inputs (collinear triples, zero-length
# axes) before a division or normalization.  They live here so every
# magic threshold in the library has one audited home (the REP001
# tolerance-discipline lint forbids raw literals elsewhere).
# ----------------------------------------------------------------------

#: Norm below which a would-be axis/direction vector is treated as
#: degenerate (no usable direction).  Well below any slack the
#: algorithms compare against, far above accumulated rounding noise
#: on unit-scale data.
AXIS_NORM_FLOOR = 1e-12

#: Floor for display spans (bounding-box extents, depth ranges) when
#: normalizing coordinates for rendering: a configuration collapsed
#: to a point still gets a finite scale.
SPAN_FLOOR = 1e-9

#: Collapse threshold for the 2pi angle wraparound: canonical
#: angle encodings round to 6 decimals, so anything within half a
#: quantum of 2pi must encode as 0.0 (observers at -1e-16 and
#: +1e-16 would otherwise disagree).
ANGLE_WRAP_EPS = 5e-7

#: Floor for the circumcircle denominator ``2|AB x AC|^2`` of a point
#: triple.  The quantity is quartic in edge lengths, so the floor sits
#: at (1e-4.5)^4 — collinearity detection for unit-scale triangles.
CIRCUMSPHERE_DENOM_FLOOR = 1e-18

#: Floor for the 3x3 edge-matrix determinant of a point quadruple
#: (cubic in edge lengths): below it the four points are treated as
#: coplanar and the circumsphere falls back to triangle balls.
COPLANAR_DET_FLOOR = 1e-15

#: ``numpy.allclose``'s default relative tolerance.  The orthogonality
#: test of :func:`repro.geometry.rotations.is_rotation_matrix` is
#: ``np.allclose(R Rᵀ, I, atol=10 * abs_tol)`` written out, and keeps
#: its relative term so its verdicts stay the same.
ALLCLOSE_RTOL = 1e-5


@dataclass(frozen=True)
class Tolerance:
    """Absolute and relative tolerance pair used across the library.

    Attributes
    ----------
    abs_tol:
        Absolute slack used when comparing quantities near zero.
    rel_tol:
        Relative slack used when comparing large quantities.
    """

    abs_tol: float = 1e-7
    rel_tol: float = 1e-7

    def close(self, a: float, b: float) -> bool:
        """Return True if ``a`` and ``b`` are equal within tolerance."""
        return bool(
            abs(a - b) <= max(self.abs_tol, self.rel_tol * max(abs(a), abs(b)))
        )

    def zero(self, a: float) -> bool:
        """Return True if ``a`` is zero within absolute tolerance."""
        return bool(abs(a) <= self.abs_tol)

    def scaled(self, scale: float) -> "Tolerance":
        """Return a tolerance whose absolute slack is scaled by ``scale``.

        Useful when working with configurations whose coordinates were
        multiplied by a known factor.
        """
        return Tolerance(abs_tol=self.abs_tol * max(scale, 1.0),
                         rel_tol=self.rel_tol)

    def geometric_slack(self, scale: float) -> float:
        """Distance slack for clustering / incidence tests at ``scale``.

        Used by symmetry detection and symmetricity to decide when two
        points coincide, when a point sits on an axis, and so on.  The
        factor 10 absorbs the error accumulated by chained float
        operations (differences, cross products, rotations) between the
        raw coordinates and the compared quantity.  With the default
        tolerances this equals the historical ``1e-6 * max(scale, 1)``
        slack, but it now follows a caller-supplied :class:`Tolerance`.
        """
        return 10.0 * max(self.abs_tol, self.rel_tol * max(scale, 1.0))

    def coincidence_slack(self, scale: float) -> float:
        """Distance below which two constructed points *coincide*.

        Used when deduplicating points of a synthesized orbit, when
        testing whether a rotation is the identity, and when padding
        exact kd-tree query radii.  Sits two orders of magnitude below
        :meth:`geometric_slack`: coincidence candidates are produced
        by a single exact construction (not a chained alignment), so
        their noise floor is far lower.  Equals the historical
        ``1e-9 * max(scale, 1)`` threshold with the default tolerances.
        """
        return 0.01 * max(self.abs_tol, self.rel_tol * max(scale, 1.0))

    def alignment_slack(self, scale: float) -> float:
        """Slack for quantities reconstructed through a full alignment.

        Matching a group element's image back to a concrete robot (or
        an orbit point to an axis) composes rotation estimation, frame
        conjugation and differencing; the error budget is an order of
        magnitude above :meth:`geometric_slack`.  Equals the historical
        ``1e-5 * max(scale, 1)`` slack with the default tolerances.
        """
        return 100.0 * max(self.abs_tol, self.rel_tol * max(scale, 1.0))

    def relative_slack(self, scale: float) -> float:
        """Purely relative slack ``10 * rel_tol * scale`` (no floor).

        For comparisons where the natural scale is itself the compared
        quantity (e.g. radius uniformity of a candidate polyhedron):
        an absolute floor would misclassify tiny configurations.
        Equals the historical ``1e-6 * scale`` with the defaults.
        """
        return 10.0 * self.rel_tol * scale

    def motion_slack(self, scale: float) -> float:
        """Displacement below which a robot counts as *not moved*.

        Fixpoint detection must sit far below the geometric slack:
        a robot whose destination differs from its position by mere
        conjugation/rounding noise (~1e-12 relative) has stayed put,
        while any deliberate move of the paper's procedures is a
        macroscopic fraction of the configuration's radius.  With the
        default tolerances this equals the historical
        ``1e-12 * max(scale, 1)`` threshold of the FSYNC scheduler.
        """
        return 1e-5 * max(self.abs_tol, self.rel_tol * max(scale, 1.0))

    def motion_slack_batch(self, scales: np.ndarray) -> np.ndarray:
        """:meth:`motion_slack` over an array of scales at once.

        Elementwise identical (same operations, NumPy maximum instead
        of the scalar ``max``) — the scheduler's vectorized fixpoint
        check must agree bit for bit with the historical per-robot
        comparison.
        """
        return 1e-5 * np.maximum(self.abs_tol,
                                 self.rel_tol * np.maximum(scales, 1.0))


DEFAULT_TOL = Tolerance()

#: Loose verification tolerance for matrices reconstructed from noisy
#: frames (e.g. checking that a candidate alignment is a rotation at
#: all before using it).  Two orders of magnitude looser than
#: :data:`DEFAULT_TOL` — rejection here means "numerically invalid",
#: not "not quite equal".
LOOSE_TOL = Tolerance(abs_tol=1e-5, rel_tol=1e-5)


def isclose(a: float, b: float, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Return True if scalars ``a`` and ``b`` agree within ``tol``."""
    return tol.close(float(a), float(b))


def iszero(a: float, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Return True if scalar ``a`` is zero within ``tol``."""
    return tol.zero(float(a))


def canonical_round(value, decimals: int = 6):
    """Round ``value`` (scalar or array) for hashing / dict keys.

    Rounding maps ``-0.0`` to ``0.0`` so keys built from rounded
    coordinates are stable across sign-of-zero noise.
    """
    rounded = np.round(np.asarray(value, dtype=float), decimals)
    rounded = rounded + 0.0  # normalizes -0.0 to 0.0
    if rounded.ndim == 0:
        return float(rounded)
    return rounded
