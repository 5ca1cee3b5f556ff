"""Configurations: positions of the robot swarm as a point multiset.

A :class:`Configuration` is an immutable snapshot ``P(t)`` of robot
positions observed in some coordinate system.  It caches derived data
(smallest enclosing ball, symmetry report) since detection is the
expensive step everywhere in the library.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.errors import ConfigurationError
from repro.geometry.balls import Ball, innermost_empty_ball, smallest_enclosing_ball
from repro.geometry.tolerance import DEFAULT_TOL, Tolerance
from repro.geometry.transforms import Similarity
from repro.groups.detection import (
    Support,
    SymmetryReport,
    collinear_congruent,
    congruent_rotation,
    support_of,
)
from repro.groups.group import RotationGroup

__all__ = ["MAX_CENTRED_NORM", "Configuration", "coordinate_array"]

# The largest distance from the centroid that float64 arithmetic in the
# kernels survives.  The circumcentre of three points
# (``repro.geometry.balls``) sums two products of five coordinate
# differences, each at most twice that distance ``r``: ``2 * (2r)**5``
# must stay below float64's maximum of 1.8e308, so ``r`` below 1.95e61.
# Beyond it the products overflow to wrong balls and groups, or raise.
MAX_CENTRED_NORM = 1.9e61


def coordinate_array(points) -> np.ndarray:
    """``points`` as a new ``(n, 3)`` float64 array the kernels can use.

    Raises :class:`ConfigurationError` for an empty list, points that
    are not 3-vectors, non-finite coordinates, and a point farther than
    :data:`MAX_CENTRED_NORM` from the centroid.  The query server keys
    its point lists through this check too, so a list no configuration
    accepts is refused before it can share a key with an accepted one.
    """
    pts = [np.asarray(p, dtype=float) for p in points]
    if not pts:
        raise ConfigurationError("a configuration cannot be empty")
    if any(p.shape != (3,) for p in pts):
        raise ConfigurationError("points must be 3-vectors")
    arr = np.array(pts)
    if not np.isfinite(arr).all():
        raise ConfigurationError("points must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        rel = arr - arr.mean(axis=0)
        radius = np.sqrt(np.einsum("ij,ij->i", rel, rel).max())
    if not radius < MAX_CENTRED_NORM:
        raise ConfigurationError(
            f"coordinates too large for float64 arithmetic: points must "
            f"stay within {MAX_CENTRED_NORM:.2g} of their centroid")
    return arr


class Configuration:
    """An immutable multiset of robot positions in 3-space."""

    def __init__(self, points, tol: Tolerance = DEFAULT_TOL) -> None:
        arr = coordinate_array(points)
        arr.setflags(write=False)
        self._rows = arr
        self._points = list(arr)
        self._tol = tol
        self._similar: tuple[bytes, bool] | None = None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def points(self) -> list[np.ndarray]:
        """The positions (read-only arrays; order is meaningless)."""
        return list(self._points)

    @property
    def n(self) -> int:
        """Number of robots (multiset cardinality)."""
        return len(self._points)

    @property
    def tol(self) -> Tolerance:
        """The tolerance this configuration was built with."""
        return self._tol

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self):
        return iter(self._points)

    def __getitem__(self, index: int) -> np.ndarray:
        return self._points[index]

    def as_array(self) -> np.ndarray:
        """Positions as an ``(n, 3)`` array (a copy)."""
        return np.asarray(self._points, dtype=float)

    # ------------------------------------------------------------------
    # Derived geometry (cached)
    # ------------------------------------------------------------------
    @cached_property
    def ball(self) -> Ball:
        """Smallest enclosing ball ``B(P)``."""
        return smallest_enclosing_ball(self._points, self._tol)

    @property
    def center(self) -> np.ndarray:
        """Center ``b(P)`` of the smallest enclosing ball."""
        return self.ball.center

    @property
    def radius(self) -> float:
        """Radius of ``B(P)``."""
        return self.ball.radius

    @cached_property
    def inner_ball(self) -> Ball:
        """Innermost empty ball ``I(P)``."""
        return innermost_empty_ball(self._points, center=self.center,
                                    tol=self._tol)

    @cached_property
    def support(self) -> Support:
        """The distinct points around ``b(P)``, read by ``γ(P)`` and by
        the similarity test."""
        return support_of(self._points, self._tol, ball=self.ball)

    @cached_property
    def symmetry(self) -> SymmetryReport:
        """Full symmetry report (computes ``γ(P)``).

        Served through the congruence cache (:mod:`repro.perf`): the
        scheduler observes each configuration once per robot in
        rotated/scaled local frames, and all those observations share
        one congruence class.
        """
        from repro.perf import cached_symmetry

        return cached_symmetry(self.support)

    @property
    def rotation_group(self) -> RotationGroup | None:
        """``γ(P)`` when finite, else None (collinear / degenerate)."""
        return self.symmetry.group

    @cached_property
    def has_multiplicity(self) -> bool:
        """True if two robots share a position."""
        return self.symmetry.has_multiplicity

    def require_initial(self) -> "Configuration":
        """Validate the paper's initial-configuration assumptions.

        Initial configurations have ``n >= 3`` robots on distinct
        positions.  Returns self for chaining.
        """
        if self.n < 3:
            raise ConfigurationError(
                f"initial configurations need n >= 3 robots, got {self.n}")
        if self.has_multiplicity:
            raise ConfigurationError(
                "initial configurations must not contain multiplicities")
        return self

    # ------------------------------------------------------------------
    # Relations
    # ------------------------------------------------------------------
    def is_similar_to(self, other) -> bool:
        """Pattern similarity ``P ≃ F`` (rotation+translation+scaling).

        ``other`` is a :class:`Configuration` or a point list.  Only
        orientation-preserving similarities count, matching the paper's
        ``T``.  Finite supports pass the congruence cache's hit test (a
        rotation certified on the whole multiset); collinear ones
        compare heights along their lines; any two degenerate ones of
        equal size are similar.

        The answer depends on the two point lists alone, so the last
        one is remembered here, keyed by the other side's coordinates:
        a formation's stop condition and ``ψ_PF``'s own stop test ask
        it of the same round's configuration, one after the other.
        """
        if not isinstance(other, Configuration) or other.tol != self._tol:
            other = Configuration(list(other), self._tol)
        key = other._rows.tobytes()
        if self._similar is None or self._similar[0] != key:
            self._similar = (key, self._supports_similar(other))
        return self._similar[1]

    def _supports_similar(self, other: "Configuration") -> bool:
        mine, theirs = self.support, other.support
        if mine.kind != theirs.kind:
            return False
        if mine.kind == "finite":
            return congruent_rotation(mine.unit, theirs.unit) is not None
        if mine.kind == "collinear":
            return collinear_congruent(mine, theirs)
        return self.n == other.n

    def transformed(self, similarity: Similarity) -> "Configuration":
        """Image of this configuration under a similarity transform."""
        return Configuration(similarity.apply_all(self._points), self._tol)

    def translated_to_origin(self) -> "Configuration":
        """Copy with ``b(P)`` moved to the origin."""
        c = self.center
        return Configuration([p - c for p in self._points], self._tol)

    def relative_points(self) -> list[np.ndarray]:
        """Positions relative to ``b(P)``."""
        c = self.center
        return [p - c for p in self._points]

    def __repr__(self) -> str:
        return f"Configuration(n={self.n})"
