"""Rotation axes of finite rotation groups.

An axis is a line through the group's fixed point (always the origin
in this package).  Its *fold* ``k`` is the order of the cyclic subgroup
of rotations about it.  An axis may carry an *orientation*: a preferred
direction along the line, used when embedding one group into another
(Section 3.1 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.geometry.tolerance import DEFAULT_TOL, Tolerance, canonical_round
from repro.geometry.vectors import normalize

__all__ = ["RotationAxis", "axis_line_key", "canonical_direction"]


def canonical_direction(direction, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Normalize a direction and fix its sign canonically.

    The sign convention makes the first coordinate whose magnitude
    exceeds tolerance positive, so the two unit vectors spanning the
    same line map to one representative.
    """
    u = normalize(direction, tol)
    for coord in u:
        if abs(float(coord)) > 1e3 * tol.abs_tol:
            if coord < 0:
                u = -u
            break
    return u


def axis_line_key(direction, decimals: int = 5) -> tuple[float, float, float]:
    """A hashable key identifying the *line* spanned by ``direction``."""
    u = canonical_direction(direction)
    rounded = canonical_round(u, decimals)
    return (float(rounded[0]), float(rounded[1]), float(rounded[2]))


@dataclass(frozen=True)
class RotationAxis:
    """A rotation axis of a concrete group arrangement.

    Attributes
    ----------
    direction:
        Unit vector along the axis.  For unoriented axes the sign is
        canonical; for oriented axes it points in the preferred
        direction.
    fold:
        Order ``k`` of the cyclic subgroup of rotations about the axis.
    oriented:
        True when the two directions of the axis are distinguishable
        in the group arrangement (see Section 3.1: e.g. the single
        axis of ``C_k``, secondary axes of ``D_l`` for odd ``l``, and
        3-fold axes of ``T``).
    occupied:
        True when the axis line contains a point of the configuration
        the group was detected from (meaningless for catalog groups,
        where it defaults to False).
    """

    direction: np.ndarray
    fold: int
    oriented: bool = False
    occupied: bool = False

    def line_key(self) -> tuple[float, float, float]:
        """Hashable key for the line this axis spans."""
        return axis_line_key(self.direction)

    def with_occupied(self, occupied: bool) -> "RotationAxis":
        """Copy of this axis with the ``occupied`` flag replaced."""
        return replace(self, occupied=occupied)

    def with_direction(self, direction) -> "RotationAxis":
        """Copy of this axis pointing along ``direction``."""
        return replace(self, direction=normalize(direction))

    def same_line(self, other_direction, tol: Tolerance = DEFAULT_TOL) -> bool:
        """True if ``other_direction`` spans the same line."""
        u = normalize(other_direction, tol)
        cross = np.cross(self.direction, u)
        return bool(np.linalg.norm(cross) <= 1e3 * tol.abs_tol)
