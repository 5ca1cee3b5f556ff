"""Orbit decompositions of configurations under rotation groups.

Implements the ``γ(P)``-decomposition (Theorem 3.1) and the
``G``-decomposition for arbitrary subgroups ``G ⪯ γ(P)``, the folding
``μ`` of transitive sets (Lemma 1), the recognizable principal axis of
``D_2`` (Property 1), and point-set-derived axis orientations.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GroupError
from repro.core.configuration import Configuration
from repro.core.signatures import cylindrical_signature, line_signature
from repro.geometry.neighbors import neighbor_index
from repro.geometry.tolerance import AXIS_NORM_FLOOR, DEFAULT_TOL
from repro.groups.group import GroupKind, RotationGroup

__all__ = [
    "orbit_decomposition",
    "orbit_folding",
    "is_transitive",
    "principal_axis_of_d2",
    "oriented_axis_direction",
]


def _match_slack(config: Configuration) -> float:
    return DEFAULT_TOL.alignment_slack(config.radius)


def orbit_decomposition(config: Configuration, group: RotationGroup,
                        center=None) -> list[list[int]]:
    """Partition robot indices into orbits of ``group``'s action.

    ``group`` must act on the configuration (every rotated point must
    be a point of the configuration); the group's rotations are taken
    about ``center`` (default ``b(P)``).

    Returns a list of orbits, each a list of indices into
    ``config.points``.  Coincident robots (multiplicities) are spread
    over the matching positions, so the result is a partition of all
    ``n`` indices.

    The greedy claim semantics of the historical per-image scan are
    preserved exactly — each image claims the unclaimed robot of
    minimal ``(distance, index)`` within the slack, a position already
    claimed by this orbit is a stabilizer hit — but candidates come
    from one k-d range query per orbit instead of an
    ``O(n · |G| · n)`` Python scan.  The query radius is inflated by
    one relative floor and candidates are re-checked with the exact
    norm, so the claimed sets cannot differ from the exact scan's.
    """
    c = np.asarray(center if center is not None else config.center,
                   dtype=float)
    n = len(config.points)
    if group.order == 1:
        # Identity-only action: every robot claims itself at distance
        # zero, exactly what the greedy matcher would produce.
        return [[i] for i in range(n)]
    pts = np.asarray([np.asarray(p, dtype=float)
                      for p in config.points]) - c
    slack = _match_slack(config)
    stack = np.stack(group.elements)
    tree = neighbor_index(pts)
    radius = slack * (1.0 + AXIS_NORM_FLOOR)
    assigned = np.zeros(n, dtype=bool)
    orbits: list[list[int]] = []
    seed = 0
    while seed < n:
        if assigned[seed]:
            seed += 1
            continue
        images = np.einsum("gij,j->gi", stack, pts[seed])
        hits = tree.query_ball_point(images, radius)
        orbit: list[int] = []
        in_orbit = np.zeros(n, dtype=bool)
        for image, cand in zip(images, hits):
            best = -1
            best_d = None
            stabilizer = False
            for idx in sorted(cand):
                d = float(np.linalg.norm(pts[idx] - image))
                if d > slack:
                    continue
                if in_orbit[idx]:
                    stabilizer = True
                elif not assigned[idx] and (best_d is None or d < best_d):
                    best = idx
                    best_d = d
            if best >= 0:
                orbit.append(best)
                in_orbit[best] = True
            elif not stabilizer:
                raise GroupError(
                    "group does not act on the configuration "
                    "(orbit image has no matching robot)")
        for idx in orbit:
            assigned[idx] = True
        orbits.append(sorted(orbit))
    return orbits


def orbit_folding(config: Configuration, group: RotationGroup,
                  orbit: list[int], center=None) -> int:
    """Folding ``μ`` of a transitive orbit (Lemma 1): ``|G| / |orbit|``.

    Coincident robots in the orbit count once (the folding is a
    property of positions, not of robots).
    """
    c = np.asarray(center if center is not None else config.center,
                   dtype=float)
    slack = _match_slack(config)
    distinct: list[np.ndarray] = []
    for idx in orbit:
        p = config.points[idx] - c
        if not any(float(np.linalg.norm(p - q)) <= slack for q in distinct):
            distinct.append(p)
    size = len(distinct)
    if group.order % size != 0:
        raise GroupError("orbit size does not divide the group order")
    return group.order // size


def is_transitive(config: Configuration, group: RotationGroup,
                  center=None) -> bool:
    """True if the whole configuration is a single orbit of ``group``."""
    try:
        orbits = orbit_decomposition(config, group, center)
    except GroupError:
        return False
    return len(orbits) == 1


def principal_axis_of_d2(config: Configuration,
                         group: RotationGroup) -> np.ndarray:
    """The recognizable principal axis of a ``D_2`` arrangement.

    Property 1: when ``γ(P) = D_2`` the three 2-fold axes are always
    distinguishable from the point set — otherwise the rotation group
    would be strictly larger.  We pick the axis whose line signature is
    lexicographically smallest (strictly below the other two when the
    arrangement is genuinely ``D_2``).
    """
    if group.spec.kind is not GroupKind.DIHEDRAL or group.spec.param != 2:
        raise GroupError("principal_axis_of_d2 requires a D_2 group")
    rel = config.relative_points()
    mults = [1] * len(rel)
    scored = sorted(
        (line_signature(rel, mults, axis.direction), i)
        for i, axis in enumerate(group.axes)
    )
    return group.axes[scored[0][1]].direction


def oriented_axis_direction(config: Configuration, direction,
                            group: RotationGroup | None = None
                            ) -> np.ndarray | None:
    """Preferred direction along an axis, derived from the point set.

    Returns the direction ``d`` (unit) such that the configuration's
    cylindrical signature about ``d`` dominates the one about ``-d``,
    or None when the two ends are equivalent (some symmetry of ``P``
    reverses the axis — the axis is unoriented in this arrangement).
    """
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    grp = group if group is not None else config.rotation_group
    if grp is not None:
        for mat in grp.elements:
            if (float(np.linalg.norm(mat @ d + d))
                    <= DEFAULT_TOL.geometric_slack(1.0)):
                return None  # a group element reverses the axis
    rel = config.relative_points()
    mults = [1] * len(rel)
    plus = cylindrical_signature(rel, mults, d)
    minus = cylindrical_signature(rel, mults, -d)
    if plus == minus:
        return None
    return d if plus > minus else -d
