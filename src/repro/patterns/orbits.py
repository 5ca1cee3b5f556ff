"""Transitive point sets ``U_{G,μ}`` (Table 2 of the paper).

``U_{G,μ}`` is the orbit of a seed point whose folding (stabilizer
size) in ``G`` is ``μ``; its cardinality is ``|G| / μ``.  The paper's
Table 2 lists the resulting polyhedra: e.g. ``U_{O,3}`` is a cube,
``U_{I,2}`` an icosidodecahedron.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GroupError
from repro.geometry.vectors import normalize
from repro.groups.group import RotationGroup

__all__ = ["seed_point_for_folding", "transitive_set", "generic_seed"]

# A fixed direction far from every axis of the catalog groups; used as
# the default seed for folding-1 (free) orbits.
_GENERIC_DIRECTION = np.array([0.2986524, 0.5470863, 0.7820215])


def generic_seed(group: RotationGroup, radius: float = 1.0) -> np.ndarray:
    """A point of folding 1 (off every axis of ``group``)."""
    candidate = normalize(_GENERIC_DIRECTION) * radius
    for attempt in range(64):
        if group.stabilizer_size(candidate) == 1:
            return candidate
        # Nudge deterministically until clear of all axes.
        candidate = normalize(candidate + np.array(
            [0.013 * (attempt + 1), 0.007, 0.019])) * radius
    raise GroupError("could not find a folding-1 seed point")


def seed_point_for_folding(group: RotationGroup, mu: int,
                           radius: float = 1.0) -> np.ndarray:
    """A seed point whose folding in ``group`` is exactly ``mu``.

    ``mu = |G|`` gives the center; ``mu = k`` gives a point on a
    ``k``-fold axis; ``mu = 1`` a generic point.  Raises if the group
    has no axis of fold ``mu``.
    """
    if mu == group.order:
        return np.zeros(3)
    if mu == 1:
        return generic_seed(group, radius)
    axes = group.axes_of_fold(mu)
    if not axes:
        raise GroupError(f"{group.spec} has no {mu}-fold axis")
    return normalize(axes[0].direction) * radius


def transitive_set(group: RotationGroup, mu: int | None = None,
                   seed=None, radius: float = 1.0) -> list[np.ndarray]:
    """The orbit ``U_{G,μ}`` of ``seed`` (or a canonical seed for μ).

    Exactly one of ``mu`` / ``seed`` must be provided.  The returned
    set has ``|G| / μ(seed)`` distinct points.
    """
    if (mu is None) == (seed is None):
        raise GroupError("provide exactly one of mu or seed")
    if seed is None:
        seed = seed_point_for_folding(group, mu, radius)
    return group.orbit(np.asarray(seed, dtype=float))
