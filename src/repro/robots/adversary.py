"""Adversarial assignment of local coordinate systems.

The impossibility half of Theorem 1.1 rests on Lemma 4: for any
``G ∈ ϱ(P)`` there is an arrangement of local coordinate systems with
``σ(P) = G`` that no algorithm can break.  This module constructs such
arrangements explicitly (used by the benchmarks that validate the
lower bound) alongside ordinary random frames.
"""

from __future__ import annotations

import numpy as np

from repro.core.configuration import Configuration
from repro.core.decomposition import orbit_decomposition
from repro.errors import SimulationError
from repro.geometry.rotations import haar_rotations
from repro.geometry.tolerance import DEFAULT_TOL
from repro.groups.group import RotationGroup
from repro.robots.model import LocalFrame

__all__ = ["identity_frames", "random_frames", "symmetric_frames"]


def identity_frames(n: int) -> list[LocalFrame]:
    """All robots share the global orientation and unit (debug aid)."""
    return [LocalFrame() for _ in range(n)]


def random_frames(n: int, rng: np.random.Generator,
                  scale_range: tuple[float, float] = (0.25, 4.0)
                  ) -> list[LocalFrame]:
    """Independent uniformly-random frames — the 'generic' adversary.

    The same frames, bit for bit, as ``[LocalFrame.random(rng,
    scale_range) for _ in range(n)]``: the draws keep their order (per
    robot one ``rng.uniform``, then one ``rng.normal(size=(3, 3))``),
    and the QR step runs once over the stacked Gaussian matrices.
    """
    log_low, log_high = np.log(scale_range[0]), np.log(scale_range[1])
    scales = []
    gauss = np.empty((n, 3, 3))
    for i in range(n):
        scales.append(float(np.exp(rng.uniform(log_low, log_high))))
        gauss[i] = rng.normal(size=(3, 3))
    return [LocalFrame(rotation=rotation, scale=scale)
            for rotation, scale in zip(haar_rotations(gauss), scales)]


def symmetric_frames(config: Configuration, witness: RotationGroup,
                     rng: np.random.Generator,
                     scale_range: tuple[float, float] = (0.25, 4.0)
                     ) -> list[LocalFrame]:
    """Frames realizing ``σ(P) = G`` for a symmetricity witness ``G``.

    ``witness`` must be a concrete arrangement acting on ``config``
    with every orbit free (size ``|G|``) — exactly what
    :func:`repro.core.symmetricity.symmetricity` records.  For each
    orbit a random frame is drawn for one representative and the
    group's rotations are pushed onto the other members, so symmetric
    robots obtain *identical* local observations forever (Lemma 2).

    Raises
    ------
    SimulationError
        If some orbit is not free (a robot on a rotation axis of the
        witness cannot receive a consistent symmetric frame).
    """
    orbits = orbit_decomposition(config, witness)
    center = config.center
    frames: list[LocalFrame | None] = [None] * config.n
    for orbit in orbits:
        if len(orbit) != witness.order:
            raise SimulationError(
                "witness group does not act freely on the configuration")
        rep = orbit[0]
        rep_frame = LocalFrame.random(rng, scale_range)
        rep_rel = config.points[rep] - center
        used: set[int] = set()
        for mat in witness.elements:
            image = mat @ rep_rel
            target = _find_orbit_member(config, orbit, used, image, center)
            frames[target] = rep_frame.composed_with(mat)
            used.add(target)
    assert all(f is not None for f in frames)
    return frames  # type: ignore[return-value]


def _find_orbit_member(config: Configuration, orbit, used, image,
                       center) -> int:
    slack = DEFAULT_TOL.alignment_slack(config.radius)
    for idx in orbit:
        if idx in used:
            continue
        if float(np.linalg.norm(config.points[idx] - center - image)) <= slack:
            return idx
    raise SimulationError("orbit member for group image not found")
