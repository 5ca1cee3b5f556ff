"""Randomized pattern formation — beyond the deterministic bound.

Theorem 1.1's impossibility half holds for *deterministic* robots: an
adversarial arrangement of local coordinate systems with
``σ(P) = G ∈ ϱ(P)`` forces symmetric robots to move symmetrically
forever.  With access to random bits the robots escape (Yamauchi &
Yamashita, DISC 2014, discussed in the paper's related work): a single
synchronized *jiggle* — each robot moving to an independent random
point near its position — makes the configuration totally asymmetric
(``γ(P') = C_1``) with probability 1, after which the deterministic
``ψ_PF`` forms **any** target pattern.

The implementation keeps the jiggle radius below a quarter of each
robot's distance gap so the enclosing ball's robots stay outermost and
no multiplicity can be created.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.configuration import Configuration
from repro.geometry.tolerance import AXIS_NORM_FLOOR
from repro.robots.algorithms.pattern_formation import (
    make_pattern_formation_algorithm,
)
from repro.robots.model import Observation

__all__ = ["make_randomized_formation_algorithm"]


def make_randomized_formation_algorithm(
        target_points, rng: np.random.Generator,
        jiggle_fraction: float = 0.1,
) -> Callable[[Observation], np.ndarray]:
    """Randomized formation: jiggle until asymmetric, then ``ψ_PF``.

    ``rng`` supplies each robot's random bits (in the randomized model
    each robot has its own source; a shared generator consumed per
    call realizes that in simulation).  ``jiggle_fraction`` scales the
    random displacement relative to the configuration's innermost
    radius.

    Unlike the deterministic algorithm, this forms targets whose
    symmetricity does *not* contain ``ϱ(P)`` — e.g. a cube from a
    regular octagon — with probability 1.
    """
    deterministic = make_pattern_formation_algorithm(target_points)
    target = Configuration(target_points)

    def randomized(observation: Observation) -> np.ndarray:
        config = Configuration(observation.points)
        if config.is_similar_to(target):
            return observation.own_position()
        report = config.symmetry
        asymmetric = (report.kind == "finite"
                      and report.group.is_trivial)
        if asymmetric:
            return deterministic(observation)
        # Jiggle: a uniform random direction, scaled well below the
        # nearest-neighbour separation so distinctness is kept.
        center = config.center
        own = observation.own_position()
        gap = _nearest_gap(observation.points, observation.self_index)
        scale = max(config.inner_ball.radius, 0.05 * config.radius)
        radius = jiggle_fraction * min(scale, gap / 2.0)
        direction = rng.normal(size=3)
        norm = float(np.linalg.norm(direction))
        if norm < AXIS_NORM_FLOOR:
            direction = np.array([1.0, 0.0, 0.0])
            norm = 1.0
        magnitude = float(rng.uniform(0.25 * radius, radius))
        return own + (magnitude / norm) * direction

    return randomized


def _nearest_gap(points, self_index: int) -> float:
    own = points[self_index]
    return min(float(np.linalg.norm(own - p))
               for i, p in enumerate(points) if i != self_index)
