"""Movement models: rigid and non-rigid Move phases.

The paper assumes *rigid* movement (footnote 1 of Section 1): each
robot reaches its computed destination within its Move phase.  The
*non-rigid* alternative from the broader literature lets an adversary
stop a robot anywhere along the segment to its destination, as long as
it has travelled at least an unknown minimum distance ``δ`` (robots
closer than ``δ`` to their destination do reach it).

The scheduler takes a movement model so the rigidity assumption can be
ablated: the paper's algorithms are correct for rigid movement, and
the benchmarks show which behaviours survive a non-rigid adversary.
Its Move phase makes one ``execute_batch`` call per round; ``execute``
is the one-robot form that the batch must stack.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.errors import SimulationError

__all__ = ["MovementModel", "RigidMovement", "NonRigidMovement"]


class MovementModel(Protocol):
    """Maps an intended move to the position actually reached.

    A model provides both methods; the scheduler calls only
    ``execute_batch``.
    """

    def execute(self, start: np.ndarray,
                destination: np.ndarray) -> np.ndarray:
        """Position reached during one Move phase."""
        ...

    def execute_batch(self, starts: np.ndarray,
                      destinations: np.ndarray) -> np.ndarray:
        """Whole-round Move: ``(n, 3)`` starts → ``(n, 3)`` reached.

        Must equal stacking ``execute`` row by row (in index order —
        adversarial models consume their random stream per robot).
        """
        ...


class RigidMovement:
    """The paper's model: every robot reaches its destination."""

    def execute(self, start: np.ndarray,
                destination: np.ndarray) -> np.ndarray:
        return np.asarray(destination, dtype=float)

    def execute_batch(self, starts: np.ndarray,
                      destinations: np.ndarray) -> np.ndarray:
        return np.asarray(destinations, dtype=float)


class NonRigidMovement:
    """Adversarial non-rigid movement with minimum distance ``δ``.

    The adversary (driven by ``rng``) stops each robot at a uniformly
    random point of the segment beyond the guaranteed ``δ`` prefix.
    Tracks the paper's definition: if the whole track is shorter than
    ``δ`` the robot reaches its destination.
    """

    def __init__(self, delta: float, rng: np.random.Generator) -> None:
        if delta <= 0:
            raise SimulationError("minimum moving distance must be > 0")
        self.delta = float(delta)
        self._rng = rng

    def execute(self, start: np.ndarray,
                destination: np.ndarray) -> np.ndarray:
        start = np.asarray(start, dtype=float)
        destination = np.asarray(destination, dtype=float)
        track = float(np.linalg.norm(destination - start))
        if track <= self.delta:
            return destination
        fraction = self._rng.uniform(self.delta / track, 1.0)
        return start + fraction * (destination - start)

    def execute_batch(self, starts: np.ndarray,
                      destinations: np.ndarray) -> np.ndarray:
        starts = np.asarray(starts, dtype=float)
        destinations = np.asarray(destinations, dtype=float)
        reached = destinations.copy()
        tracks = np.linalg.norm(destinations - starts, axis=1)
        # One rng draw per stopped robot, in index order — the exact
        # stream the per-robot execute loop consumes, so a run is
        # bit-reproducible across the two Move paths.
        for i in np.nonzero(tracks > self.delta)[0]:
            fraction = self._rng.uniform(self.delta / float(tracks[i]), 1.0)
            reached[i] = starts[i] + fraction * (destinations[i] - starts[i])
        return reached
