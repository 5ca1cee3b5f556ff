"""Robot model: local coordinate systems and observations.

Each robot ``r_i`` has a local right-handed coordinate system ``Z_i``
whose origin is always its current position and whose axis directions
and unit distance are arbitrary but fixed (Section 2).  ``Z_i`` is a
rotation plus uniform scaling of the global system: a world point ``p``
is observed as ``Z_i(p) = (1/s) Rᵀ (p - pos_i)``, and an algorithm
output ``d`` in local coordinates is the world point
``pos_i + s R d``.

An oblivious algorithm is any callable taking an :class:`Observation`
and returning the robot's next position in local coordinates.  The
scheduler never passes global information: frame-invariance of an
algorithm is exactly the property that its world-level behaviour
commutes with similarity transforms of everything.

Algorithms may additionally implement the :class:`BatchedAlgorithm`
protocol — a ``compute_batch(batch)`` method over the whole round's
:class:`BatchView` — and the scheduler then calls it once per round.
Batching is a pure execution strategy: the batched method must land
every robot on the destination the per-robot callable would have
chosen.  The per-robot callable stays as the reference engine
(``repro.robots.scheduler.set_batched_compute(False)`` forces it), and
the equivalence suite in ``tests/properties`` holds the two together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from repro.errors import SimulationError
from repro.geometry.rotations import is_rotation_matrix, random_rotation
from repro.geometry.tolerance import DEFAULT_TOL

__all__ = ["BatchView", "BatchedAlgorithm", "LocalFrame", "Observation",
           "OBLIVIOUS_STAY"]


@dataclass(frozen=True)
class LocalFrame:
    """Orientation and unit distance of a robot's coordinate system.

    The frame's origin is implicit (the robot's current position), so
    the same :class:`LocalFrame` is valid for the robot's whole
    execution even though the robot moves.
    """

    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise SimulationError("local frame scale must be positive")
        if not is_rotation_matrix(self.rotation):
            raise SimulationError(
                "local frames must be right-handed (rotation in SO(3))")

    def observe(self, world_point, position) -> np.ndarray:
        """Coordinates of ``world_point`` in this robot's system."""
        rel = np.asarray(world_point, dtype=float) - np.asarray(
            position, dtype=float)
        return (self.rotation.T @ rel) / self.scale

    def to_world(self, local_point, position) -> np.ndarray:
        """World position of a point given in local coordinates."""
        return np.asarray(position, dtype=float) + self.scale * (
            self.rotation @ np.asarray(local_point, dtype=float))

    def composed_with(self, rotation) -> "LocalFrame":
        """The frame rotated by a global rotation (``g ∘ frame``)."""
        return LocalFrame(rotation=np.asarray(rotation) @ self.rotation,
                          scale=self.scale)

    @staticmethod
    def random(rng: np.random.Generator,
               scale_range: tuple[float, float] = (0.25, 4.0)) -> "LocalFrame":
        """Uniformly random orientation, log-uniform unit distance."""
        low, high = scale_range
        scale = float(np.exp(rng.uniform(np.log(low), np.log(high))))
        return LocalFrame(rotation=random_rotation(rng), scale=scale)


class Observation:
    """A robot's Look-phase snapshot, in its local coordinate system.

    ``points`` contains the positions of *all* robots (itself
    included, at the origin).  ``self_index`` identifies the robot's
    own entry.  Optionally carries the target pattern ``F`` — every
    robot knows ``F`` a priori (it is part of the problem input, not of
    the observation), expressed in an arbitrary coordinate system.

    ``points`` is a read-only ``(n, 3)`` float array.  Indexing,
    iteration and ``len`` behave as the historical list of 3-vectors
    did, and ``np.asarray(observation.points)`` is free.  The array is
    marked non-writable so an algorithm cannot stash state in its own
    observation (obliviousness, REP002).
    """

    __slots__ = ("points", "self_index", "target")

    def __init__(self, points, self_index: int, target=None) -> None:
        pts = np.asarray([np.asarray(p, dtype=float) for p in points],
                         dtype=float)
        self.self_index = int(self_index)
        if not np.allclose(pts[self.self_index], 0.0,
                           atol=DEFAULT_TOL.coincidence_slack(1.0)):
            raise SimulationError("own position must be the local origin")
        pts.setflags(write=False)
        self.points = pts
        if target is None:
            self.target = None
        else:
            tgt = np.asarray([np.asarray(p, dtype=float) for p in target],
                             dtype=float)
            tgt.setflags(write=False)
            self.target = tgt

    @classmethod
    def from_rows(cls, points: np.ndarray, self_index: int,
                  target=None) -> "Observation":
        """Zero-copy observation over one row of the Look tensor.

        ``points`` must be a read-only ``(n, 3)`` view whose
        ``self_index`` row is exactly the origin — the scheduler's
        batched Look guarantees both (``rel[i, i]`` is an exact zero
        before the frame transform), so the per-point conversion and
        the origin check of the public constructor are skipped.
        """
        observation = cls.__new__(cls)
        observation.points = points
        observation.self_index = self_index
        observation.target = target
        return observation

    @property
    def n(self) -> int:
        """Number of robots observed."""
        return len(self.points)

    def own_position(self) -> np.ndarray:
        """The robot's own position (the local origin)."""
        return self.points[self.self_index]


class BatchView:
    """Whole-round Compute input for a :class:`BatchedAlgorithm`.

    Bundles what the scheduler already has for the round: ``config``,
    the round's world-frame
    :class:`~repro.core.configuration.Configuration` (the one object
    the scheduler built for ``P(t)``, so its ball, symmetry report and
    memos are shared with the stop condition), its positions as an
    ``(n, 3)`` array, the full ``(n, n, 3)`` local-view tensor (row
    ``i`` is exactly robot ``i``'s :class:`Observation` points), and
    the stacked frames.  All arrays are read-only.

    A batched algorithm sees *more* than one robot does (the world
    frame), so obliviousness is a proof obligation on the
    implementation rather than on the interface: each returned row
    must equal what the per-robot callable computes from row ``i``
    alone.  The provided algorithms discharge it in two ways.
    ``ψ_SYM``'s symmetry-breaking moves and plane formation derive
    their class-level decisions once from the world configuration:
    the predicates are similarity-invariant and the landing points
    equivariant, so each robot gets what its own view yields, and a
    ``ψ_SYM`` mover makes its local choice with the function the
    per-robot path calls.
    ``ordered_orbits``, the standalone go-to-center algorithm's face
    combinatorics and ``ψ_PF``'s predicates and destinations still go
    through the congruence-keyed round cache, reading the payloads
    the per-robot path reads.  The equivalence suite enforces both.
    """

    __slots__ = ("config", "points", "local", "rotations", "scales",
                 "target")

    def __init__(self, config, points: np.ndarray, local: np.ndarray,
                 rotations: np.ndarray, scales: np.ndarray,
                 target=None) -> None:
        self.config = config
        self.points = points
        self.local = local
        self.rotations = rotations
        self.scales = scales
        self.target = target

    @property
    def n(self) -> int:
        """Number of robots in the round."""
        return len(self.points)

    def own_rows(self) -> np.ndarray:
        """Each robot's own local position — the ``(n, 3)`` stay move.

        The diagonal of the local tensor; exact zeros by construction
        of the Look phase.
        """
        idx = np.arange(len(self.points))
        return self.local[idx, idx]

    def to_local(self, world_points: np.ndarray) -> np.ndarray:
        """Batched ``Z_i``: world destinations → per-robot local ones.

        One einsum over the stacked frames —
        ``d_i = R_iᵀ (w_i - p_i) / s_i`` for every robot at once.
        """
        rel = np.asarray(world_points, dtype=float) - self.points
        d = np.einsum("nji,nj->ni", self.rotations, rel)
        return d / self.scales[:, None]

    def to_local_rows(self, indices, world_points: np.ndarray) -> np.ndarray:
        """:meth:`to_local` for a subset of robots.

        ``world_points[j]`` is the world destination of robot
        ``indices[j]``; the result row ``j`` is that destination in
        robot ``indices[j]``'s frame.
        """
        idx = np.asarray(indices, dtype=int)
        rel = np.asarray(world_points, dtype=float) - self.points[idx]
        d = np.einsum("nji,nj->ni", self.rotations[idx], rel)
        return d / self.scales[idx, None]


@runtime_checkable
class BatchedAlgorithm(Protocol):
    """An algorithm that can compute a whole round in one shot.

    ``compute_batch`` receives the round's :class:`BatchView` and
    returns the ``(n, 3)`` *local* destinations: one row per robot, in
    that robot's own frame — the same contract as the per-robot
    callable, stacked.  It always answers; the per-robot ``__call__``
    runs only when the reference engine is forced.
    """

    def __call__(self, observation: Observation) -> np.ndarray: ...

    def compute_batch(self, batch: BatchView) -> np.ndarray: ...


def OBLIVIOUS_STAY(observation: Observation) -> np.ndarray:
    """The do-nothing algorithm (robot stays put)."""
    return np.zeros(3)
