"""The fully-synchronous (FSYNC) Look–Compute–Move scheduler.

All robots execute each cycle simultaneously: every robot observes the
same configuration ``P(t)``, computes its next position with the common
algorithm, and all movements are applied at once to produce
``P(t+1)``.  Movement is rigid (robots jump to their destinations).

Each round has one :class:`Configuration`.  :meth:`FsyncScheduler.run`
builds ``P(t)`` once, or takes ``P(0)`` as the caller built it; the
stop condition judges it and :meth:`FsyncScheduler.step` hands the
same object to Compute, so its enclosing ball and symmetry report are
computed once per round.  The trace keeps positions only, so whatever
Compute memoizes on ``P(t)`` (local views, the round cache's certified
view) dies with the round.

The scheduler is the tracing anchor of the pipeline: every ``run``
opens a ``run`` span, every cycle a ``round`` span, and the three
phases open ``look`` / ``compute`` / ``move`` spans inside it
(:mod:`repro.obs.trace`; all no-ops unless a tracer is active).
Logical counters (``scheduler.rounds``, ``scheduler.observations``,
...) go to the metrics registry (:mod:`repro.obs.metrics`) — wall
clock readings never do, and never reach rows (REP005).

Each phase has one path.  Look is one stacked transform over the
``(n, n, 3)`` local-view tensor.  Compute makes one
``compute_batch`` call per round when the algorithm implements
:class:`repro.robots.model.BatchedAlgorithm`; plain callables, and
every algorithm while ``set_batched_compute(False)`` is in force, run
the per-robot reference loop, and the ``scheduler.batched_fallbacks``
counter records it.  The local destinations are mapped to world
coordinates by one batched ``to_world`` einsum, and Move applies them
through ``movement.execute_batch``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.configuration import Configuration
from repro.errors import SimulationError
from repro.geometry.tolerance import DEFAULT_TOL
from repro.obs import metrics as _metrics
from repro.obs.trace import get_tracer
from repro.robots.model import BatchView, LocalFrame, Observation

__all__ = ["ExecutionResult", "FsyncScheduler", "batched_compute_enabled",
           "set_batched_compute"]


_BATCHED_COMPUTE = True


def set_batched_compute(enabled: bool) -> None:
    """Process-wide switch between the two Compute engines.

    The per-robot path is the reference implementation; forcing it
    with ``set_batched_compute(False)`` must not change any row — the
    equivalence suite runs both ways.  Schedulers read the switch at
    every step.
    """
    global _BATCHED_COMPUTE
    _BATCHED_COMPUTE = bool(enabled)


def batched_compute_enabled() -> bool:
    """Whether schedulers currently call ``compute_batch``."""
    return _BATCHED_COMPUTE


@dataclass
class ExecutionResult:
    """Trace of an FSYNC execution.

    Attributes
    ----------
    positions:
        ``P(0), P(1), ..., P(T)`` as ``(n, 3)`` arrays — every
        configuration reached.
    final:
        ``P(T)``: the :class:`Configuration` the run built for its
        last round, the one its stop condition judged.
    reached:
        True if the stop condition fired.
    fixpoint:
        True if the run ended because no robot moved for a round.
    """

    positions: list[np.ndarray]
    final: Configuration
    reached: bool
    fixpoint: bool

    @property
    def rounds(self) -> int:
        """Number of Look–Compute–Move cycles executed."""
        return len(self.positions) - 1

    @property
    def configurations(self) -> list[Configuration]:
        """``P(0), ..., P(T)`` as configurations, built on each access.

        The last entry is :attr:`final` itself.
        """
        return [Configuration(p) for p in self.positions[:-1]] \
            + [self.final]


class FsyncScheduler:
    """Runs a common oblivious algorithm under the FSYNC model.

    Parameters
    ----------
    algorithm:
        Callable ``Observation -> local destination`` shared by all
        robots (they are uniform and anonymous), optionally a
        :class:`repro.robots.model.BatchedAlgorithm`.
    frames:
        One :class:`LocalFrame` per robot; fixed for the whole run.
    target:
        Optional pattern ``F`` handed to every robot (see
        :class:`Observation`).
    movement:
        A :class:`repro.robots.movement.MovementModel`; rigid when
        omitted.
    """

    def __init__(self, algorithm: Callable[[Observation], np.ndarray],
                 frames: list[LocalFrame], target=None,
                 movement=None) -> None:
        from repro.robots.movement import RigidMovement

        self.algorithm = algorithm
        self.frames = list(frames)
        self.target = target
        self.movement = movement if movement is not None else RigidMovement()
        # The frames are fixed for the whole run, so their rotations
        # and unit distances are stacked once and the Look phase of
        # every round becomes a single batched transform.
        self._rotations = np.stack(
            [f.rotation for f in self.frames]) if self.frames \
            else np.zeros((0, 3, 3))
        self._scales = np.asarray([f.scale for f in self.frames],
                                  dtype=float)
        # Z_i as one matrix: local = rel @ (R_i / s_i) — the scale is
        # folded into the stacked rotations so the Look phase is a
        # single BLAS batched matmul with no separate division pass
        # over the (n, n, 3) tensor.
        self._view_mats = self._rotations / self._scales[:, None, None] \
            if self.frames else self._rotations
        # The target pattern is known a priori in an arbitrary global
        # frame; handing each robot the same array models that (robots
        # may not correlate it with their local axes, and the provided
        # algorithms never do — they only use F up to similarity).
        if target is None:
            self._target_rows = None
        else:
            rows = np.asarray([np.asarray(p, dtype=float) for p in target],
                              dtype=float)
            rows.setflags(write=False)
            self._target_rows = rows

    def step(self, config: Configuration) -> list[np.ndarray]:
        """One synchronized Look–Compute–Move cycle from ``P(t)``.

        ``config`` is the round's configuration; a batched Compute
        reads it (and memoizes on it) as ``batch.config``.  Returns
        the positions ``P(t+1)``.

        The Look phase is batched: all ``n`` local views come from one
        stacked transform ``local[i, k] = R_iᵀ (p_k - p_i) / s_i`` over
        the ``n×n`` observation tensor instead of ``n²`` per-pair
        ``frame.observe`` calls.
        """
        n = config.n
        if n != len(self.frames):
            raise SimulationError("one frame per robot is required")
        tracer = get_tracer()
        with tracer.span("round", n=n):
            with tracer.span("look", n=n):
                pts = config.as_array()
                pts.setflags(write=False)
                rel = pts[None, :, :] - pts[:, None, :]
                # local[i, k] = R_iᵀ (p_k - p_i) / s_i, via the folded
                # view matrices: rel[i] @ (R_i / s_i) for all i in one
                # BLAS batched matmul (see __init__).
                local = np.matmul(rel, self._view_mats)
                local.setflags(write=False)
            with tracer.span("compute", n=n):
                compute_batch = getattr(self.algorithm, "compute_batch",
                                        None)
                if compute_batch is not None and _BATCHED_COMPUTE:
                    local_dest = np.asarray(compute_batch(BatchView(
                        config, pts, local, self._rotations, self._scales,
                        target=self._target_rows)), dtype=float)
                    if local_dest.shape != (n, 3) \
                            or not np.all(np.isfinite(local_dest)):
                        raise SimulationError(
                            "batched algorithm must return one finite "
                            "3-vector per robot")
                else:
                    local_dest = self._compute_per_robot(local)
                # One batched to_world over the stacked frames:
                # w_i = p_i + s_i R_i d_i for all robots at once.
                world_targets = pts + self._scales[:, None] * np.einsum(
                    "nij,nj->ni", self._rotations, local_dest)
            with tracer.span("move", n=n):
                reached = np.asarray(
                    self.movement.execute_batch(pts, world_targets),
                    dtype=float)
                reached.setflags(write=False)
        _metrics.inc("scheduler.rounds")
        _metrics.inc("scheduler.observations", n)
        return list(reached)

    def _compute_per_robot(self, local: np.ndarray) -> np.ndarray:
        """The per-robot reference Compute loop (zero-copy views)."""
        n = len(local)
        _metrics.inc("scheduler.batched_fallbacks")
        local_dest = np.empty((n, 3), dtype=float)
        for i in range(n):
            observation = Observation.from_rows(
                local[i], i, target=self._target_rows)
            d = np.asarray(self.algorithm(observation), dtype=float)
            if d.shape != (3,) or not np.all(np.isfinite(d)):
                raise SimulationError(
                    "algorithm must return a finite 3-vector")
            local_dest[i] = d
        return local_dest

    def run(self, initial_points,
            stop_condition: Callable[[Configuration], bool] | None = None,
            max_rounds: int = 50) -> ExecutionResult:
        """Run until the stop condition, a fixpoint, or the round cap.

        ``initial_points`` is ``P(0)``: positions, or a
        :class:`Configuration` the caller already built, which is used
        as given.  Each later round's :class:`Configuration` is built
        once, judged by the stop condition and stepped; the trace
        keeps its positions.

        Raises
        ------
        SimulationError
            If ``max_rounds`` cycles pass without reaching the stop
            condition or a fixpoint — FSYNC algorithms in this paper
            terminate in a small constant number of rounds, so hitting
            the cap indicates a bug.
        """
        tracer = get_tracer()
        _metrics.inc("scheduler.runs")

        def finish(reached: bool, fixpoint: bool) -> ExecutionResult:
            result = ExecutionResult(positions, config, reached=reached,
                                     fixpoint=fixpoint)
            _metrics.registry().observe("scheduler.rounds_per_run",
                                        result.rounds)
            return result

        with tracer.span("run", n=len(initial_points)):
            config = initial_points \
                if isinstance(initial_points, Configuration) \
                else Configuration(initial_points)
            positions = [config.as_array()]
            if stop_condition is not None and stop_condition(config):
                return finish(reached=True, fixpoint=False)
            for _ in range(max_rounds):
                old = positions[-1]
                new = np.asarray(self.step(config), dtype=float)
                # Vectorized fixpoint check — motion_slack_batch is
                # elementwise identical to the historical per-robot
                # motion_slack comparison.
                moved = bool(np.any(
                    np.linalg.norm(new - old, axis=1)
                    > DEFAULT_TOL.motion_slack_batch(
                        np.linalg.norm(old, axis=1))))
                config = Configuration(new)
                positions.append(new)
                if stop_condition is not None and stop_condition(config):
                    return finish(reached=True, fixpoint=False)
                if not moved:
                    return finish(reached=False, fixpoint=True)
            if stop_condition is None:
                return finish(reached=False, fixpoint=False)
        raise SimulationError(
            f"execution did not terminate within {max_rounds} rounds")
