"""The fully-synchronous (FSYNC) Look–Compute–Move scheduler.

All robots execute each cycle simultaneously: every robot observes the
same configuration ``P(t)``, computes its next position with the common
algorithm, and all movements are applied at once to produce
``P(t+1)``.  Movement is rigid (robots jump to their destinations).

The scheduler is the tracing anchor of the pipeline: every ``run``
opens a ``run`` span, every cycle a ``round`` span, and the three
phases open ``look`` / ``compute`` / ``move`` spans inside it
(:mod:`repro.obs.trace`; all no-ops unless a tracer is active).
Logical counters (``scheduler.rounds``, ``scheduler.observations``,
...) go to the metrics registry (:mod:`repro.obs.metrics`) — wall
clock readings never do, and never reach rows (REP005).

The Compute phase has two execution strategies.  When the algorithm
implements :class:`repro.robots.model.BatchedAlgorithm` (a
``compute_batch`` method) the whole round is computed in one call over
the ``(n, n, 3)`` local-view tensor.  Otherwise — or when the batched
method declines, or batching is disabled via ``batched=False`` or
``set_batched_compute(False)`` — the per-robot reference loop runs,
and the ``scheduler.batched_fallbacks`` counter records it.  Either way
the local destinations are mapped to world coordinates by a single
batched ``to_world`` einsum and the Move phase applies them through
``movement.execute_batch`` in one shot.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    """Process-wide default for the batched Compute strategy.

    The per-robot path is the reference implementation; forcing it
    with ``set_batched_compute(False)`` must not change any row — the
    equivalence suite runs both ways.
    """
    global _BATCHED_COMPUTE
    _BATCHED_COMPUTE = bool(enabled)


def batched_compute_enabled() -> bool:
    """Whether schedulers currently prefer ``compute_batch``."""
    return _BATCHED_COMPUTE


@dataclass
class ExecutionResult:
    """Trace of an FSYNC execution.

    Attributes
    ----------
    configurations:
        ``P(0), P(1), ..., P(T)`` — every configuration reached.
    reached:
        True if the stop condition fired.
    fixpoint:
        True if the run ended because no robot moved for a round.
    rounds:
        Number of Look–Compute–Move cycles executed.
    cache_stats:
        Congruence-cache activity attributable to this run: the
        difference of :func:`repro.obs.metrics.l1_snapshot` calls
        taken around the execution — the same source the CLI's
        ``--cache-stats`` render reads, so the two can never
        disagree.  A healthy run shows at most one symmetry-cache
        miss per congruence class per round; the robots' ``n`` local
        observations of each round are hits.
    """

    configurations: list[Configuration]
    reached: bool
    fixpoint: bool
    cache_stats: dict = field(default_factory=dict)

    @property
    def rounds(self) -> int:
        return len(self.configurations) - 1

    @property
    def final(self) -> Configuration:
        return self.configurations[-1]


class FsyncScheduler:
    """Runs a common oblivious algorithm under the FSYNC model.

    Parameters
    ----------
    algorithm:
        Callable ``Observation -> local destination`` shared by all
        robots (they are uniform and anonymous).
    frames:
        One :class:`LocalFrame` per robot; fixed for the whole run.
    target:
        Optional pattern ``F`` handed to every robot (see
        :class:`Observation`).
    """

    def __init__(self, algorithm: Callable[[Observation], np.ndarray],
                 frames: list[LocalFrame], target=None,
                 movement=None, batched: bool | None = None) -> None:
        from repro.robots.movement import RigidMovement

        self.algorithm = algorithm
        self.frames = list(frames)
        self.target = target
        self.movement = movement if movement is not None else RigidMovement()
        # None defers to the process-wide default at step time, so
        # set_batched_compute() also affects already-built schedulers.
        self.batched = batched
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

    def step(self, points: list[np.ndarray]) -> list[np.ndarray]:
        """One synchronized Look–Compute–Move cycle.

        The Look phase is batched: all ``n`` local views come from one
        stacked transform ``local[i, k] = R_iᵀ (p_k - p_i) / s_i`` over
        the ``n×n`` observation tensor instead of ``n²`` per-pair
        ``frame.observe`` calls.
        """
        if len(points) != len(self.frames):
            raise SimulationError("one frame per robot is required")
        n = len(points)
        tracer = get_tracer()
        with tracer.span("round", n=n):
            with tracer.span("look", n=n):
                pts = np.asarray(points, dtype=float)
                if pts.shape != (n, 3):
                    raise SimulationError("positions must be 3-vectors")
                rel = pts[None, :, :] - pts[:, None, :]
                # local[i, k] = R_iᵀ (p_k - p_i) / s_i, via the folded
                # view matrices: rel[i] @ (R_i / s_i) for all i in one
                # BLAS batched matmul (see __init__).
                local = np.matmul(rel, self._view_mats)
                local.setflags(write=False)
            with tracer.span("compute", n=n):
                local_dest = self._compute_batched(pts, local)
                if local_dest is None:
                    local_dest = self._compute_per_robot(local)
                # One batched to_world over the stacked frames:
                # w_i = p_i + s_i R_i d_i for all robots at once.
                world_targets = pts + self._scales[:, None] * np.einsum(
                    "nij,nj->ni", self._rotations, local_dest)
            with tracer.span("move", n=n):
                execute_batch = getattr(self.movement, "execute_batch",
                                        None)
                if execute_batch is not None:
                    reached = np.asarray(execute_batch(pts, world_targets),
                                         dtype=float)
                else:
                    reached = np.asarray(
                        [self.movement.execute(pos, world_target)
                         for pos, world_target
                         in zip(pts, world_targets)], dtype=float)
                reached.setflags(write=False)
        _metrics.inc("scheduler.rounds")
        _metrics.inc("scheduler.observations", n)
        return list(reached)

    def _compute_batched(self, pts: np.ndarray,
                         local: np.ndarray) -> np.ndarray | None:
        """The whole-round Compute, when the algorithm supports it."""
        compute_batch = getattr(self.algorithm, "compute_batch", None)
        if compute_batch is None:
            return None
        use_batched = self.batched if self.batched is not None \
            else _BATCHED_COMPUTE
        if not use_batched:
            return None
        batch = BatchView(pts, local, self._rotations, self._scales,
                          target=self._target_rows)
        result = compute_batch(batch)
        if result is None:
            return None
        local_dest = np.asarray(result, dtype=float)
        if local_dest.shape != local.shape[:1] + (3,) \
                or not np.all(np.isfinite(local_dest)):
            raise SimulationError(
                "batched algorithm must return one finite 3-vector "
                "per robot")
        return local_dest

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
        before = _metrics.l1_snapshot()

        def finish(trace, reached, fixpoint) -> ExecutionResult:
            result = ExecutionResult(
                trace, reached=reached, fixpoint=fixpoint,
                cache_stats=_metrics.l1_delta(
                    before, _metrics.l1_snapshot()))
            _metrics.registry().observe("scheduler.rounds_per_run",
                                        result.rounds)
            return result

        with tracer.span("run", n=len(initial_points)):
            points = [np.asarray(p, dtype=float) for p in initial_points]
            trace = [Configuration(points)]
            if stop_condition is not None and stop_condition(trace[-1]):
                return finish(trace, reached=True, fixpoint=False)
            for _ in range(max_rounds):
                new_points = self.step(points)
                # Vectorized fixpoint check — motion_slack_batch is
                # elementwise identical to the historical per-robot
                # motion_slack comparison.
                old = np.asarray(points, dtype=float)
                new = np.asarray(new_points, dtype=float)
                moved = bool(np.any(
                    np.linalg.norm(new - old, axis=1)
                    > DEFAULT_TOL.motion_slack_batch(
                        np.linalg.norm(old, axis=1))))
                points = new_points
                trace.append(Configuration(points))
                if stop_condition is not None and stop_condition(trace[-1]):
                    return finish(trace, reached=True, fixpoint=False)
                if not moved:
                    return finish(trace, reached=False, fixpoint=True)
            if stop_condition is None:
                return finish(trace, reached=False, fixpoint=False)
        raise SimulationError(
            f"execution did not terminate within {max_rounds} rounds")
