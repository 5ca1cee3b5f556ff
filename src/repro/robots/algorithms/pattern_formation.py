"""Algorithm 6.1 — the pattern formation algorithm ``ψ_PF``.

The oblivious composition of the paper's two phases:

1. while the configuration is not ``ψ_SYM``-terminal, run ``ψ_SYM``
   (Algorithm 4.2) — this shows the symmetricity: ``γ(P') ∈ ϱ(P)``;
2. in a terminal configuration, fix the embedded target ``F̃``
   (Section 6.1) and move to the matched point of ``M(P, F̃)``
   (Section 6.2).

Obliviousness: every branch is decided from the current observation
alone.  A robot that already sees a configuration similar to ``F``
stays put, so the formed pattern is stable.  Non-oblivious robots run
the same code by ignoring their memory (Theorem 6.1).
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable

import numpy as np

from repro.core.configuration import Configuration
from repro.errors import SimulationError
from repro.robots.algorithms.matching import match_configuration_to_pattern
from repro.robots.algorithms.embedding import embed_target
from repro.robots.algorithms.sym import is_sym_terminal, psi_sym
from repro.robots.model import Observation

__all__ = ["make_pattern_formation_algorithm"]


class _PatternFormation:
    """``ψ_PF`` bound to a target pattern (or to the observation's).

    Within a round all robots observe similarity images of one world
    configuration (with identical robot indexing), so the
    frame-independent parts of Compute are served through the indexed
    round cache: the two phase predicates are similarity invariants,
    and the ψ_PF destination list is equivariant — computed once per
    congruence class in the first observer's frame, conjugated into
    each later observer's frame by its certified alignment.

    The batched strategy evaluates both predicates and the matching
    once against the world configuration, then maps the destination
    list into every robot's frame with one einsum; the ψ_SYM phase
    (frame-dependent symmetry breaking) forwards to ψ_SYM's own
    batched path.
    """

    def __init__(self, target_points=None) -> None:
        self._fixed_target = (None if target_points is None
                              else _Target(target_points))

    def _target(self, provided) -> "_Target":
        if self._fixed_target is not None:
            return self._fixed_target
        if provided is None:
            raise SimulationError("psi_pf needs the target pattern F")
        return _Target(provided)

    def __call__(self, observation: Observation) -> np.ndarray:
        target = self._target(observation.target)
        config = Configuration(observation.points)

        from repro.perf import (cached_equivariant_points, cached_invariant,
                                round_view)

        view = round_view(config)
        if cached_invariant(view, ("is_similar", target.key),
                            lambda: config.is_similar_to(target.config)):
            return observation.own_position()
        if not cached_invariant(view, ("sym_terminal",),
                                lambda: bool(is_sym_terminal(config))):
            return psi_sym(observation)
        destinations = cached_equivariant_points(
            view, ("psi_pf", target.key),
            lambda: match_configuration_to_pattern(
                config, embed_target(config, target.rows)))
        return destinations[observation.self_index]

    def compute_batch(self, batch) -> np.ndarray:
        target = self._target(batch.target)
        config = batch.config

        from repro.perf import (cached_equivariant_points, cached_invariant,
                                round_view)

        view = round_view(config)
        if cached_invariant(view, ("is_similar", target.key),
                            lambda: config.is_similar_to(target.config)):
            return batch.own_rows()
        if not cached_invariant(view, ("sym_terminal",),
                                lambda: bool(is_sym_terminal(config))):
            return psi_sym.compute_batch(batch)
        destinations = cached_equivariant_points(
            view, ("psi_pf", target.key),
            lambda: match_configuration_to_pattern(
                config, embed_target(config, target.rows)))
        return batch.to_local(destinations)


class _Target:
    """``F`` as ``ψ_PF`` reads it: the rows, their round-cache key, and
    the :class:`Configuration` the stop test compares against (built
    once, on first use)."""

    def __init__(self, points) -> None:
        rows = np.asarray([np.asarray(p, dtype=float) for p in points],
                          dtype=float)
        rows.setflags(write=False)
        self.rows = rows
        self.key = (rows.shape, rows.tobytes())

    @cached_property
    def config(self) -> Configuration:
        return Configuration(self.rows)


def make_pattern_formation_algorithm(
        target_points=None) -> Callable[[Observation], np.ndarray]:
    """Build ``ψ_PF`` for a target pattern.

    ``target_points`` may be omitted, in which case each robot reads
    the pattern from ``observation.target`` (the scheduler's way of
    handing every robot the common problem input).  The returned
    algorithm implements :class:`repro.robots.model.BatchedAlgorithm`,
    so the scheduler computes whole rounds in one call.
    """
    return _PatternFormation(target_points)
