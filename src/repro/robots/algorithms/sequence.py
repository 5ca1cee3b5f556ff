"""Forming a cyclic *sequence* of patterns (Das et al., related work).

The paper's related work cites the formation of a sequence of
geometric patterns by oblivious robots (Das, Flocchini, Santoro,
Yamashita; Distrib. Comput. 2015): oblivious robots can realize a
cyclic sequence ``F_1, F_2, ..., F_m, F_1, ...`` — a *geometric global
memory* — precisely when the patterns can encode which one comes next.

This module implements the natural 3D analogue on top of ``ψ_PF``:

* every pattern of the sequence must be formable from every other one
  (``ϱ(F_i) = ϱ(F_j)`` for all ``i, j`` — mirroring the 2D condition
  that all patterns share one symmetricity), and the patterns must be
  pairwise non-similar (otherwise the robots cannot tell where in the
  sequence they are);
* the oblivious algorithm looks at the current configuration: if it is
  similar to some ``F_i``, it heads for ``F_{i+1}``; otherwise it
  treats the configuration as transient and keeps driving toward the
  pattern it was already converging to (resolved deterministically as
  the first pattern formable from the current configuration).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.configuration import Configuration
from repro.core.formability import formability_report
from repro.core.symmetricity import symmetricity_of_multiset
from repro.errors import ConfigurationError, UnsolvableError
from repro.robots.algorithms.pattern_formation import (
    make_pattern_formation_algorithm,
)
from repro.robots.model import Observation

__all__ = ["validate_sequence", "make_sequence_formation_algorithm"]


def validate_sequence(patterns) -> list[Configuration]:
    """Check the solvability conditions for a cyclic pattern sequence.

    Raises
    ------
    UnsolvableError
        If the patterns do not share a symmetricity, are not pairwise
        distinguishable (non-similar), or have mismatched sizes.
    """
    configs = [Configuration(p) for p in patterns]
    if len(configs) < 2:
        raise UnsolvableError("a sequence needs at least two patterns")
    n = configs[0].n
    if any(c.n != n for c in configs):
        raise UnsolvableError("all patterns must have the same size")
    rhos = [symmetricity_of_multiset(c) for c in configs]
    for i in range(1, len(rhos)):
        if rhos[i].specs != rhos[0].specs:
            raise UnsolvableError(
                "sequence patterns must share one symmetricity "
                f"(pattern 0 has {sorted(map(str, rhos[0].maximal))}, "
                f"pattern {i} has {sorted(map(str, rhos[i].maximal))})")
    for i in range(len(configs)):
        for j in range(i + 1, len(configs)):
            if configs[i].is_similar_to(configs[j]):
                raise UnsolvableError(
                    f"patterns {i} and {j} are similar: the oblivious "
                    "robots could not tell them apart")
    return configs


def make_sequence_formation_algorithm(
        patterns) -> Callable[[Observation], np.ndarray]:
    """Oblivious algorithm cycling through ``patterns`` forever.

    The configuration itself encodes the phase: similarity to ``F_i``
    triggers a move toward ``F_{i+1 mod m}``.
    """
    configs = validate_sequence(patterns)
    formers = [make_pattern_formation_algorithm(c.points)
               for c in configs]

    def sequence_algorithm(observation: Observation) -> np.ndarray:
        current = Configuration(observation.points)
        for i, pattern in enumerate(configs):
            if current.is_similar_to(pattern):
                return formers[(i + 1) % len(configs)](observation)
        # Transient configuration: converge to the first pattern the
        # current configuration can still form (deterministic and
        # shared by all robots, since it only depends on the
        # observation up to similarity).
        for i, pattern in enumerate(configs):
            try:
                report = formability_report(current, pattern)
            except ConfigurationError:
                continue
            if report.formable:
                return formers[i](observation)
        raise UnsolvableError(
            "no pattern of the sequence is formable from the current "
            "configuration")

    return sequence_algorithm
