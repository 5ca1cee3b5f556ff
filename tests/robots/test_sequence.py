"""Tests for cyclic pattern-sequence formation (Das et al. analogue)."""

import numpy as np
import pytest

from repro.core.configuration import Configuration
from repro.errors import UnsolvableError
from repro.patterns import polyhedra
from repro.robots.adversary import random_frames
from repro.robots.algorithms import sequence
from repro.robots.algorithms.sequence import (
    make_sequence_formation_algorithm,
    validate_sequence,
)
from repro.robots.scheduler import FsyncScheduler


def d6_sequence():
    """Three pairwise non-similar patterns sharing symmetricity {D6}."""
    return [polyhedra.prism(6), polyhedra.antiprism(6),
            polyhedra.prism(6, height_ratio=0.3)]


class TestValidateSequence:
    def test_valid_sequence(self):
        configs = validate_sequence(d6_sequence())
        assert len(configs) == 3

    def test_too_short(self):
        with pytest.raises(UnsolvableError):
            validate_sequence([polyhedra.prism(6)])

    def test_size_mismatch(self):
        with pytest.raises(UnsolvableError):
            validate_sequence([polyhedra.prism(6), polyhedra.prism(5)])

    def test_mismatched_symmetricity(self):
        with pytest.raises(UnsolvableError):
            validate_sequence([polyhedra.prism(6),
                               polyhedra.regular_polygon_pattern(12)])

    def test_similar_patterns_rejected(self):
        with pytest.raises(UnsolvableError):
            validate_sequence([polyhedra.prism(6),
                               polyhedra.prism(6, radius=3.0)])


class TestSequenceExecution:
    def test_cycles_through_patterns(self):
        patterns = d6_sequence()
        algorithm = make_sequence_formation_algorithm(patterns)
        frames = random_frames(12, np.random.default_rng(0))
        scheduler = FsyncScheduler(algorithm, frames)

        config = Configuration(patterns[0])
        visits = []
        for _ in range(9):
            config = Configuration(scheduler.step(config))
            for i, pattern in enumerate(patterns):
                if config.is_similar_to(pattern):
                    visits.append(i)
                    break
        # Starting at F_0 the execution must visit 1, 2, 0, 1, ...
        assert len(visits) >= 6
        for a, b in zip(visits, visits[1:]):
            assert b == (a + 1) % 3

    def test_transient_start_joins_the_cycle(self):
        patterns = d6_sequence()
        algorithm = make_sequence_formation_algorithm(patterns)
        rng = np.random.default_rng(5)
        start = [rng.normal(size=3) for _ in range(12)]
        frames = random_frames(12, np.random.default_rng(1))
        scheduler = FsyncScheduler(algorithm, frames)
        config = Configuration(start)
        reached = False
        for _ in range(10):
            config = Configuration(scheduler.step(config))
            if any(config.is_similar_to(p) for p in patterns):
                reached = True
                break
        assert reached

    def test_a_fault_in_the_formability_check_propagates(self,
                                                          monkeypatch):
        # Only formability_report's documented ConfigurationError skips
        # a pattern; anything else is a fault, not "unformable".
        algorithm = make_sequence_formation_algorithm(d6_sequence())

        def crashing_report(initial, target):
            raise TypeError("report crashed")

        monkeypatch.setattr(sequence, "formability_report", crashing_report)
        rng = np.random.default_rng(5)
        start = [rng.normal(size=3) for _ in range(12)]
        scheduler = FsyncScheduler(algorithm,
                                   random_frames(12, np.random.default_rng(1)))
        with pytest.raises(TypeError, match="report crashed"):
            scheduler.step(Configuration(start))
