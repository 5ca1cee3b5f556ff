"""Tests for the rigid / non-rigid movement models."""

import numpy as np
import pytest

from repro.core.configuration import Configuration
from repro.errors import SimulationError
from repro.patterns.library import named_pattern
from repro.robots.adversary import identity_frames, random_frames
from repro.robots.algorithms.pattern_formation import (
    make_pattern_formation_algorithm,
)
from repro.robots.model import OBLIVIOUS_STAY
from repro.robots.movement import NonRigidMovement, RigidMovement
from repro.robots.scheduler import FsyncScheduler


class TestRigidMovement:
    def test_reaches_destination(self):
        model = RigidMovement()
        assert np.allclose(
            model.execute(np.zeros(3), np.array([1.0, 2.0, 3.0])),
            [1.0, 2.0, 3.0])

    def test_default_in_scheduler(self, cube):
        scheduler = FsyncScheduler(OBLIVIOUS_STAY, identity_frames(8))
        assert isinstance(scheduler.movement, RigidMovement)


class TestNonRigidMovement:
    def test_short_tracks_reach_destination(self, rng):
        model = NonRigidMovement(delta=1.0, rng=rng)
        dest = np.array([0.5, 0.0, 0.0])
        assert np.allclose(model.execute(np.zeros(3), dest), dest)

    def test_long_tracks_stop_on_segment(self, rng):
        model = NonRigidMovement(delta=0.5, rng=rng)
        start = np.zeros(3)
        dest = np.array([10.0, 0.0, 0.0])
        for _ in range(50):
            reached = model.execute(start, dest)
            travelled = float(np.linalg.norm(reached - start))
            assert travelled >= 0.5 - 1e-12
            assert travelled <= 10.0 + 1e-12
            # On the segment: y = z = 0.
            assert abs(reached[1]) < 1e-12 and abs(reached[2]) < 1e-12

    def test_invalid_delta(self, rng):
        with pytest.raises(SimulationError):
            NonRigidMovement(delta=0.0, rng=rng)

    def test_large_delta_equals_rigid(self, rng, cube):
        # With delta >= every track length, non-rigid == rigid.
        octagon = named_pattern("octagon")
        algorithm = make_pattern_formation_algorithm(octagon)
        frames = random_frames(8, np.random.default_rng(1))
        rigid = FsyncScheduler(algorithm, frames, target=octagon)
        nonrigid = FsyncScheduler(
            algorithm, frames, target=octagon,
            movement=NonRigidMovement(delta=100.0,
                                      rng=np.random.default_rng(2)))
        a = rigid.step(Configuration(cube))
        b = nonrigid.step(Configuration(cube))
        for x, y in zip(a, b):
            assert np.allclose(x, y)

    def test_formation_can_survive_nonrigid_interruptions(self):
        # Not guaranteed by the paper (rigid model), but oblivious
        # psi_PF recomputes each round; with a fair adversary the
        # gather target is still reached (every interrupted move makes
        # progress toward the unique gathering point).
        initial = [np.random.default_rng(3).normal(size=3)
                   for _ in range(6)]
        target = [np.zeros(3)] * 6
        frames = random_frames(6, np.random.default_rng(4))
        algorithm = make_pattern_formation_algorithm(target)
        scheduler = FsyncScheduler(
            algorithm, frames, target=target,
            movement=NonRigidMovement(delta=0.05,
                                      rng=np.random.default_rng(5)))
        result = scheduler.run(
            initial, stop_condition=lambda c: c.is_similar_to(target),
            max_rounds=200)
        assert result.reached
