"""Failure injection: invalid inputs and model violations must fail
loudly, never silently produce wrong formations."""

import numpy as np
import pytest

from repro import Configuration, UnsolvableError, form_pattern
from repro.errors import (
    ConfigurationError,
    EmbeddingError,
    GroupError,
    SimulationError,
)
from repro.robots.adversary import identity_frames
from repro.robots.model import LocalFrame, Observation
from repro.robots.scheduler import FsyncScheduler
from tests.conftest import generic_cloud


class TestModelViolations:
    def test_left_handed_frame_rejected(self):
        # The paper requires right-handed local coordinate systems.
        with pytest.raises(SimulationError):
            LocalFrame(rotation=np.diag([-1.0, 1.0, 1.0]))

    def test_zero_scale_frame_rejected(self):
        with pytest.raises(SimulationError):
            LocalFrame(scale=0.0)

    def test_observation_must_center_self(self):
        with pytest.raises(SimulationError):
            Observation([[0.1, 0, 0], [1, 0, 0]], self_index=0)

    def test_algorithm_returning_nan_rejected(self, cube):
        scheduler = FsyncScheduler(
            lambda obs: np.array([np.nan, 0.0, 0.0]), identity_frames(8))
        with pytest.raises(SimulationError):
            scheduler.step(Configuration(cube))

    def test_algorithm_returning_wrong_shape_rejected(self, cube):
        scheduler = FsyncScheduler(lambda obs: np.zeros(2),
                                   identity_frames(8))
        with pytest.raises(SimulationError):
            scheduler.step(Configuration(cube))


class TestProblemInstanceViolations:
    def test_unsolvable_instance_raises(self, cube, octagon):
        with pytest.raises(UnsolvableError):
            form_pattern(octagon, cube)

    def test_size_mismatch_raises(self, cube, octagon):
        with pytest.raises(ConfigurationError):
            form_pattern(cube, octagon[:-1])

    def test_two_robots_rejected(self):
        with pytest.raises(ConfigurationError):
            form_pattern([np.zeros(3), np.ones(3)],
                         [np.zeros(3), 2 * np.ones(3)])

    def test_initial_multiplicity_rejected(self, cube):
        with pytest.raises(ConfigurationError):
            form_pattern(cube + [cube[0]], cube + [cube[1]])

    def test_unsolvable_reaches_algorithm_error_without_check(
            self, cube, octagon):
        # Skipping the check does not silently succeed: the embedding
        # rejects the instance at run time instead.
        with pytest.raises((EmbeddingError, SimulationError)):
            form_pattern(octagon, cube, check=False, max_rounds=5)


class TestDegenerateGeometry:
    def test_degenerate_configuration_detected(self):
        config = Configuration([np.ones(3)] * 5)
        assert config.symmetry.kind == "degenerate"

    def test_group_construction_rejects_non_rotation(self):
        from repro.groups.group import RotationGroup

        with pytest.raises(GroupError):
            RotationGroup([np.diag([1.0, 1.0, -1.0])])

    def test_group_closure_validation(self):
        from repro.geometry.rotations import rotation_about_axis
        from repro.groups.group import RotationGroup

        broken = [np.eye(3), rotation_about_axis([0, 0, 1], 1.0)]
        with pytest.raises(GroupError):
            RotationGroup(broken, validate=True)

    def test_nonterminating_algorithm_detected(self):
        # An algorithm that keeps shrinking never satisfies the stop
        # condition: the scheduler reports instead of spinning.
        def shrink_forever(obs: Observation) -> np.ndarray:
            centroid = np.mean(obs.points, axis=0)
            return centroid * 0.5

        pts = generic_cloud(4, seed=3)
        scheduler = FsyncScheduler(shrink_forever, identity_frames(4))
        with pytest.raises(SimulationError):
            scheduler.run(pts, stop_condition=lambda c: False,
                          max_rounds=4)


class TestAdversaryMisuse:
    def test_symmetric_frames_reject_bad_witness(self, cube):
        from repro.groups.catalog import cyclic_group
        from repro.robots.adversary import symmetric_frames

        with pytest.raises(SimulationError):
            symmetric_frames(Configuration(cube),
                             cyclic_group(3, axis=(1, 1, 1)),
                             np.random.default_rng(0))

    def test_frames_count_mismatch(self, cube):
        from repro.robots.algorithms.pattern_formation import (
            make_pattern_formation_algorithm,
        )

        algorithm = make_pattern_formation_algorithm(cube)
        scheduler = FsyncScheduler(algorithm, identity_frames(5),
                                   target=cube)
        with pytest.raises(SimulationError):
            scheduler.step(Configuration(cube))
