"""Tests for the Configuration type."""

import numpy as np
import pytest

from repro.core.configuration import MAX_CENTRED_NORM, Configuration
from repro.core.symmetricity import symmetricity
from repro.errors import ConfigurationError
from repro.geometry.transforms import Similarity
from tests.conftest import generic_cloud


class TestConstruction:
    def test_basic(self, cube):
        config = Configuration(cube)
        assert config.n == 8
        assert len(config) == 8

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            Configuration([])

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ConfigurationError):
            Configuration([[1.0, 2.0]])

    def test_nan_rejected(self):
        with pytest.raises(ConfigurationError):
            Configuration([[np.nan, 0, 0]])

    def test_points_are_read_only(self, cube):
        config = Configuration(cube)
        with pytest.raises(ValueError):
            config.points[0][0] = 99.0

    def test_source_mutation_does_not_leak(self):
        src = [np.zeros(3), np.ones(3), np.array([2.0, 0, 0])]
        config = Configuration(src)
        src[0][0] = 42.0
        assert config.points[0][0] == 0.0

    def test_points_cannot_be_made_writable(self, cube):
        point = Configuration(cube).points[0]
        with pytest.raises(ValueError):
            point.setflags(write=True)

    @pytest.mark.parametrize("scale", [1e308, 1e154, 1e100, 1e62])
    def test_overflowing_coordinates_rejected(self, cube, scale):
        """Beyond centred norms of about 1.9e61 the circumball kernel's
        products of five coordinate differences can overflow float64;
        such inputs are refused up front, not answered wrong or with a
        NumPy error."""
        with pytest.raises(ConfigurationError, match="too large"):
            Configuration([scale * p for p in cube])
        with pytest.raises(ConfigurationError, match="too large"):
            Configuration([scale * p for p in cube] + [np.zeros(3)])

    def test_bound_is_the_centred_norm(self):
        axes = np.vstack([np.eye(3), -np.eye(3)])
        assert Configuration(0.99 * MAX_CENTRED_NORM * axes).n == 6
        with pytest.raises(ConfigurationError, match="too large"):
            Configuration(1.01 * MAX_CENTRED_NORM * axes)

    def test_overflowing_centroid_rejected(self):
        with pytest.raises(ConfigurationError, match="too large"):
            Configuration([[1.7e308, 0, 0], [1.7e308, 1, 0],
                           [1.7e308, 0, 1]])

    def test_large_and_far_configurations_accepted(self, cube):
        assert Configuration([1e50 * p for p in cube]).n == 8
        # Far from the origin but compact: the centred norms are small.
        assert Configuration([p + 1e45 for p in cube]).n == 8

    def test_large_cube_keeps_its_symmetry(self, cube):
        """Centred norms of 1e55 are inside the bound: the answers are
        the unit cube's."""
        config = Configuration([1e55 * p for p in cube])
        assert str(config.symmetry.group.spec) == "O"
        assert symmetricity(config).specs == \
            symmetricity(Configuration(cube)).specs


class TestDerivedGeometry:
    def test_center_and_radius(self, cube):
        config = Configuration(cube)
        assert np.allclose(config.center, [0, 0, 0], atol=1e-9)
        assert config.radius == pytest.approx(1.0)

    def test_inner_ball(self):
        pts = [[1, 0, 0], [-1, 0, 0], [0, 2, 0], [0, -2, 0]]
        config = Configuration(pts)
        assert config.inner_ball.radius == pytest.approx(1.0)

    def test_symmetry_cached(self, cube):
        config = Configuration(cube)
        assert config.symmetry is config.symmetry

    def test_rotation_group(self, cube):
        assert str(Configuration(cube).rotation_group.spec) == "O"

    def test_relative_points(self, cube):
        config = Configuration([p + np.array([1.0, 2.0, 3.0])
                                for p in cube])
        rel = config.relative_points()
        assert np.allclose(np.mean(rel, axis=0), 0.0, atol=1e-9)


class TestValidation:
    def test_require_initial_accepts_valid(self, cube):
        Configuration(cube).require_initial()

    def test_require_initial_rejects_small(self):
        with pytest.raises(ConfigurationError):
            Configuration([[0, 0, 0], [1, 0, 0]]).require_initial()

    def test_require_initial_rejects_multiplicity(self, cube):
        with pytest.raises(ConfigurationError):
            Configuration(cube + [cube[0]]).require_initial()

    def test_has_multiplicity(self, cube):
        assert not Configuration(cube).has_multiplicity
        assert Configuration(cube + [cube[0]]).has_multiplicity


class TestRelations:
    def test_similarity(self, rng, cube):
        config = Configuration(cube)
        sim = Similarity.random(rng)
        assert config.is_similar_to(config.transformed(sim))

    def test_similarity_with_raw_points(self, cube):
        assert Configuration(cube).is_similar_to(cube)

    def test_not_similar(self, cube, octagon):
        assert not Configuration(cube).is_similar_to(octagon)

    def test_translated_to_origin(self):
        pts = generic_cloud(5, seed=2)
        moved = Configuration([p + 7.0 for p in pts]).translated_to_origin()
        assert np.allclose(moved.center, [0, 0, 0], atol=1e-8)
