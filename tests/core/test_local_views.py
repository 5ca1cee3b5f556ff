"""Tests for local views and the agreed orbit ordering (Theorem 3.1)."""

import numpy as np
import pytest

from repro.core.configuration import Configuration
from repro.core.local_views import local_view, ordered_orbits
from repro.geometry.transforms import Similarity
from repro.patterns.library import compose_shells, named_pattern
from tests.conftest import generic_cloud


class TestLocalView:
    def test_same_orbit_same_view(self, cube):
        config = Configuration(cube)
        views = [local_view(config, i) for i in range(8)]
        assert len(set(views)) == 1  # the cube is transitive

    def test_different_orbits_different_views(self):
        pts = compose_shells(named_pattern("octahedron"),
                             named_pattern("cube"))
        config = Configuration(pts)
        views = [local_view(config, i) for i in range(len(pts))]
        assert len(set(views)) == 2

    def test_generic_cloud_all_views_distinct(self):
        pts = generic_cloud(8, seed=21)
        config = Configuration(pts)
        views = [local_view(config, i) for i in range(8)]
        assert len(set(views)) == 8

    def test_view_invariant_under_similarity(self, rng, cube):
        pts = compose_shells(named_pattern("octahedron"),
                             named_pattern("cube"))
        config = Configuration(pts)
        sim = Similarity.random(rng)
        moved = Configuration(sim.apply_all(pts))
        for i in range(len(pts)):
            assert local_view(config, i) == local_view(moved, i)

    def test_center_robot_sentinel(self):
        pts = named_pattern("cube") + [np.zeros(3)]
        config = Configuration(pts)
        center_view = local_view(config, 8)
        other_view = local_view(config, 0)
        assert center_view < other_view

    def test_views_are_comparable_tuples(self, cube):
        config = Configuration(cube)
        view = local_view(config, 0)
        assert isinstance(view, tuple)
        assert view <= view


class TestOrderedOrbits:
    def test_ordering_by_radius(self):
        pts = compose_shells(named_pattern("octahedron"),
                             named_pattern("cube"))
        config = Configuration(pts)
        orbits = ordered_orbits(config, config.rotation_group)
        radii = [float(np.linalg.norm(config.points[o[0]] - config.center))
                 for o in orbits]
        assert radii == sorted(radii)

    def test_property2_first_on_inner_last_on_outer(self):
        pts = compose_shells(named_pattern("tetrahedron"),
                             named_pattern("cube"),
                             named_pattern("octahedron"))
        config = Configuration(pts)
        orbits = ordered_orbits(config, config.rotation_group)
        inner_r = config.inner_ball.radius
        outer_r = config.radius
        first_r = float(np.linalg.norm(
            config.points[orbits[0][0]] - config.center))
        last_r = float(np.linalg.norm(
            config.points[orbits[-1][0]] - config.center))
        assert first_r == pytest.approx(inner_r, rel=1e-6)
        assert last_r == pytest.approx(outer_r, rel=1e-6)

    def test_ordering_invariant_under_similarity(self, rng):
        pts = generic_cloud(7, seed=8)
        config = Configuration(pts)
        orbits_a = ordered_orbits(config, config.rotation_group)
        sim = Similarity.random(rng)
        moved = Configuration(sim.apply_all(pts))
        orbits_b = ordered_orbits(moved, moved.rotation_group)
        assert orbits_a == orbits_b  # indices preserved by apply_all

    def test_same_radius_orbits_separated_by_views(self):
        # Two squares at the same distance from the center (heights
        # ±0.6) plus an unpaired third square that kills the dihedral
        # flip: two same-radius orbits of C4 that only local views can
        # separate.
        from repro.geometry.polygons import regular_polygon

        pts = regular_polygon(4, radius=0.8, center=(0, 0, 0.6))
        pts += regular_polygon(4, radius=0.8, center=(0, 0, -0.6),
                               phase=0.37)
        pts += regular_polygon(4, radius=0.5, center=(0, 0, 0.3),
                               phase=0.11)
        config = Configuration(pts)
        group = config.rotation_group
        assert str(group.spec) == "C4"
        orbits = ordered_orbits(config, group)
        assert len(orbits) == 3
        radii = [round(float(np.linalg.norm(
            config.points[o[0]] - config.center)), 6) for o in orbits]
        assert radii[-1] == radii[-2]  # the tied pair was separated
