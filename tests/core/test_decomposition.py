"""Tests for orbit decompositions, foldings, and axis orientation."""

import numpy as np
import pytest

from repro.core.configuration import Configuration
from repro.core.decomposition import (
    is_transitive,
    orbit_decomposition,
    orbit_folding,
    oriented_axis_direction,
    principal_axis_of_d2,
)
from repro.errors import GroupError
from repro.groups.catalog import cyclic_group, tetrahedral_group
from repro.patterns import polyhedra
from repro.patterns.library import compose_shells, named_pattern


class TestOrbitDecomposition:
    def test_cube_is_one_orbit_under_o(self, cube):
        config = Configuration(cube)
        orbits = orbit_decomposition(config, config.rotation_group)
        assert len(orbits) == 1
        assert sorted(orbits[0]) == list(range(8))

    def test_composite_two_orbits(self):
        pts = compose_shells(named_pattern("octahedron"),
                             named_pattern("cube"))
        config = Configuration(pts)
        orbits = orbit_decomposition(config, config.rotation_group)
        assert sorted(len(o) for o in orbits) == [6, 8]

    def test_partition_property(self):
        pts = compose_shells(named_pattern("tetrahedron"),
                             named_pattern("cube"),
                             named_pattern("octahedron"))
        config = Configuration(pts)
        orbits = orbit_decomposition(config, config.rotation_group)
        flat = sorted(i for orbit in orbits for i in orbit)
        assert flat == list(range(config.n))

    def test_subgroup_decomposition_refines(self, cube):
        config = Configuration(cube)
        # Under a C4 subgroup the cube splits into two 4-orbits.
        sub = cyclic_group(4, axis=(0, 0, 1))
        orbits = orbit_decomposition(config, sub)
        assert sorted(len(o) for o in orbits) == [4, 4]

    def test_wrong_group_raises(self, cube):
        config = Configuration(cube)
        wrong = cyclic_group(5, axis=(0, 0, 1))
        with pytest.raises(GroupError):
            orbit_decomposition(config, wrong)

    def test_trivial_group_singletons(self, cube):
        config = Configuration(cube)
        orbits = orbit_decomposition(config, cyclic_group(1))
        assert all(len(o) == 1 for o in orbits)


class TestFolding:
    def test_free_orbit_folding_one(self, cube):
        config = Configuration(cube)
        # The cube is U_{O,3}: folding 3 under O.
        orbits = orbit_decomposition(config, config.rotation_group)
        assert orbit_folding(config, config.rotation_group,
                             orbits[0]) == 3

    def test_octahedron_folding_under_o(self):
        pts = named_pattern("octahedron")
        config = Configuration(pts)
        orbits = orbit_decomposition(config, config.rotation_group)
        assert orbit_folding(config, config.rotation_group,
                             orbits[0]) == 4

    def test_octahedron_folding_under_t(self):
        # The same point set is U_{T,2} under the tetrahedral subgroup.
        pts = named_pattern("octahedron")
        config = Configuration(pts)
        orbits = orbit_decomposition(config, tetrahedral_group())
        assert orbit_folding(config, tetrahedral_group(), orbits[0]) == 2


class TestTransitivity:
    @pytest.mark.parametrize("name", [
        "tetrahedron", "cube", "octahedron", "cuboctahedron",
        "icosahedron", "dodecahedron", "icosidodecahedron"])
    def test_goc_polyhedra_transitive(self, name):
        config = Configuration(named_pattern(name))
        assert is_transitive(config, config.rotation_group)

    def test_composite_not_transitive(self):
        pts = compose_shells(named_pattern("octahedron"),
                             named_pattern("cube"))
        config = Configuration(pts)
        assert not is_transitive(config, config.rotation_group)


class TestPrincipalAxisOfD2:
    def test_rectangle_principal(self):
        # A 2x1 rectangle in the xy-plane: gamma = D2; the recognizable
        # principal axis is perpendicular to the rectangle (z).
        pts = [np.array([x, y, 0.0]) for x in (-2, 2) for y in (-1, 1)]
        config = Configuration(pts)
        group = config.rotation_group
        assert str(group.spec) == "D2"
        principal = principal_axis_of_d2(config, group)
        assert principal is not None
        # All three axes are distinguishable; the function must return
        # deterministically the same line on repeated calls.
        again = principal_axis_of_d2(config, group)
        assert np.allclose(np.abs(principal), np.abs(again))

    def test_sphenoid_has_principal(self):
        # Sphenoid from Figure 5: 4 congruent triangles, group D2.
        pts = [np.array([1.0, 0.6, 0.3]), np.array([-1.0, -0.6, 0.3]),
               np.array([1.0, -0.6, -0.3]), np.array([-1.0, 0.6, -0.3])]
        config = Configuration(pts)
        group = config.rotation_group
        assert str(group.spec) == "D2"
        principal_axis_of_d2(config, group)

    def test_requires_d2(self, cube):
        config = Configuration(cube)
        with pytest.raises(GroupError):
            principal_axis_of_d2(config, config.rotation_group)


class TestOrientedAxisDirection:
    def test_pyramid_axis_is_oriented(self):
        pts = polyhedra.pyramid(4)
        config = Configuration(pts)
        group = config.rotation_group
        axis = group.axes[0].direction
        direction = oriented_axis_direction(config, axis, group)
        assert direction is not None
        # The orientation is a function of the geometry: recomputing
        # with the flipped input gives the same answer.
        again = oriented_axis_direction(config, -axis, group)
        assert np.allclose(direction, again)

    def test_prism_principal_unoriented(self):
        pts = polyhedra.prism(5)
        config = Configuration(pts)
        group = config.rotation_group
        principal = group.principal_axis.direction
        assert oriented_axis_direction(config, principal, group) is None

    def test_equivariance(self, rng):
        from repro.geometry.rotations import random_rotation

        pts = polyhedra.pyramid(5)
        config = Configuration(pts)
        axis = config.rotation_group.axes[0].direction
        direction = oriented_axis_direction(config, axis,
                                            config.rotation_group)
        rot = random_rotation(rng)
        moved = Configuration([rot @ p for p in pts])
        moved_axis = moved.rotation_group.axes[0].direction
        moved_dir = oriented_axis_direction(moved, moved_axis,
                                            moved.rotation_group)
        assert np.allclose(moved_dir, rot @ direction, atol=1e-6) or \
            np.allclose(moved_dir, rot @ direction, atol=1e-6)
