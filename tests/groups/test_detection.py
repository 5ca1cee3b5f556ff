"""Tests for γ(P) detection on point (multi)sets."""

import numpy as np
import pytest

from repro.errors import DetectionError
from repro.geometry.rotations import random_rotation
from repro.geometry.transforms import Similarity
from repro.groups.detection import detect_rotation_group
from repro.groups.infinite import InfiniteGroupKind
from repro.patterns import polyhedra
from repro.patterns.library import compose_shells, named_pattern
from tests.conftest import generic_cloud


class TestPlatonicDetection:
    @pytest.mark.parametrize("name,expected", [
        ("tetrahedron", "T"),
        ("cube", "O"),
        ("octahedron", "O"),
        ("cuboctahedron", "O"),
        ("dodecahedron", "I"),
        ("icosahedron", "I"),
        ("icosidodecahedron", "I"),
    ])
    def test_catalog_shapes(self, name, expected):
        report = detect_rotation_group(named_pattern(name))
        assert report.kind == "finite"
        assert str(report.spec) == expected

    @pytest.mark.parametrize("name,expected", [
        ("cube", "O"), ("icosahedron", "I"), ("tetrahedron", "T"),
    ])
    def test_invariance_under_similarity(self, rng, name, expected):
        pts = named_pattern(name)
        sim = Similarity.random(rng)
        report = detect_rotation_group(sim.apply_all(pts))
        assert str(report.spec) == expected


class TestCyclicDihedralDetection:
    @pytest.mark.parametrize("k", [3, 4, 5, 7])
    def test_pyramid_is_cyclic(self, k):
        report = detect_rotation_group(polyhedra.pyramid(k))
        assert str(report.spec) == f"C{k}"

    @pytest.mark.parametrize("k", [3, 4, 6, 9])
    def test_polygon_is_dihedral(self, k):
        report = detect_rotation_group(
            polyhedra.regular_polygon_pattern(k))
        assert str(report.spec) == f"D{k}"

    @pytest.mark.parametrize("l", [3, 5, 6])
    def test_prism_is_dihedral(self, l):
        report = detect_rotation_group(polyhedra.prism(l))
        assert str(report.spec) == f"D{l}"

    @pytest.mark.parametrize("l", [3, 4, 5])
    def test_antiprism_is_dihedral(self, l):
        report = detect_rotation_group(polyhedra.antiprism(l))
        assert str(report.spec) == f"D{l}"

    def test_square_is_d4(self):
        report = detect_rotation_group(
            polyhedra.regular_polygon_pattern(4))
        assert str(report.spec) == "D4"

    def test_generic_cloud_is_c1(self):
        report = detect_rotation_group(generic_cloud(9, seed=11))
        assert str(report.spec) == "C1"

    def test_cube_with_one_vertex_slid_is_c1(self):
        # Every point keeps its radius (one shell, as in the cube), but
        # one vertex slides tangentially: no cube rotation survives.
        points = [np.asarray(p, dtype=float) for p in named_pattern("cube")]
        center = np.mean(points, axis=0)
        rel = points[0] - center
        moved = rel + 0.3 * np.cross(rel, [1.0, 0.3, 0.2])
        points[0] = center + np.linalg.norm(rel) * moved / np.linalg.norm(moved)
        report = detect_rotation_group(points)
        assert report.kind == "finite"
        assert report.group.order == 1

    def test_twisted_prism_pair_is_cyclic(self):
        # Two parallel squares with an irrational twist and different
        # radii: only C4 about the axis survives.
        from repro.geometry.polygons import regular_polygon

        pts = regular_polygon(4, radius=1.0, center=(0, 0, -1))
        pts += regular_polygon(4, radius=0.7, center=(0, 0, 1), phase=0.4)
        report = detect_rotation_group(pts)
        assert str(report.spec) == "C4"


class TestOccupiedAxes:
    def test_cube_occupies_threefold_axes(self, cube):
        report = detect_rotation_group(cube)
        occupied = sorted((a.fold, a.occupied) for a in report.group.axes)
        assert all(occ for fold, occ in occupied if fold == 3)
        assert not any(occ for fold, occ in occupied if fold in (2, 4))

    def test_octahedron_occupies_fourfold(self):
        report = detect_rotation_group(named_pattern("octahedron"))
        by_fold = {a.fold: a.occupied for a in report.group.axes}
        # All axes of one fold share occupancy for transitive sets.
        assert by_fold[4] is True

    def test_free_orbit_occupies_nothing(self):
        from repro.groups.catalog import octahedral_group
        from repro.patterns.orbits import transitive_set

        pts = transitive_set(octahedral_group(), mu=1)
        report = detect_rotation_group(pts)
        assert str(report.spec) == "O"
        assert not any(a.occupied for a in report.group.axes)

    def test_center_occupied_flag(self):
        pts = named_pattern("cube") + [np.zeros(3)]
        report = detect_rotation_group(pts)
        assert report.center_occupied
        assert all(a.occupied for a in report.group.axes)


class TestDegenerateAndCollinear:
    def test_all_same_point(self):
        report = detect_rotation_group([np.ones(3)] * 4)
        assert report.kind == "degenerate"

    def test_symmetric_line_is_d_inf(self):
        pts = [np.array([0, 0, z], dtype=float) for z in (-2, -1, 1, 2)]
        report = detect_rotation_group(pts)
        assert report.kind == "collinear"
        assert report.infinite_kind is InfiniteGroupKind.D_INF

    def test_asymmetric_line_is_c_inf(self):
        pts = [np.array([0, 0, z], dtype=float) for z in (-2, -1, 1, 4)]
        report = detect_rotation_group(pts)
        assert report.kind == "collinear"
        assert report.infinite_kind is InfiniteGroupKind.C_INF

    def test_line_direction_reported(self):
        pts = [np.array([z, z, 0], dtype=float) for z in (-1, 0.5, 2)]
        report = detect_rotation_group(pts)
        expected = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
        assert abs(abs(float(np.dot(report.line_direction, expected)))
                   - 1.0) < 1e-9

    def test_empty_raises(self):
        with pytest.raises(DetectionError):
            detect_rotation_group([])


class TestMultisets:
    def test_multiplicity_breaks_symmetry(self, cube):
        # Doubling one vertex kills every rotation that moves it.
        pts = cube + [cube[0]]
        report = detect_rotation_group(pts)
        assert str(report.spec) == "C3"  # rotations fixing that vertex

    def test_uniform_multiplicity_preserves_group(self, cube):
        report = detect_rotation_group(cube + cube)
        assert str(report.spec) == "O"
        assert report.has_multiplicity

    def test_distinct_points_listed(self, cube):
        report = detect_rotation_group(cube + cube[:2])
        assert len(report.distinct_points) == 8
        assert sorted(report.multiplicities) == [1] * 6 + [2] * 2


class TestCompositeConfigurations:
    def test_cube_plus_octahedron(self):
        pts = compose_shells(named_pattern("octahedron"),
                             named_pattern("cube"))
        report = detect_rotation_group(pts)
        assert str(report.spec) == "O"

    def test_shells_of_different_groups(self):
        # A tetrahedron shell inside a cube shell: common group is T.
        pts = compose_shells(named_pattern("tetrahedron"),
                             named_pattern("cube"))
        report = detect_rotation_group(pts)
        assert str(report.spec) == "T"

    def test_random_rotation_of_composite(self, rng):
        pts = compose_shells(named_pattern("octahedron"),
                             named_pattern("cube"))
        rot = random_rotation(rng)
        report = detect_rotation_group([rot @ p for p in pts])
        assert str(report.spec) == "O"
