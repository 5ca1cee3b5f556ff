"""Tests for Algorithm 4.1 (go-to-center) and Lemma 7."""

import numpy as np
import pytest

from repro.core.configuration import Configuration
from repro.core.symmetricity import symmetricity
from repro.errors import GeometryError
from repro.geometry.transforms import Similarity
from repro.patterns.library import named_pattern
from repro.robots.adversary import random_frames
from repro.robots.algorithms.go_to_center import (
    EPSILON_FRACTION,
    go_to_center_algorithm,
    go_to_center_destination,
    recognize_goc_polyhedron,
)
from repro.robots.scheduler import FsyncScheduler

GOC = ["tetrahedron", "octahedron", "cube", "cuboctahedron",
       "icosahedron", "dodecahedron", "icosidodecahedron"]


class TestRecognition:
    @pytest.mark.parametrize("name", GOC)
    def test_recognizes_all_seven(self, name):
        assert recognize_goc_polyhedron(named_pattern(name)) == name

    @pytest.mark.parametrize("name", ["octagon", "square_antiprism",
                                      "pentagonal_prism", "square_pyramid"])
    def test_rejects_others(self, name):
        assert recognize_goc_polyhedron(named_pattern(name)) is None

    def test_recognizes_under_similarity(self, rng):
        sim = Similarity.random(rng)
        pts = sim.apply_all(named_pattern("dodecahedron"))
        assert recognize_goc_polyhedron(pts) == "dodecahedron"

    def test_distinguishes_icosahedron_from_cuboctahedron(self):
        # Both have 12 vertices; the rotation group separates them.
        assert recognize_goc_polyhedron(
            named_pattern("icosahedron")) == "icosahedron"
        assert recognize_goc_polyhedron(
            named_pattern("cuboctahedron")) == "cuboctahedron"

    def test_rejects_near_miss(self, cube):
        squeezed = [p * np.array([1.0, 1.0, 0.8]) for p in cube]
        assert recognize_goc_polyhedron(squeezed) is None


class TestDestination:
    @pytest.mark.parametrize("name", GOC)
    def test_destination_near_a_face_center(self, name):
        from repro.geometry.convex import ConvexPolyhedron

        pts = named_pattern(name)
        hull = ConvexPolyhedron(pts)
        epsilon = hull.min_edge_length() * EPSILON_FRACTION
        dest = go_to_center_destination(pts, 0)
        distances = [float(np.linalg.norm(dest - f.center))
                     for f in hull.faces_of_vertex(0)]
        assert min(distances) == pytest.approx(epsilon, rel=1e-6)

    def test_cuboctahedron_targets_triangles_only(self):
        from repro.geometry.convex import ConvexPolyhedron

        pts = named_pattern("cuboctahedron")
        hull = ConvexPolyhedron(pts)
        for i in range(12):
            dest = go_to_center_destination(pts, i)
            face = min(hull.faces,
                       key=lambda f: float(np.linalg.norm(dest - f.center)))
            assert face.size == 3

    def test_icosidodecahedron_targets_pentagons_only(self):
        from repro.geometry.convex import ConvexPolyhedron

        pts = named_pattern("icosidodecahedron")
        hull = ConvexPolyhedron(pts)
        for i in range(30):
            dest = go_to_center_destination(pts, i)
            face = min(hull.faces,
                       key=lambda f: float(np.linalg.norm(dest - f.center)))
            assert face.size == 5

    def test_destination_strictly_inside(self, cube):
        dest = go_to_center_destination(cube, 0)
        assert float(np.linalg.norm(dest)) < 1.0

    def test_rejects_non_goc_shape(self):
        with pytest.raises(GeometryError):
            go_to_center_destination(named_pattern("octagon"), 0)

    def test_destinations_of_different_robots_disjoint(self, cube):
        dests = {tuple(np.round(go_to_center_destination(cube, i), 9))
                 for i in range(8)}
        assert len(dests) == 8


class TestLemma7:
    @pytest.mark.parametrize("name", GOC)
    def test_one_step_lands_in_rho(self, name):
        pts = named_pattern(name)
        rho = symmetricity(Configuration(pts))
        for seed in range(3):
            frames = random_frames(len(pts),
                                   np.random.default_rng(seed))
            after = FsyncScheduler(go_to_center_algorithm,
                                   frames).step(Configuration(pts))
            config = Configuration(after)
            report = config.symmetry
            assert report.kind == "finite"
            assert report.group.spec in rho.specs
            assert not config.has_multiplicity

    def test_noop_on_other_configurations(self):
        pts = named_pattern("pentagonal_prism")
        frames = random_frames(len(pts), np.random.default_rng(0))
        after = FsyncScheduler(go_to_center_algorithm,
                               frames).step(Configuration(pts))
        for a, b in zip(after, pts):
            assert np.allclose(a, b, atol=1e-9)
