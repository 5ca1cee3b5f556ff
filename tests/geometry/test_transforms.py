"""Tests for similarity transforms and pattern similarity ``P ≃ F``."""

import numpy as np
import pytest

from repro.core.configuration import Configuration
from repro.errors import GeometryError
from repro.geometry.rotations import rotation_about_axis
from repro.geometry.transforms import Similarity
from tests.conftest import generic_cloud


class TestSimilarity:
    def test_identity_default(self):
        sim = Similarity()
        assert np.allclose(sim.apply([1, 2, 3]), [1, 2, 3])

    def test_apply_composition_order(self):
        sim = Similarity(rotation=rotation_about_axis([0, 0, 1], np.pi / 2),
                         scale=2.0, translation=np.array([1.0, 0.0, 0.0]))
        # x -> 2 R x + t : (1,0,0) -> (0,2,0) + (1,0,0)
        assert np.allclose(sim.apply([1, 0, 0]), [1, 2, 0], atol=1e-12)

    def test_inverse_round_trip(self, rng):
        sim = Similarity.random(rng)
        inv = sim.inverse()
        for _ in range(5):
            p = rng.normal(size=3)
            assert np.allclose(inv.apply(sim.apply(p)), p, atol=1e-9)

    def test_compose(self, rng):
        a = Similarity.random(rng)
        b = Similarity.random(rng)
        p = rng.normal(size=3)
        assert np.allclose(a.compose(b).apply(p), a.apply(b.apply(p)),
                           atol=1e-9)

    def test_negative_scale_rejected(self):
        with pytest.raises(GeometryError):
            Similarity(scale=-1.0)

    def test_reflection_rejected(self):
        with pytest.raises(GeometryError):
            Similarity(rotation=np.diag([1.0, 1.0, -1.0]))


def similar(first, second) -> bool:
    return Configuration(first).is_similar_to(second)


class TestAreSimilar:
    """``P ≃ F`` as ``Configuration.is_similar_to`` decides it."""

    def test_identical(self, cube):
        assert similar(cube, cube)

    def test_under_random_similarity(self, rng, cube):
        sim = Similarity.random(rng)
        assert similar(cube, sim.apply_all(cube))

    def test_generic_cloud_under_similarity(self, rng):
        cloud = generic_cloud(9, seed=3)
        sim = Similarity.random(rng)
        assert similar(cloud, sim.apply_all(cloud))

    def test_different_patterns(self, cube, octagon):
        assert not similar(cube, octagon)

    def test_mirror_image_is_not_similar(self):
        # Orientation-preserving similarity only: a chiral set is not
        # similar to its mirror image.
        cloud = generic_cloud(7, seed=5)
        mirrored = [np.array([p[0], p[1], -p[2]]) for p in cloud]
        assert not similar(cloud, mirrored)

    def test_achiral_set_is_similar_to_its_mirror(self, cube):
        mirrored = [np.array([p[0], p[1], -p[2]]) for p in cube]
        assert similar(cube, mirrored)

    def test_different_sizes(self, cube):
        assert not similar(cube, cube[:-1])

    def test_multiset_multiplicities_matter(self):
        ex = np.array([1.0, 0, 0])
        a = [np.zeros(3), np.zeros(3), np.zeros(3), ex]
        b = [np.zeros(3), np.zeros(3), ex, ex]
        assert not similar(a, b)

    def test_degenerate_all_same_point(self):
        a = [np.array([1.0, 2.0, 3.0])] * 4
        b = [np.array([-5.0, 0.0, 0.0])] * 4
        assert similar(a, b)

    def test_degenerate_vs_nondegenerate(self):
        a = [np.zeros(3)] * 3
        b = [np.zeros(3), np.zeros(3), np.array([1.0, 0, 0])]
        assert not similar(a, b)

    def test_collinear_sets(self):
        a = [np.array([0, 0, z], dtype=float) for z in (0, 1, 3)]
        b = [np.array([z, z, 0], dtype=float) for z in (0, 2, 6)]
        assert similar(a, b)

    def test_collinear_mismatch(self):
        a = [np.array([0, 0, z], dtype=float) for z in (0, 1, 3)]
        b = [np.array([0, 0, z], dtype=float) for z in (0, 1, 4)]
        assert not similar(a, b)

    def test_near_miss_rejected(self, cube):
        perturbed = [p + np.array([0.01, 0, 0]) if i == 0 else p
                     for i, p in enumerate(cube)]
        assert not similar(cube, perturbed)
