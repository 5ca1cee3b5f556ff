"""Tests for the 2D Suzuki–Yamashita baseline."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.twod import (
    Frame2D,
    FsyncScheduler2D,
    center_2d,
    is_formable_2d,
    make_formation_algorithm_2d,
    random_frames_2d,
    symmetricity_2d,
)
from repro.twod.formation import is_similar_2d
from repro.twod.symmetricity import rotation_group_order_2d


def polygon(k, r=1.0, phase=0.0, c=(0.0, 0.0)):
    return [np.array([c[0] + r * np.cos(phase + 2 * np.pi * i / k),
                      c[1] + r * np.sin(phase + 2 * np.pi * i / k)])
            for i in range(k)]


def generic(n, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=2) for _ in range(n)]


class TestSymmetricity2D:
    @pytest.mark.parametrize("k", [3, 4, 5, 8])
    def test_polygon(self, k):
        assert symmetricity_2d(polygon(k)) == k

    def test_two_concentric_polygons(self):
        assert symmetricity_2d(polygon(4) + polygon(4, 0.6, 0.3)) == 4

    def test_gcd_behaviour(self):
        assert symmetricity_2d(polygon(6) + polygon(3, 0.5, 0.2)) == 3

    def test_generic_is_one(self):
        assert symmetricity_2d(generic(7, seed=5)) == 1

    def test_center_exception(self):
        assert symmetricity_2d(polygon(4) + [np.zeros(2)]) == 1

    def test_point_multiset(self):
        assert symmetricity_2d([np.zeros(2)] * 6) == 6

    def test_rotation_group_order_ignores_exception(self):
        pts = polygon(4) + [np.zeros(2)]
        assert rotation_group_order_2d(pts) == 4

    def test_3d_points_accepted(self):
        pts3 = [np.array([p[0], p[1], 0.0]) for p in polygon(5)]
        assert symmetricity_2d(pts3) == 5

    def test_center(self):
        c = center_2d(polygon(4, c=(3.0, -2.0)))
        assert np.allclose(c, [3.0, -2.0], atol=1e-9)


class TestFormability2D:
    def test_divisibility(self):
        assert is_formable_2d(polygon(4) + polygon(4, 0.5, 0.2),
                              polygon(8))
        assert not is_formable_2d(polygon(8),
                                  polygon(4) + polygon(4, 0.5, 0.2))

    def test_generic_to_anything(self):
        assert is_formable_2d(generic(6), polygon(6))

    def test_size_mismatch(self):
        assert not is_formable_2d(polygon(4), polygon(5))

    def test_gather_always_formable(self):
        assert is_formable_2d(polygon(8), [np.zeros(2)] * 8)


class TestSimilarity2D:
    def test_rotation_scale_translation(self):
        pts = generic(6, seed=3)
        angle = 0.7
        rot = np.array([[np.cos(angle), -np.sin(angle)],
                        [np.sin(angle), np.cos(angle)]])
        moved = [3.0 * (rot @ p) + np.array([1.0, -2.0]) for p in pts]
        assert is_similar_2d(pts, moved)

    def test_mirror_not_similar(self):
        pts = generic(6, seed=3)
        mirrored = [np.array([p[0], -p[1]]) for p in pts]
        assert not is_similar_2d(pts, mirrored)

    def test_different_patterns(self):
        assert not is_similar_2d(polygon(6), generic(6, seed=1))


class TestFrames2D:
    def test_round_trip(self, rng):
        frame = Frame2D(angle=1.1, scale=2.5)
        p = rng.normal(size=2)
        pos = rng.normal(size=2)
        assert np.allclose(frame.to_world(frame.observe(p, pos), pos), p)

    def test_negative_scale_rejected(self):
        with pytest.raises(SimulationError):
            Frame2D(scale=-1.0)


class TestFormation2D:
    CASES = [
        ("two squares -> octagon",
         lambda: polygon(4) + polygon(4, 0.6, 0.3), lambda: polygon(8)),
        ("generic -> octagon", lambda: generic(8, 4), lambda: polygon(8)),
        ("generic -> generic", lambda: generic(6, 1),
         lambda: generic(6, 2)),
        ("two triangles -> hexagon",
         lambda: polygon(3) + polygon(3, 0.5, 0.2), lambda: polygon(6)),
        ("square+center -> pentagon",
         lambda: polygon(4) + [np.zeros(2)], lambda: polygon(5)),
        ("gather", lambda: generic(8, 4), lambda: [np.zeros(2)] * 8),
    ]

    @pytest.mark.parametrize("name,initial_factory,target_factory", CASES,
                             ids=[c[0] for c in CASES])
    def test_formation(self, name, initial_factory, target_factory):
        initial = initial_factory()
        target = target_factory()
        frames = random_frames_2d(len(initial), np.random.default_rng(3))
        algorithm = make_formation_algorithm_2d(target)
        scheduler = FsyncScheduler2D(algorithm, frames, target=target)
        result = scheduler.run(
            initial,
            stop_condition=lambda pts: is_similar_2d(pts, target),
            max_rounds=30)
        assert result.reached

    def test_multiple_seeds(self):
        initial = polygon(4) + polygon(4, 0.6, 0.3)
        target = polygon(8)
        for seed in range(4):
            frames = random_frames_2d(8, np.random.default_rng(seed))
            algorithm = make_formation_algorithm_2d(target)
            scheduler = FsyncScheduler2D(algorithm, frames, target=target)
            result = scheduler.run(
                initial,
                stop_condition=lambda pts: is_similar_2d(pts, target),
                max_rounds=30)
            assert result.reached

    def test_already_formed_stays(self):
        target = polygon(8)
        frames = random_frames_2d(8, np.random.default_rng(0))
        algorithm = make_formation_algorithm_2d(target)
        scheduler = FsyncScheduler2D(algorithm, frames, target=target)
        result = scheduler.run(
            polygon(8, r=2.0, phase=0.3),
            stop_condition=lambda pts: is_similar_2d(pts, target),
            max_rounds=5)
        assert result.reached
        assert result.rounds == 0
