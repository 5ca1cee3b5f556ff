"""Behavior of the congruence caches (:mod:`repro.perf`)."""

import numpy as np
import pytest

from repro import perf
from repro.core.configuration import Configuration
from repro.core.symmetricity import symmetricity
from repro.geometry.rotations import rotation_about_axis
from repro.patterns.library import named_pattern
from repro.patterns import polyhedra
from repro.robots.adversary import random_frames
from repro.robots.algorithms.pattern_formation import (
    make_pattern_formation_algorithm,
)
from repro.robots.scheduler import FsyncScheduler, set_batched_compute


@pytest.fixture(autouse=True)
def fresh_caches():
    perf.clear_caches()
    perf.set_enabled(True)
    yield
    perf.set_enabled(True)
    perf.clear_caches()


def _congruent_copy(points, seed: int):
    rng = np.random.default_rng(seed)
    rot = rotation_about_axis(rng.normal(size=3), float(rng.uniform(0, 3)))
    scale = float(rng.uniform(0.5, 4.0))
    shift = rng.normal(size=3)
    return [rot @ (scale * np.asarray(p)) + shift for p in points]


class TestSymmetryCache:
    def test_congruent_queries_share_one_detection(self):
        points = named_pattern("icosahedron")
        Configuration(points).symmetry
        for seed in range(5):
            Configuration(_congruent_copy(points, seed)).symmetry
        stats = perf.cache_stats()
        assert stats["symmetry"]["misses"] == 1
        assert stats["symmetry"]["hits"] == 5

    def test_hit_is_certified_on_query_points(self):
        points = named_pattern("cube")
        Configuration(points).symmetry
        twin_points = _congruent_copy(points, 7)
        twin = Configuration(twin_points)
        group = twin.symmetry.group
        assert group.spec == Configuration(points).symmetry.group.spec
        rel = np.asarray(twin_points) - twin.center
        for element in group.elements:
            images = rel @ np.asarray(element).T
            for image in images:
                assert np.linalg.norm(rel - image, axis=1).min() < 1e-5

    def test_distinct_classes_get_distinct_entries(self):
        Configuration(named_pattern("cube")).symmetry
        Configuration(named_pattern("square_antiprism")).symmetry
        stats = perf.cache_stats()
        assert stats["symmetry"]["misses"] == 2
        assert stats["symmetry"]["hits"] == 0

    def test_collinear_and_degenerate_bypass(self):
        line = [np.array([0.0, 0.0, float(h)]) for h in (-1, 0, 1)]
        stack = [np.ones(3)] * 4
        assert Configuration(line).symmetry.kind == "collinear"
        assert Configuration(stack).symmetry.kind == "degenerate"
        stats = perf.cache_stats()
        assert stats["symmetry"]["bypass"] == 2
        assert stats["symmetry"]["misses"] == 0

    def test_disable_turns_cache_off(self):
        perf.set_enabled(False)
        points = named_pattern("cube")
        Configuration(points).symmetry
        Configuration(points).symmetry
        stats = perf.cache_stats()
        assert not stats["enabled"]
        assert stats["symmetry"]["hits"] == 0
        assert stats["symmetry"]["misses"] == 0

    def test_clear_resets_entries_and_counters(self):
        Configuration(named_pattern("cube")).symmetry
        perf.clear_caches()
        stats = perf.cache_stats()
        assert stats["symmetry"] == {"hits": 0, "misses": 0, "bypass": 0,
                                     "evictions": 0, "classes": 0}


class TestSymmetricityCache:
    def test_witnesses_are_conjugated_per_query(self):
        points = named_pattern("icosahedron")
        rho = symmetricity(Configuration(points))
        twin_points = _congruent_copy(points, 3)
        twin = Configuration(twin_points)
        rho_twin = symmetricity(twin)
        assert rho_twin.specs == rho.specs
        assert rho_twin.maximal == rho.maximal
        assert perf.cache_stats()["symmetricity"]["hits"] == 1
        # A served witness must be made of symmetries of the twin.
        spec = max(rho_twin.specs)
        witness = rho_twin.witness(spec)
        gamma = twin.symmetry.group
        for element in witness.elements:
            assert gamma.contains_element(element)

    def test_subgroup_enumeration_memoized(self):
        from repro.groups.subgroups import enumerate_concrete_subgroups

        gamma = Configuration(named_pattern("cube")).symmetry.group
        first = enumerate_concrete_subgroups(gamma)
        second = enumerate_concrete_subgroups(gamma)
        assert len(first) == len(second)
        stats = perf.cache_stats()["subgroups"]
        assert stats["misses"] == 1
        assert stats["hits"] == 1


class TestSchedulerIntegration:
    @pytest.mark.parametrize("batched", [False, True])
    def test_full_run_detects_once_per_class_per_round(self, batched):
        """Acceptance check: a complete FSYNC formation run computes
        ``γ(P)`` at most once per congruence class per round, on either
        Compute engine.  The per-robot reference engine serves each
        robot's Compute through the *indexed round cache* — one miss
        plus ``n - 1`` certified hits per class — while the batched
        engine computes the round once in the world frame, so the
        round cache sees at most one query per class and no per-robot
        hits."""
        n = 8
        rng = np.random.default_rng(11)
        initial = [rng.normal(size=3) for _ in range(n)]
        target = polyhedra.regular_polygon_pattern(n)
        frames = random_frames(n, rng)
        scheduler = FsyncScheduler(
            make_pattern_formation_algorithm(target), frames, target=target)
        before = perf.cache_stats()
        set_batched_compute(batched)
        try:
            result = scheduler.run(
                initial, stop_condition=lambda c: c.is_similar_to(target),
                max_rounds=30)
        finally:
            set_batched_compute(True)
        after = perf.cache_stats()
        assert result.reached
        # Per round the run's configuration and the robots'
        # observations are all congruent; distinct classes only appear
        # when the swarm moves.
        classes_touched = result.rounds + 1

        def delta(cache, counter):
            return after[cache][counter] - before[cache][counter]

        assert delta("symmetry", "misses") <= classes_touched
        assert delta("round", "misses") <= classes_touched
        if batched:
            # One world-frame Compute per round: no per-robot traffic.
            assert delta("round", "hits") + delta("round", "misses") \
                <= classes_touched
        else:
            # Robots share the round's Compute.
            assert delta("round", "hits") >= n - 1
