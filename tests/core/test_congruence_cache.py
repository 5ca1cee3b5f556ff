"""Behavior of the congruence caches (:mod:`repro.perf`)."""

import pickle
import sys
import threading

import numpy as np
import pytest

from repro import perf
from repro.core.configuration import Configuration
from repro.core.symmetricity import symmetricity, symmetricity_of_multiset
from repro.geometry.rotations import rotation_about_axis
from repro.groups.group import GroupSpec, RotationGroup, element_key
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


class TestSiblingBound:
    """Entries under one congruence key stay in least-recently-used
    order, capped at ``_MAX_SIBLINGS``."""

    def test_perturbed_images_keep_at_most_the_cap(self):
        from repro.perf import cache as l1

        points = np.asarray(named_pattern("cube"), dtype=float)
        rng = np.random.default_rng(8)
        Configuration(points).symmetry
        sizes = []
        exact_hits = 0
        for i in range(1, 1001):
            noisy = points + rng.normal(0.0, 0.05, size=points.shape)
            Configuration(_congruent_copy(noisy, i)).symmetry
            if i % 10 == 0:
                # The pattern itself stays hot: each exact image hits.
                hits = perf.cache_stats()["symmetry"]["hits"]
                Configuration(_congruent_copy(points, i)).symmetry
                exact_hits += perf.cache_stats()["symmetry"]["hits"] - hits
            if i in (250, 500, 1000):
                sizes.append(perf.cache_bytes())
        assert exact_hits == 100
        stats = perf.cache_stats()["symmetry"]
        assert stats["classes"] == l1._MAX_SIBLINGS
        assert stats["misses"] == 1001
        assert stats["evictions"] == 1001 - l1._MAX_SIBLINGS
        assert len(sizes) == 3 and len(set(sizes)) == 1
        (bucket,) = l1._symmetry_cache.values()
        assert bucket[0].group.spec == GroupSpec.parse("O")
        hits = stats["hits"]
        Configuration(_congruent_copy(points, 0)).symmetry
        assert perf.cache_stats()["symmetry"]["hits"] == hits + 1

    def test_hit_moves_its_entry_to_the_front(self):
        from repro.perf import cache as l1

        shapes = [polyhedra.cube(), polyhedra.regular_polygon_pattern(8),
                  polyhedra.antiprism(4)]
        for shape in shapes:
            Configuration(shape).symmetry
        (bucket,) = l1._symmetry_cache.values()
        assert [e.group.spec for e in bucket] == \
            [GroupSpec.parse(t) for t in ("D4", "D8", "O")]
        Configuration(_congruent_copy(polyhedra.cube(), 2)).symmetry
        assert [e.group.spec for e in bucket] == \
            [GroupSpec.parse(t) for t in ("O", "D4", "D8")]


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

    def test_hit_shares_specs_and_defers_witnesses(self):
        points = named_pattern("cube")
        symmetricity(Configuration(points))
        rho = symmetricity(Configuration(_congruent_copy(points, 5)))
        assert perf.cache_stats()["symmetricity"]["hits"] == 1
        assert not isinstance(rho.witnesses, dict)
        assert rho.witnesses._read == {}
        spec = max(rho.specs)
        assert spec in rho.witnesses
        assert rho.witnesses._read == {}
        assert rho.witness(spec) is rho.witnesses[spec][0]
        assert list(rho.witnesses._read) == [spec]
        with pytest.raises(KeyError):
            rho.witnesses[GroupSpec.parse("C7")]
        assert rho.witnesses.get(GroupSpec.parse("C7")) is None

    def test_miss_stores_its_witnesses_unconjugated(self, monkeypatch):
        """A report that created its class entry is in the canonical
        frame: its ϱ is stored and served again without conjugation."""
        config = Configuration(named_pattern("cube"))
        report = config.symmetry
        conjugated = []
        original = RotationGroup.transformed

        def counting(self, rotation):
            conjugated.append(rotation)
            return original(self, rotation)

        monkeypatch.setattr(RotationGroup, "transformed", counting)
        rho = symmetricity(config)
        canonical = report._perf_entry.symmetricity[2]
        assert canonical is rho.witnesses and canonical
        again = symmetricity(config)
        assert perf.cache_stats()["symmetricity"] == {"hits": 1,
                                                      "misses": 1}
        assert again.witnesses is canonical
        assert again.witness(max(again.specs)) is \
            canonical[max(again.specs)][0]
        assert conjugated == []

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


def _bits(array) -> bytes:
    return np.ascontiguousarray(array, dtype=float).tobytes()


def _eager_conjugate(group, rotation):
    """The per-element conjugation every ϱ hit used to run for every
    witness: ``rot @ mat @ rot.T`` per element, ``rot @ d`` per axis."""
    return ([rotation @ mat @ rotation.T for mat in group.elements],
            [rotation @ axis.direction for axis in group.axes])


WITNESS_PATTERNS = ["cube", "octahedron", "icosahedron", "tetrahedron",
                    "square_antiprism", "octagon", "pentagonal_prism",
                    "dodecahedron"]


class TestWitnessesConjugatedOnRead:
    """An L1 ϱ hit hands out its witnesses as a mapping that conjugates
    a spec's canonical arrangements on first read."""

    @pytest.mark.parametrize("name", WITNESS_PATTERNS)
    def test_lazy_read_matches_eager_conjugation_bit_for_bit(self, name):
        points = named_pattern(name)
        rho_first = symmetricity(Configuration(points))
        for seed in range(4):
            config = Configuration(_congruent_copy(points, seed))
            rho = symmetricity(config)
            assert rho.specs == rho_first.specs
            assert rho.maximal == rho_first.maximal
            report = config.symmetry
            canonical = report._perf_entry.symmetricity[2]
            rotation = report._perf_rotation
            served = dict(rho.witnesses.items())
            assert set(served) == set(canonical) == set(rho_first.witnesses)
            for spec, arrangements in served.items():
                assert len(arrangements) == len(canonical[spec])
                for lazy, stored in zip(arrangements, canonical[spec]):
                    elements, directions = _eager_conjugate(stored,
                                                            rotation)
                    assert lazy.spec == stored.spec == spec
                    assert [_bits(m) for m in lazy.elements] == \
                        [_bits(m) for m in elements]
                    assert [_bits(a.direction) for a in lazy.axes] == \
                        [_bits(d) for d in directions]
                    assert [(a.fold, a.oriented, a.occupied)
                            for a in lazy.axes] == \
                        [(a.fold, a.oriented, a.occupied)
                         for a in stored.axes]
                    assert lazy._element_keys == {
                        element_key(m) for m in elements}
        assert perf.cache_stats()["symmetricity"] == {"hits": 4,
                                                      "misses": 1}

    def test_multiset_target_witnesses_match_on_read(self):
        points = named_pattern("cube") + [np.zeros(3)] * 8
        symmetricity_of_multiset(Configuration(points))
        config = Configuration(_congruent_copy(points, 9))
        rho = symmetricity_of_multiset(config)
        assert perf.cache_stats()["symmetricity"]["hits"] == 1
        canonical = config.symmetry._perf_entry.symmetricity[2]
        rotation = config.symmetry._perf_rotation
        assert set(rho.witnesses) == set(canonical) != set()
        for spec in rho.witnesses:
            elements, _ = _eager_conjugate(canonical[spec][0], rotation)
            assert [_bits(m) for m in rho.witness(spec).elements] == \
                [_bits(m) for m in elements]

    def test_unread_hit_builds_only_gamma(self, monkeypatch):
        points = named_pattern("icosahedron")
        symmetricity(Configuration(points))
        built = []
        original = RotationGroup.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(RotationGroup, "__init__", counting)
        config = Configuration(_congruent_copy(points, 3))
        rho = symmetricity(config)
        assert perf.cache_stats()["symmetricity"]["hits"] == 1
        assert built == [config.symmetry.group]
        assert rho.maximal and rho.specs
        spec = max(rho.specs)
        witness = rho.witness(spec)
        assert len(built) == 1 + len(rho.witnesses[spec])
        assert witness is built[1]

    def test_hit_survives_pickling(self):
        points = named_pattern("octahedron")
        symmetricity(Configuration(points))
        rho = symmetricity(Configuration(_congruent_copy(points, 4)))
        spec = max(rho.specs)
        rho.witness(spec)                  # one spec read, the rest not
        clone = pickle.loads(pickle.dumps(rho))
        assert clone.specs == rho.specs
        assert clone.maximal == rho.maximal
        assert set(clone.witnesses) == set(rho.witnesses)
        for read, copied in zip(rho.witnesses.items(),
                                clone.witnesses.items()):
            assert read[0] == copied[0]
            assert [_bits(g._stack) for g in read[1]] == \
                [_bits(g._stack) for g in copied[1]]

    def test_concurrent_first_reads_share_one_list(self):
        """``workers=0`` serves on threads: racing first reads of one
        spec may both conjugate, but every reader gets the one list
        the memo kept."""
        points = named_pattern("icosahedron")
        symmetricity(Configuration(points))
        rho = symmetricity(Configuration(_congruent_copy(points, 6)))
        specs = list(rho.witnesses)
        results = [None] * 8
        start = threading.Barrier(len(results))

        def read(slot):
            start.wait(timeout=30)
            results[slot] = [rho.witnesses[spec] for spec in specs]

        threads = [threading.Thread(target=read, args=(slot,))
                   for slot in range(len(results))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for result in results:
            assert all(mine is kept for mine, kept
                       in zip(result, results[0]))
        assert all(rho.witnesses._read[spec] is arrangements
                   for spec, arrangements in zip(specs, results[0]))
