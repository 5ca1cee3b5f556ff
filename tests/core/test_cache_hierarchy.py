"""The L2 shared-memory and L3 on-disk levels of the cache hierarchy.

The congruence (L1) caches have their own suite
(``test_congruence_cache.py`` / ``test_round_cache.py``); this one
covers the cross-process store, the persistent store, the uniform
counter snapshot, and the CLI surface over them.
"""

import multiprocessing

import numpy as np
import pytest

from repro import cli, perf
from repro.core.configuration import Configuration
from repro.groups.catalog import icosahedral_group, octahedral_group
from repro.groups.subgroups import enumerate_concrete_subgroups
from repro.patterns.library import named_pattern
from repro.perf import disk
from repro.perf.parallel import parallel_map, process_pool, worker_task
from repro.perf.shared import SharedStore, l2_stats
from repro.perf.stats import exact_digest, group_digest, hierarchy_stats


@pytest.fixture(autouse=True)
def isolated_stores(tmp_path):
    perf.clear_caches()
    disk.configure(root=tmp_path / "l3")
    yield
    disk.configure()  # back to the environment-driven default
    perf.clear_caches()


class TestExactDigest:
    def test_equal_inputs_equal_digest(self):
        a = np.arange(12.0).reshape(4, 3)
        assert exact_digest(b"k", a, 0.5) == exact_digest(b"k", a.copy(), 0.5)

    def test_dtype_and_shape_are_part_of_the_key(self):
        a = np.arange(12.0)
        assert exact_digest(a) != exact_digest(a.astype(np.float32))
        assert exact_digest(a) != exact_digest(a.reshape(4, 3))

    def test_float_keys_are_bit_exact(self):
        assert exact_digest(0.1 + 0.2) != exact_digest(0.3)

    def test_group_digest_separates_conjugated_copies(self):
        group = octahedral_group()
        rot = Configuration(named_pattern("cube"))  # any rotation source
        tilted = group.transformed(
            np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
        assert group_digest(group) != group_digest(tilted)
        del rot


class TestSharedStore:
    def test_get_or_compute_hits_after_publish(self):
        store = SharedStore.create(multiprocessing.Lock())
        try:
            calls = []

            def compute():
                calls.append(1)
                return {"answer": 42}

            first = store.get_or_compute("unit", b"key", compute)
            second = store.get_or_compute("unit", b"key", compute)
            assert first == second == {"answer": 42}
            assert len(calls) == 1
            assert store.local["hits"] == 1
            assert store.local["misses"] == 1
            assert store.local["publishes"] == 1
        finally:
            store.close()
            store.unlink()

    def test_full_segment_rejects_but_still_computes(self):
        store = SharedStore.create(multiprocessing.Lock(), capacity=8192)
        try:
            big = np.zeros(10_000)  # pickles past the 8 KiB capacity
            value = store.get_or_compute("unit", b"big", lambda: big)
            assert np.array_equal(value, big)
            assert store.local["rejected"] == 1
            # And the key stays a miss — computed again, never corrupted.
            again = store.get_or_compute("unit", b"big", lambda: big + 0)
            assert np.array_equal(again, big)
        finally:
            store.close()
            store.unlink()

    def test_values_roundtrip_bit_exact(self):
        store = SharedStore.create(multiprocessing.Lock())
        try:
            value = (np.random.default_rng(0).normal(size=(17, 3)),
                     "label", 3)
            stored = store.get_or_compute("unit", b"v", lambda: value)
            served = store.get_or_compute(
                "unit", b"v", lambda: pytest.fail("must be served"))
            assert np.array_equal(served[0], value[0])
            assert served[1:] == value[1:]
            del stored
        finally:
            store.close()
            store.unlink()


def _detect_spec(points):
    config = Configuration([np.array(row) for row in points])
    return str(config.rotation_group.spec)


# A two-party barrier, set before the pool forks its workers.
_PAIRS = None


def _detect_spec_in_pairs(points):
    """:func:`_detect_spec`, then wait until another worker ends a task."""
    spec = _detect_spec(points)
    _PAIRS.wait(timeout=60)
    return spec


class TestL2AcrossWorkers:
    def test_cross_worker_hits_in_a_four_worker_run(self):
        """Identical world configurations in different workers must be
        served from the shared store — the counters prove the sharing
        actually happened (not just that results agree).

        Left alone, all four workers can miss the cube before any of
        them publishes it, and the publisher, now served by its own
        entry, can run the other eight tasks alone.  So every task
        ends at a two-party barrier: tasks finish in pairs of distinct
        workers, and the publisher runs at most six of the twelve.
        The others run at least six, at most three of them among the
        first four, which start before anything is published; each
        later one looks up the publisher's entry: a remote hit."""
        global _PAIRS
        before = l2_stats()
        cube = np.asarray(named_pattern("cube"))
        _PAIRS = multiprocessing.get_context().Barrier(2)
        try:
            specs = parallel_map(_detect_spec_in_pairs, [cube] * 12, jobs=4)
        finally:
            _PAIRS = None
        assert specs == ["O"] * 12
        after = l2_stats()
        assert after["remote_hits"] - before["remote_hits"] > 0
        assert after["publishes"] - before["publishes"] >= 1

    def test_one_pool_shares_its_store_across_submissions(self):
        """Tasks submitted one at a time to one long-lived pool (the
        campaign and serve pattern) share its store, and the store's
        counters fold into this process at teardown."""
        before = l2_stats()
        cube = np.asarray(named_pattern("cube"))
        with process_pool(2) as pool:
            outcomes = [pool.submit(worker_task, _detect_spec, [cube],
                                    fresh_l1=True, ship_delta=False,
                                    ).result(timeout=60)
                        for _ in range(4)]
        assert outcomes == [(True, ["O"], None)] * 4
        after = l2_stats()
        assert after["runs"] == before["runs"] + 1
        assert after["hits"] - before["hits"] >= 3


class TestDiskCache:
    def test_array_roundtrip_is_bit_exact(self):
        payload = np.random.default_rng(3).normal(size=(8, 3))
        disk.disk_put("unit", b"\x01" * 16, arrays={"data": payload})
        meta, arrays = disk.disk_get("unit", b"\x01" * 16)
        assert meta is None
        assert arrays["data"].tobytes() == payload.tobytes()

    def test_object_roundtrip(self):
        obj = {"specs": ["C2", "C3"], "points": np.eye(3)}
        disk.disk_put_object("unit", b"\x02" * 16, obj)
        back = disk.disk_get_object("unit", b"\x02" * 16)
        assert back["specs"] == obj["specs"]
        assert np.array_equal(back["points"], obj["points"])

    def test_info_and_clear(self):
        disk.disk_put("unit", b"\x03" * 16, arrays={"x": np.zeros(4)})
        store = disk.disk_cache()
        info = store.info()
        assert info["entries"] == 1
        assert info["kinds"]["unit"]["entries"] == 1
        assert store.clear() == 1
        assert store.info()["entries"] == 0

    def test_stale_version_invalidation(self, tmp_path):
        root = tmp_path / "versioned"
        disk.configure(root=root, version="1.0.0")
        disk.disk_put("unit", b"\x04" * 16, arrays={"x": np.ones(3)})
        assert disk.disk_get("unit", b"\x04" * 16) is not None

        invalidations_before = disk.l3_stats()["invalidations"]
        disk.configure(root=root, version="2.0.0")
        assert disk.disk_get("unit", b"\x04" * 16) is None
        assert disk.l3_stats()["invalidations"] == invalidations_before + 1
        # The stale payload file is gone, not just unindexed.
        assert not list(root.glob("unit-*.npz"))

    def test_disabled_level_is_a_no_op(self):
        disk.configure(enabled=False)
        assert disk.disk_cache() is None
        disk.disk_put("unit", b"\x05" * 16, arrays={"x": np.zeros(1)})
        assert disk.disk_get("unit", b"\x05" * 16) is None


class TestCatalogPersistence:
    def test_second_process_epoch_rebuilds_nothing(self):
        """Cold run persists the catalog stack and the subgroup
        lattice; a warm epoch (fresh L1, same L3 root) must serve both
        with zero catalog/lattice misses."""
        group = icosahedral_group()
        lattice = enumerate_concrete_subgroups(group)
        assert len(lattice) == 59

        perf.clear_caches()  # a "new process" as far as L1 knows
        kinds_before = {
            kind: dict(counters) for kind, counters
            in disk.l3_stats()["kinds"].items()
        }
        warm_group = icosahedral_group()
        warm_lattice = enumerate_concrete_subgroups(warm_group)
        kinds_after = disk.l3_stats()["kinds"]

        assert warm_group.order == 60
        assert len(warm_lattice) == 59
        for kind in ("catalog", "lattice"):
            assert (kinds_after[kind]["misses"]
                    == kinds_before[kind]["misses"]), kind
            assert (kinds_after[kind]["hits"]
                    > kinds_before[kind]["hits"]), kind

    def test_lattice_roundtrip_preserves_subgroup_order(self):
        group = icosahedral_group()
        first = [sub.spec for sub in enumerate_concrete_subgroups(group)]
        perf.clear_caches()
        second = [sub.spec for sub in enumerate_concrete_subgroups(
            icosahedral_group())]
        assert first == second


class TestCliSurface:
    def test_second_cli_invocation_recomputes_nothing(self, capsys):
        assert cli.main(["patterns"]) == 0
        first = capsys.readouterr().out
        misses_before = disk.l3_stats()["kinds"]["pattern"]["misses"]
        perf.clear_caches()
        assert cli.main(["patterns"]) == 0
        second = capsys.readouterr().out
        assert second == first
        kinds = disk.l3_stats()["kinds"]
        assert kinds["pattern"]["misses"] == misses_before

    def test_cache_info_and_clear(self, capsys):
        disk.disk_put("unit", b"\x06" * 16, arrays={"x": np.zeros(2)})
        assert cli.main(["cache", "info"]) == 0
        out = capsys.readouterr().out
        assert "entries: 1" in out
        assert cli.main(["cache", "clear"]) == 0
        out = capsys.readouterr().out
        assert "removed 1 entries" in out
        assert disk.disk_cache().info()["entries"] == 0

    def test_experiment_cache_stats_flag(self, capsys):
        assert cli.main(["experiment", "theorem11", "--jobs", "2",
                         "--cache-stats"]) == 0
        captured = capsys.readouterr()
        assert "cache hierarchy:" in captured.err
        assert "cache.l1." in captured.err
        assert "cache.l2." in captured.err
        assert "cache.l3." in captured.err


class TestHierarchySnapshot:
    def test_snapshot_has_uniform_counters(self):
        Configuration(named_pattern("cube")).symmetry
        stats = hierarchy_stats()
        for level in ("l1", "l2", "l3"):
            for field in ("hits", "misses", "bytes"):
                assert field in stats[level], (level, field)
        assert stats["l1"]["misses"] >= 1
        assert set(stats["l1"]["caches"]) == {
            "symmetry", "symmetricity", "subgroups", "round"}

    def test_eviction_counters_count(self, monkeypatch):
        from repro.perf import cache as cache_mod
        from repro.perf import round as round_mod

        monkeypatch.setattr(cache_mod, "_MAX_CLASSES", 2)
        monkeypatch.setattr(round_mod, "_MAX_ENTRIES", 2)
        for name in ("triangle", "square", "octagon", "cube"):
            Configuration(named_pattern(name)).symmetry
            from repro.perf.round import round_view

            round_view(Configuration(named_pattern(name)))
        stats = perf.cache_stats()
        assert stats["symmetry"]["evictions"] >= 1
        assert stats["round"]["evictions"] >= 1

    def test_l2_counters_survive_the_run(self):
        """`accumulate_run` folds a finished pool's counters into the
        cumulative snapshot, so `--cache-stats` sees closed stores."""
        before = l2_stats()["runs"]
        parallel_map(_detect_spec_noop, [1, 2, 3, 4], jobs=2)
        assert l2_stats()["runs"] == before + 1


def _detect_spec_noop(x):
    return x
