"""The L2 worker-store and L3 on-disk levels of the cache hierarchy.

The congruence (L1) caches have their own suite
(``test_congruence_cache.py`` / ``test_round_cache.py``); this one
covers the pool workers' store, the persistent store, the uniform
counter snapshot, and the CLI surface over them.
"""

import numpy as np
import pytest

from repro import cli, perf
from repro.core.configuration import Configuration
from repro.groups.catalog import icosahedral_group, octahedral_group
from repro.groups.subgroups import enumerate_concrete_subgroups
from repro.patterns.library import named_pattern
from repro.perf import disk, shared
from repro.perf.parallel import (parallel_map, process_pool, task_values,
                                 worker_task)
from repro.perf.shared import l2_stats
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


@pytest.fixture
def worker_store(monkeypatch):
    """This process as a pool worker: its own fresh L2 store."""
    monkeypatch.setattr(shared, "_store", None)
    shared.activate()
    return shared._store


def _detect_spec(points):
    config = Configuration([np.array(row) for row in points])
    return str(config.rotation_group.spec)


def _lookups(stats: dict) -> int:
    return stats["hits"] + stats["misses"]


class TestWorkerStore:
    def test_get_or_compute_hits_after_publish(self, worker_store):
        calls = []

        def compute():
            calls.append(1)
            return {"answer": 42}

        first = shared.shared_get_or_compute("unit", (b"key",), compute)
        second = shared.shared_get_or_compute("unit", (b"key",), compute)
        assert first == second == {"answer": 42}
        assert len(calls) == 1
        assert worker_store.counts["hits"] == 1
        assert worker_store.counts["misses"] == 1
        assert worker_store.counts["entries"] == 1

    def test_served_value_is_the_computed_object(self, worker_store):
        """No pickling: a hit hands back the very object stored, and
        ``bytes`` counts its arrays."""
        value = (np.random.default_rng(0).normal(size=(17, 3)),
                 "label", 3)
        stored = shared.shared_get_or_compute("unit", (b"v",),
                                              lambda: value)
        served = shared.shared_get_or_compute(
            "unit", (b"v",), lambda: pytest.fail("must be served"))
        assert stored is value and served is value
        assert worker_store.counts["bytes"] == value[0].nbytes

    def test_bounded_store_evicts_and_counts(self, worker_store,
                                             monkeypatch):
        monkeypatch.setattr(shared, "_MAX_ENTRIES", 2)
        for key in (b"a", b"b", b"c"):
            shared.shared_get_or_compute("unit", (key,),
                                         lambda: np.zeros(4))
        counts = worker_store.counts
        assert counts["evictions"] == 1
        assert counts["entries"] == 2
        assert counts["bytes"] == 2 * np.zeros(4).nbytes
        # The least recently used key went: it is computed again.
        calls = []
        shared.shared_get_or_compute(
            "unit", (b"a",), lambda: calls.append(1) or np.zeros(4))
        assert calls == [1]
        assert counts["misses"] == 4 and counts["evictions"] == 2

    def test_one_worker_serves_repeats_from_l2(self):
        """Four tasks with the same item, one at a time, on a one-worker
        pool, L1 cleared before each: the first computes, the other
        three are served by the worker's store, and the owner counts
        all four through the tasks' outcomes."""
        before = l2_stats()
        cube = np.asarray(named_pattern("cube"))
        with process_pool(1) as pool:
            specs = [task_values(pool.submit(
                worker_task, _detect_spec, [cube], fresh_l1=True,
                ship_delta=False).result(timeout=60), "probe")
                for _ in range(4)]
        assert specs == [["O"]] * 4
        after = l2_stats()
        assert after["hits"] - before["hits"] == 3
        assert after["misses"] - before["misses"] == 1
        assert after["bytes"] > before["bytes"]

    def test_inline_paths_make_no_l2_lookup(self):
        from repro.robots.adversary import random_frames
        from repro.robots.algorithms.sym import is_sym_terminal, psi_sym
        from repro.robots.scheduler import FsyncScheduler

        before = l2_stats()
        cube = np.asarray(named_pattern("cube"))
        assert parallel_map(_detect_spec, [cube, cube], jobs=1) \
            == ["O", "O"]
        points = named_pattern("icosahedron")
        FsyncScheduler(psi_sym, random_frames(
            len(points), np.random.default_rng(0))).run(
                points, stop_condition=is_sym_terminal)
        assert shared.counts() is None
        assert _lookups(l2_stats()) == _lookups(before)


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
        """A pooled run's workers report their L2 activity with each
        task, so `--cache-stats` still counts it after the pool is
        gone."""
        before = l2_stats()
        cube = np.asarray(named_pattern("cube"))
        parallel_map(_detect_spec, [cube] * 4, jobs=2)
        assert _lookups(l2_stats()) - _lookups(before) >= 4
