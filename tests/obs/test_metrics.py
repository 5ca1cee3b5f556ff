"""Metrics registry: merge semantics, cache views, renders."""

from __future__ import annotations

from repro.obs import metrics as metrics_mod
from repro.obs.metrics import (
    METRICS_SCHEMA_VERSION,
    MetricsRegistry,
    metrics_artifact,
    render_cache_metrics,
    render_snapshot,
    snapshot_delta,
)


class TestRegistry:
    def test_counters_and_histograms(self):
        reg = MetricsRegistry()
        reg.inc("a", 2)
        reg.inc("a")
        reg.observe("h", 3.0)
        reg.observe("h", 1.0)
        snap = reg.snapshot()
        assert snap["counters"] == {"a": 3}
        assert snap["histograms"]["h"] == {
            "count": 2, "total": 4.0, "min": 1.0, "max": 3.0}

    def test_snapshot_keys_sorted(self):
        reg = MetricsRegistry()
        for name in ("z", "a", "m"):
            reg.inc(name)
        assert list(reg.snapshot()["counters"]) == ["a", "m", "z"]

    def test_merge_is_partition_independent(self):
        # Splitting the same event stream across any number of
        # "workers" and merging their deltas must equal running it
        # inline — the property behind jobs-invariant counters.
        events = [("inc", "c", 2), ("obs", "h", 5.0), ("inc", "c", 1),
                  ("obs", "h", 1.0), ("inc", "d", 7), ("obs", "h", 3.0)]

        def apply(reg, chunk):
            for kind, name, value in chunk:
                if kind == "inc":
                    reg.inc(name, value)
                else:
                    reg.observe(name, value)

        inline = MetricsRegistry()
        apply(inline, events)

        for split in range(1, len(events)):
            merged = MetricsRegistry()
            for chunk in (events[:split], events[split:]):
                worker = MetricsRegistry()
                apply(worker, chunk)
                merged.merge(worker.snapshot())
            assert merged.snapshot() == inline.snapshot(), split

    def test_reset(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.reset()
        assert reg.snapshot() == {"counters": {}, "histograms": {}}


class TestSnapshotDelta:
    def test_drops_zero_activity(self):
        reg = MetricsRegistry()
        reg.inc("before_only", 4)
        before = reg.snapshot()
        reg.inc("active", 2)
        delta = snapshot_delta(before, reg.snapshot())
        assert delta["counters"] == {"active": 2}

    def test_histogram_delta_counts(self):
        reg = MetricsRegistry()
        reg.observe("h", 1.0)
        before = reg.snapshot()
        reg.observe("h", 9.0)
        delta = snapshot_delta(before, reg.snapshot())
        assert delta["histograms"]["h"]["count"] == 1
        assert delta["histograms"]["h"]["total"] == 9.0


class TestCacheViews:
    def test_cache_metrics_flat_namespace(self, cube):
        from repro.core.configuration import Configuration

        Configuration(cube).symmetry
        flat = metrics_mod.cache_metrics()
        assert all(name.startswith("cache.l") for name in flat)
        assert flat["cache.l1.symmetry.misses"] >= 1
        assert any(name.startswith("cache.l2.") for name in flat)
        assert any(name.startswith("cache.l3.") for name in flat)
        assert list(flat) == sorted(flat)

    def test_l1_snapshot_is_nested_ints(self):
        snap = metrics_mod.l1_snapshot()
        assert set(snap) >= {"symmetry", "symmetricity", "subgroups",
                             "round"}
        for counters in snap.values():
            for value in counters.values():
                assert isinstance(value, int)
                assert not isinstance(value, bool)


class TestRenders:
    def test_render_snapshot_stable(self):
        reg = MetricsRegistry()
        reg.inc("b", 2)
        reg.inc("a", 1)
        text = render_snapshot(reg.snapshot())
        assert text.splitlines() == ["metrics:", "  a = 1", "  b = 2"]

    def test_render_cache_metrics_sorted_single_format(self):
        text = render_cache_metrics({"cache.l2.hits": 1,
                                     "cache.l1.hits": 2})
        assert text.splitlines() == [
            "cache hierarchy:",
            "  cache.l1.hits = 2",
            "  cache.l2.hits = 1",
        ]


class TestArtifact:
    def test_metrics_artifact_schema(self):
        reg = MetricsRegistry()
        reg.inc("scheduler.rounds", 3)
        payload = metrics_artifact(reg.snapshot())
        assert payload["schema"] == METRICS_SCHEMA_VERSION
        assert payload["kind"] == "metrics-snapshot"
        assert payload["counters"] == {"scheduler.rounds": 3}
        assert "cache" in payload

    def test_write_metrics_round_trips(self, tmp_path):
        import json

        reg = MetricsRegistry()
        reg.inc("x", 1)
        path = tmp_path / "metrics.json"
        written = metrics_mod.write_metrics(path, reg.snapshot(),
                                            extra={"experiment": "t"})
        assert json.loads(path.read_text()) == \
            json.loads(json.dumps(written))
        assert written["experiment"] == "t"
