"""Manifest building blocks and the audited clock."""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.obs import clock as clock_mod
from repro.obs.manifest import (
    MANIFEST_SCHEMA_VERSION,
    build_manifest,
    cache_config,
    deterministic_view,
    package_info,
    rows_digest,
    write_manifest,
)


class TestClock:
    def test_injectable_and_restorable(self):
        clock_mod.set_clock(lambda: 42.0)
        assert clock_mod.monotonic() == 42.0
        clock_mod.reset_clock()
        assert clock_mod.monotonic() != 42.0

    def test_system_clock_is_monotonic(self):
        a = clock_mod.monotonic()
        b = clock_mod.monotonic()
        assert b >= a


class TestRowsDigest:
    def test_stable_under_key_order(self):
        assert rows_digest([{"a": 1, "b": 2}]) == \
            rows_digest([{"b": 2, "a": 1}])

    def test_sensitive_to_values(self):
        assert rows_digest([{"a": 1}]) != rows_digest([{"a": 2}])


class TestBuildManifest:
    def _manifest(self, **overrides):
        kwargs = dict(
            experiment="figure1",
            spec={"trials": 2, "seed": 1, "jobs": 1, "cache": None},
            rows=[{"target": "octagon", "formed": 2}],
            metrics={"counters": {"scheduler.rounds": 4},
                     "histograms": {}},
            phase_totals={"round": {"count": 4, "total_s": 0.01}},
            seed_streams=2,
        )
        kwargs.update(overrides)
        return build_manifest(**kwargs)

    def test_schema_and_sections(self):
        manifest = self._manifest()
        assert manifest["schema"] == MANIFEST_SCHEMA_VERSION
        assert manifest["kind"] == "run-manifest"
        assert manifest["package"] == package_info()
        assert manifest["seeds"] == {
            "root": 1,
            "strategy": "numpy.random.SeedSequence(root).spawn "
                        "per trial",
            "streams": 2}
        assert manifest["rows"]["count"] == 1
        assert manifest["cache"] == cache_config()

    def test_dataclass_rows_are_digestable(self):
        @dataclass
        class Row:
            name: str
            value: int

        manifest = self._manifest(rows=[Row("a", 1), Row("b", 2)])
        assert manifest["rows"]["count"] == 2
        assert manifest["rows"]["sha256"] == rows_digest(
            [{"name": "a", "value": 1}, {"name": "b", "value": 2}])

    def test_artifacts_stringified_and_none_dropped(self, tmp_path):
        manifest = self._manifest(
            artifacts={"trace": tmp_path / "t.jsonl", "metrics": None})
        assert manifest["artifacts"] == {
            "trace": str(tmp_path / "t.jsonl")}

    def test_deterministic_view_is_timing_free(self):
        view = deterministic_view(self._manifest(
            artifacts={"trace": "x"}))
        assert "timing" not in view
        assert "artifacts" not in view
        assert view["rows"]["count"] == 1

    def test_write_manifest_sorted_json(self, tmp_path):
        path = tmp_path / "manifest.json"
        manifest = self._manifest()
        write_manifest(path, manifest)
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(
            json.dumps(manifest, sort_keys=True, default=str))


class TestCacheConfig:
    def test_reports_hierarchy_configuration(self):
        config = cache_config()
        assert isinstance(config["enabled"], bool)
        assert config["l1_max_classes"] >= 1
        assert "enabled" in config["l3"]
