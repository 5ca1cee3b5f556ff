"""The ``repro.api`` façade: dispatch, manifests, jobs-invariance."""

from __future__ import annotations

import json
from dataclasses import FrozenInstanceError

import pytest

from repro import perf
from repro.api import (
    ExperimentSpec,
    RunResult,
    experiment_names,
    run_experiment,
)
from repro.errors import ReproError
from repro.obs.manifest import MANIFEST_SCHEMA_VERSION, deterministic_view


@pytest.fixture(autouse=True)
def fresh_caches():
    perf.clear_caches()
    yield
    perf.set_enabled(True)
    perf.clear_caches()


class TestRegistry:
    def test_names_cover_every_driver(self):
        assert experiment_names() == [
            "baseline_2d", "figure1", "lemma7", "plane_formation",
            "theorem11", "theorem41"]

    def test_unknown_name_raises_repro_error(self):
        with pytest.raises(ReproError, match="unknown experiment"):
            run_experiment("nonesuch")

    def test_spec_is_frozen(self):
        spec = ExperimentSpec()
        with pytest.raises(FrozenInstanceError):
            spec.seed = 3


class TestRunResult:
    def test_rows_match_direct_driver(self):
        from repro.analysis.experiments import _figure1_rows

        result = run_experiment(
            "figure1", ExperimentSpec(trials=2, seed=1))
        assert isinstance(result, RunResult)
        assert result.name == "figure1"
        assert json.dumps(result.rows, default=str) == \
            json.dumps(_figure1_rows(trials=2, seed=1), default=str)

    def test_metrics_cover_the_run(self):
        result = run_experiment(
            "figure1", ExperimentSpec(trials=2, seed=1))
        counters = result.metrics["counters"]
        assert counters["experiment.runs"] == 1
        assert counters["scheduler.rounds"] >= 1
        assert counters["seeds.spawned"] >= 2

    def test_cache_override_restores_prior_setting(self):
        perf.set_enabled(True)
        run_experiment("figure1",
                       ExperimentSpec(trials=1, cache=False))
        assert perf.is_enabled() is True


class TestManifest:
    def test_manifest_sections(self):
        result = run_experiment(
            "figure1", ExperimentSpec(trials=2, seed=1))
        manifest = result.manifest
        assert manifest["schema"] == MANIFEST_SCHEMA_VERSION
        assert manifest["kind"] == "run-manifest"
        assert manifest["experiment"] == "figure1"
        assert manifest["package"]["name"] == "repro"
        assert manifest["seeds"]["root"] == 1
        assert manifest["seeds"]["streams"] == \
            result.metrics["counters"]["seeds.spawned"]
        assert manifest["rows"]["count"] == len(result.rows)
        assert "timing" in manifest
        assert manifest["spec"]["trials"] == 2

    def test_manifest_resolves_default_trials(self):
        result = run_experiment("figure1", ExperimentSpec(seed=1))
        # trials=None in the spec resolves to the driver's default so
        # the manifest states what actually ran.
        assert result.manifest["spec"]["trials"] == 5

    def test_deterministic_view_repeatable(self):
        spec = ExperimentSpec(trials=2, seed=1)
        first = run_experiment("figure1", spec)
        perf.clear_caches()
        second = run_experiment("figure1", spec)
        assert json.dumps(deterministic_view(first.manifest),
                          sort_keys=True, default=str) == \
            json.dumps(deterministic_view(second.manifest),
                       sort_keys=True, default=str)

    def test_deterministic_view_strips_timing_and_artifacts(self):
        result = run_experiment("figure1", ExperimentSpec(trials=1))
        view = deterministic_view(result.manifest)
        assert "timing" not in view
        assert "artifacts" not in view


class TestJobsInvariance:
    def test_rows_and_logical_counters_jobs_invariant(self):
        from repro.obs import metrics as metrics_mod

        metrics_mod.registry().reset()
        serial = run_experiment(
            "figure1", ExperimentSpec(trials=2, seed=1, jobs=1))
        perf.clear_caches()
        metrics_mod.registry().reset()
        fanned = run_experiment(
            "figure1", ExperimentSpec(trials=2, seed=1, jobs=4))
        assert json.dumps(serial.rows, default=str) == \
            json.dumps(fanned.rows, default=str)
        assert serial.manifest["rows"]["sha256"] == \
            fanned.manifest["rows"]["sha256"]
        # The logical counters (model events, not cache luck) must be
        # byte-identical: worker deltas merge to the inline totals.
        assert json.dumps(serial.metrics["counters"], sort_keys=True) \
            == json.dumps(fanned.metrics["counters"], sort_keys=True)


class TestArtifacts:
    def test_all_three_artifacts_written(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        metrics = tmp_path / "m.json"
        manifest = tmp_path / "mf.json"
        result = run_experiment("figure1", ExperimentSpec(
            trials=1, trace_path=trace, metrics_path=metrics,
            manifest_path=manifest))
        header = json.loads(trace.read_text().splitlines()[0])
        assert header["kind"] == "trace-header"
        metrics_payload = json.loads(metrics.read_text())
        assert metrics_payload["kind"] == "metrics-snapshot"
        assert metrics_payload["experiment"] == "figure1"
        manifest_payload = json.loads(manifest.read_text())
        assert manifest_payload == json.loads(
            json.dumps(result.manifest, sort_keys=True, default=str))
        assert set(manifest_payload["artifacts"]) == \
            {"trace", "metrics", "manifest"}

    def test_timing_phases_populated(self, tmp_path):
        result = run_experiment("figure1", ExperimentSpec(
            trials=1, trace_path=tmp_path / "t.jsonl"))
        phases = result.manifest["timing"]["phases"]
        assert "experiment" in phases
        for name in ("round", "look", "compute", "move"):
            assert phases[name]["count"] >= 1
