"""The campaign results store: canonical JSONL on disk."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign.store import (
    STORE_SCHEMA_VERSION,
    JsonlStore,
    build_cell_record,
    default_store_path,
    open_store,
)
from repro.errors import ReproError


def _record(digest: str, experiment: str = "lemma7",
            rows: list | None = None) -> dict:
    rows = [{"trial": 0, "value": 1.5}] if rows is None else rows
    return {"digest": digest, "experiment": experiment, "spec": {},
            "rows": rows, "rows_sha256": "r" * 64, "metrics": {},
            "manifest": {}}


class TestJsonlStore:
    def test_record_and_reopen(self, tmp_path):
        path = tmp_path / "r.jsonl"
        with open_store(path) as store:
            store.record_cell(_record("b" * 64))
            store.record_cell(_record("a" * 64, "baseline_2d"))
        with open_store(path) as store:
            assert store.completed_digests() == {"a" * 64, "b" * 64}
            cells = store.cells()
            # sorted by digest, not insertion order
            assert [c["digest"] for c in cells] == ["a" * 64, "b" * 64]
            assert [c["digest"] for c in store.cells("lemma7")] \
                == ["b" * 64]

    def test_file_is_canonical_export(self, tmp_path):
        path = tmp_path / "r.jsonl"
        with open_store(path) as store:
            store.record_cell(_record("b" * 64))
            store.record_cell(_record("a" * 64))
            export = store.export_canonical()
        assert path.read_text(encoding="utf-8") == export
        header = json.loads(export.splitlines()[0])
        assert header == {"kind": "campaign-store",
                          "schema": STORE_SCHEMA_VERSION}

    def test_rerecord_same_digest_overwrites(self, tmp_path):
        with open_store(tmp_path / "r.jsonl") as store:
            store.record_cell(_record("a" * 64))
            store.record_cell(_record("a" * 64,
                                      rows=[{"trial": 0, "value": 2.0}]))
            cells = store.cells()
            assert len(cells) == 1
            assert cells[0]["rows"] == [{"trial": 0, "value": 2.0}]

    def test_journal_is_separate_from_canonical(self, tmp_path):
        path = tmp_path / "r.jsonl"
        with open_store(path) as store:
            store.record_cell(_record("a" * 64))
            store.journal_event({"kind": "cell-journal", "ms": 12.5})
            export = store.export_canonical()
        assert "cell-journal" not in export
        with open_store(path) as store:
            assert store.journal() == [{"kind": "cell-journal",
                                        "ms": 12.5}]

    def test_clear(self, tmp_path):
        path = tmp_path / "r.jsonl"
        with open_store(path) as store:
            store.record_cell(_record("a" * 64))
            store.journal_event({"kind": "x"})
            store.clear()
            assert store.completed_digests() == set()
        assert not path.exists()

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text(json.dumps({"kind": "campaign-store",
                                    "schema": 999}) + "\n",
                        encoding="utf-8")
        with pytest.raises(ReproError, match="schema"):
            JsonlStore(path)

    def test_version_1_store_refused(self, tmp_path):
        # Version-1 cell digests covered an array-backend name; resuming
        # such a store would run every cell a second time.
        path = tmp_path / "r.jsonl"
        path.write_text(json.dumps({"kind": "campaign-store",
                                    "schema": 1}) + "\n",
                        encoding="utf-8")
        with pytest.raises(ReproError, match="schema 1"):
            open_store(path)

    def test_default_path_is_jsonl(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CAMPAIGN_DIR", str(tmp_path))
        assert default_store_path() == tmp_path / "results.jsonl"


class TestBuildCellRecord:
    def test_from_run_result(self):
        from repro.api import ExperimentSpec, run_experiment

        result = run_experiment(
            "lemma7", ExperimentSpec(trials=1, seed=3))
        record = build_cell_record("d" * 64, "lemma7", result)
        assert record["digest"] == "d" * 64
        assert record["experiment"] == "lemma7"
        assert len(record["rows"]) == len(result.rows)
        assert record["rows_sha256"] == \
            result.manifest["rows"]["sha256"]
        # deterministic view only: no wall-clock, no artifacts, and of
        # the cache configuration only the switch a spec sets
        assert "timing" not in record["manifest"]
        assert "artifacts" not in record["manifest"]
        assert record["manifest"]["cache"] == {
            "enabled": result.manifest["cache"]["enabled"]}
        assert "l3" in result.manifest["cache"]
        # metrics are the logical counters (jobs-invariant)
        assert all(not key.startswith("backend.")
                   for key in record["metrics"])
        json.dumps(record)  # jsonable as-is


class TestRecordsIgnoreCacheConfiguration:
    def test_smoke_export_same_with_and_without_l3(self, tmp_path):
        """``campaign run examples/campaign-smoke.toml --jobs 1``
        stores the same bytes with the L3 disk store on and off."""
        root = Path(__file__).resolve().parents[2]

        def export(name: str, **env: str) -> bytes:
            store = tmp_path / name / "results.jsonl"
            proc = subprocess.run(
                [sys.executable, "-m", "repro.cli", "campaign", "run",
                 "examples/campaign-smoke.toml", "--jobs", "1",
                 "--store", str(store)],
                cwd=root, capture_output=True, text=True,
                env={"PYTHONPATH": str(root / "src"), "PATH": "",
                     "REPRO_CACHE_DIR": str(tmp_path / name / "l3"),
                     **env})
            assert proc.returncode == 0, proc.stdout + proc.stderr
            return store.read_bytes()

        with_l3 = export("on")
        without_l3 = export("off", REPRO_DISK_CACHE="0")
        assert len(with_l3.splitlines()) == 5  # header + 4 cells
        assert with_l3 == without_l3
