"""The CLI's observability flags produce schema-versioned artifacts."""

from __future__ import annotations

import json

from repro import cli


class TestExperimentArtifacts:
    def test_trace_metrics_manifest_flags(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        metrics = tmp_path / "m.json"
        manifest = tmp_path / "mf.json"
        assert cli.main([
            "experiment", "figure1", "--trials", "1",
            "--trace", str(trace), "--metrics", str(metrics),
            "--manifest", str(manifest)]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows and all("formed" in row for row in rows)

        header = json.loads(trace.read_text().splitlines()[0])
        assert header == {"kind": "trace-header", "schema": 1}
        names = {json.loads(line)["name"]
                 for line in trace.read_text().splitlines()[1:]}
        assert {"experiment", "run", "round"} <= names

        metrics_payload = json.loads(metrics.read_text())
        assert metrics_payload["schema"] == 1
        assert metrics_payload["counters"]["scheduler.rounds"] >= 1

        manifest_payload = json.loads(manifest.read_text())
        assert manifest_payload["schema"] == 1
        assert manifest_payload["experiment"] == "figure1"
        assert manifest_payload["rows"]["count"] == len(rows)

    def test_new_experiment_names_exposed(self, capsys):
        assert cli.main(["experiment", "baseline_2d"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows

    def test_cache_stats_uses_unified_render(self, capsys):
        assert cli.main(["experiment", "figure1", "--trials", "1",
                         "--cache-stats"]) == 0
        err = capsys.readouterr().err
        assert "cache hierarchy:" in err
        assert "cache.l1." in err


class TestFormArtifacts:
    def test_form_trace_and_metrics(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        metrics = tmp_path / "m.json"
        assert cli.main(["form", "cube", "octagon", "--seed", "1",
                         "--trace", str(trace),
                         "--metrics", str(metrics)]) == 0
        assert "formed: True" in capsys.readouterr().out
        names = {json.loads(line).get("name")
                 for line in trace.read_text().splitlines()[1:]}
        assert {"run", "round", "look", "compute", "move"} <= names
        payload = json.loads(metrics.read_text())
        assert payload["command"] == "form"
        assert payload["counters"]["scheduler.runs"] >= 1

    def test_form_cache_stats_same_format_as_experiment(self, capsys):
        assert cli.main(["form", "cube", "octagon", "--seed", "1",
                         "--cache-stats"]) == 0
        err = capsys.readouterr().err
        assert "cache hierarchy:" in err

    def test_form_has_no_jobs_flag(self):
        # A formation is one FSYNC execution: there is nothing to fan out.
        import pytest

        with pytest.raises(SystemExit) as exc:
            cli.main(["form", "cube", "octagon", "--jobs", "2"])
        assert exc.value.code == 2


class TestHelp:
    def test_exit_codes_documented(self, capsys):
        import pytest

        with pytest.raises(SystemExit):
            cli.main(["--help"])
        out = capsys.readouterr().out
        assert "exit codes:" in out
