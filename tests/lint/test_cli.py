"""CLI behavior: exit codes, JSON schema stability, and the
meta-test that the repository's own tree lints clean."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.lint.cli import main, report_as_json
from repro.lint.framework import LintReport, Violation

REPO_ROOT = Path(__file__).resolve().parents[2]


def write(tmp_path, rel_path, source):
    path = tmp_path / rel_path
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        write(tmp_path, "pkg/ok.py", "X = 1\n")
        assert main([str(tmp_path / "pkg")]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        write(tmp_path, "pkg/bad.py", "EPS = 1e-6\n")
        assert main([str(tmp_path / "pkg")]) == 1
        assert "REP001" in capsys.readouterr().out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "no-such-dir")]) == 2

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("REP001", "REP002", "REP003", "REP004",
                        "REP005"):
            assert rule_id in out


class TestJsonSchema:
    def test_schema_version_1_shape(self):
        report = LintReport(
            violations=[Violation(path="src/x.py", line=3, col=8,
                                  rule="REP001", message="raw literal")],
            suppressed=2, files=5)
        payload = report_as_json(report)
        assert payload == {
            "version": 1,
            "files": 5,
            "suppressed": 2,
            "by_rule": {"REP001": 1},
            "violations": [{
                "rule": "REP001",
                "path": "src/x.py",
                "line": 3,
                "col": 8,
                "message": "raw literal",
            }],
        }

    def test_json_output_file(self, tmp_path, capsys):
        write(tmp_path, "pkg/bad.py", "EPS = 1e-6\n")
        out_file = tmp_path / "report.json"
        code = main([str(tmp_path / "pkg"), "--format", "json",
                     "--output", str(out_file)])
        assert code == 1
        payload = json.loads(out_file.read_text())
        assert payload["version"] == 1
        assert payload["by_rule"] == {"REP001": 1}
        assert len(payload["violations"]) == 1
        # stdout carries only the one-line summary
        assert "1 finding(s)" in capsys.readouterr().out

    def test_json_stdout_parses(self, tmp_path, capsys):
        write(tmp_path, "pkg/ok.py", "X = 1\n")
        assert main([str(tmp_path / "pkg"), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["violations"] == []


class TestRepositoryIsClean:
    def test_src_and_benchmarks_lint_clean(self):
        """The repo enforces its own invariants: `python -m repro.lint
        src benchmarks` must exit 0 on the committed tree."""
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", "src", "benchmarks"],
            cwd=REPO_ROOT, capture_output=True, text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": ""},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_repro_cli_lint_subcommand(self, tmp_path):
        def run(*args):
            return subprocess.run(
                [sys.executable, "-m", *args], cwd=REPO_ROOT,
                capture_output=True, text=True,
                env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": ""},
            )

        proc = run("repro.cli", "lint", "--list-rules")
        assert proc.returncode == 0
        assert "REP001" in proc.stdout

        write(tmp_path, "pkg/bad.py", "EPS = 1e-6\n")
        target = str(tmp_path / "pkg")
        via_cli = run("repro.cli", "lint", target, "--format", "json")
        direct = run("repro.lint", target, "--format", "json")
        assert via_cli.returncode == direct.returncode == 1
        assert via_cli.stdout == direct.stdout
        assert json.loads(direct.stdout)["by_rule"] == {"REP001": 1}
