"""Tests for the SVG renderer and the command-line interface."""

import json

import pytest

from repro.errors import ReproError
from repro.cli import main
from repro.patterns.library import named_pattern
from repro.viz import render_execution_svg, render_svg


class TestRenderSvg:
    def test_writes_valid_svg(self, tmp_path, cube):
        path = tmp_path / "cube.svg"
        svg = render_svg(cube, path)
        assert path.exists()
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert svg.count("<circle") == 8

    def test_target_overlay(self, tmp_path, cube, octagon):
        svg = render_svg(cube, tmp_path / "o.svg", target=octagon)
        # 8 robots (filled) + 8 targets (dashed).
        assert svg.count("<circle") == 16
        assert "stroke-dasharray" in svg

    def test_title(self, cube):
        svg = render_svg(cube, None, title="hello world")
        assert "hello world" in svg

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            render_svg([], None)

    def test_execution_grid(self, tmp_path, cube):
        from repro import form_pattern

        result = form_pattern(cube, named_pattern("octagon"), seed=1)
        path = tmp_path / "run.svg"
        svg = render_execution_svg(result.configurations, path)
        assert path.exists()
        assert svg.count("round ") == len(result.configurations)

    def test_accepts_raw_point_lists(self):
        svg = render_execution_svg([named_pattern("cube")], None)
        assert "<svg" in svg


class TestCli:
    def test_patterns(self, capsys):
        assert main(["patterns"]) == 0
        out = capsys.readouterr().out
        assert "cube" in out and "octagon" in out

    def test_detect_named(self, capsys):
        assert main(["detect", "cube"]) == 0
        out = capsys.readouterr().out
        assert "gamma(P) = O" in out
        assert "varrho(P) maximal = {D4}" in out

    def test_detect_file(self, tmp_path, capsys):
        payload = [list(map(float, p)) for p in named_pattern("octagon")]
        path = tmp_path / "octagon.json"
        path.write_text(json.dumps(payload))
        assert main(["detect", str(path)]) == 0
        assert "gamma(P) = D8" in capsys.readouterr().out

    def test_check_formable(self, capsys):
        assert main(["check", "cube", "octagon"]) == 0
        assert "Formable" in capsys.readouterr().out

    def test_check_unformable_exit_code(self, capsys):
        assert main(["check", "octagon", "cube"]) == 1
        assert "Unformable" in capsys.readouterr().out

    def test_form_with_svg(self, tmp_path, capsys):
        svg = tmp_path / "exec.svg"
        assert main(["form", "cube", "octagon", "--seed", "1",
                     "--svg", str(svg)]) == 0
        assert svg.exists()
        assert "formed: True" in capsys.readouterr().out

    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "match=True" in out
        assert "match=False" not in out

    def test_unknown_pattern_errors(self, capsys):
        assert main(["detect", "no_such_pattern"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_experiment_rejects_negative_trials(self, capsys):
        assert main(["experiment", "lemma7", "--trials", "-1"]) == 2
        assert "error: spec 'trials'" in capsys.readouterr().err

    def test_campaign_status_without_a_store(self, tmp_path, capsys):
        store = tmp_path / "results.jsonl"
        assert main(["campaign", "status", "--store", str(store)]) == 2
        err = capsys.readouterr().err
        assert "no campaign store at" in err
        assert "results.jsonl" in err
