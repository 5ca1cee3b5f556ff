"""Smoke tests for the experiment drivers behind the benchmarks."""

import numpy as np
import pytest

from repro.analysis import experiments
from repro.analysis.experiments import GOC_POLYHEDRA
from repro.api import ExperimentSpec, run_experiment
from repro.core.configuration import Configuration
from repro.core.formability import formability_report
from repro.errors import EmbeddingError
from repro.patterns.library import named_pattern


def _rows(name: str, **spec) -> list:
    return run_experiment(name, ExperimentSpec(**spec)).rows


class TestLemma7Driver:
    def test_small_run(self):
        rows = _rows("lemma7", trials=1)
        assert len(rows) == len(GOC_POLYHEDRA)
        assert all(row["all_in_rho"] for row in rows)

    def test_distribution_counts_sum(self):
        rows = _rows("lemma7", trials=2)
        for row in rows:
            assert sum(row["gamma_after"].values()) == 2


class TestTheorem41Driver:
    def test_small_run(self):
        rows = _rows("theorem41", trials=1)
        assert all(row["bound_7_holds"] for row in rows)
        assert all(row["gamma_in_rho"] for row in rows)
        assert any(row["initial"] == "cube+octahedron" for row in rows)


class TestFigure1Driver:
    def test_small_run(self):
        rows = _rows("figure1", trials=1)
        assert {row["target"] for row in rows} == {
            "octagon", "square_antiprism"}
        for row in rows:
            assert row["formed"] == row["trials"]
            assert row["gamma_P"] == "O"


class TestPlaneFormationDriver:
    def test_matches_disc2015(self):
        rows = {r["initial"]: r for r in _rows("plane_formation")}
        assert not rows["cuboctahedron"]["plane_formable"]
        assert not rows["icosahedron"]["plane_formable"]
        assert rows["cube"]["formed"]


class Test2DDriver:
    def test_predictions_consistent(self):
        for row in _rows("baseline_2d"):
            assert row["predicted"] == (row["rho_F"] % row["rho_P"] == 0)
            if row["predicted"]:
                assert row["formed"]


class TestLowerBoundProbe:
    """Only ψ_PF's refusal (``γ(P) ∉ ϱ(F)``) counts as Theorem 1.1's
    lower bound holding; any other fault in a step propagates."""

    def _probe(self, monkeypatch, error: Exception) -> bool:
        def failing_step(scheduler, config):
            raise error

        # Theorem 1.1's unsolvable icosahedron -> cuboctahedron.
        initial = Configuration(named_pattern("icosahedron"))
        target = named_pattern("cuboctahedron")
        report = formability_report(initial, Configuration(target))
        assert not report.formable
        monkeypatch.setattr(experiments.FsyncScheduler, "step",
                            failing_step)
        return experiments._check_lower_bound(
            initial, target, report, np.random.default_rng(1))

    def test_refusal_keeps_the_bound(self, monkeypatch):
        assert self._probe(monkeypatch, EmbeddingError(
            "gamma(P) = I is not in varrho(F): unsolvable"))

    def test_other_faults_propagate(self, monkeypatch):
        with pytest.raises(TypeError, match="step crashed"):
            self._probe(monkeypatch, TypeError("step crashed"))


class TestFormationFaults:
    """A formation run counts only ψ_PF's refusal as "not formed"; any
    other fault in a step propagates out of the theorem11 row."""

    def _row(self, monkeypatch, error: Exception):
        def failing_step(scheduler, config):
            raise error

        monkeypatch.setattr(experiments.FsyncScheduler, "step",
                            failing_step)
        # Theorem 1.1's solvable cube -> octagon.
        return experiments._theorem11_instance_row((
            "cube", "octagon", named_pattern("cube"),
            named_pattern("octagon"), np.random.SeedSequence(5)))

    def test_type_error_propagates_out_of_the_row(self, monkeypatch):
        with pytest.raises(TypeError, match="step crashed"):
            self._row(monkeypatch, TypeError("step crashed"))

    def test_refusal_reads_as_not_formed(self, monkeypatch):
        row = self._row(monkeypatch, EmbeddingError("refused"))
        assert row.predicted_formable
        assert (row.formed_random, row.rounds) == (False, -1)
        assert row.formed_worst_case is False
