"""Smoke tests for the experiment drivers behind the benchmarks."""

from repro.analysis.experiments import GOC_POLYHEDRA
from repro.api import ExperimentSpec, run_experiment


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
