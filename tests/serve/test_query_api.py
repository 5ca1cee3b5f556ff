"""The typed query surface of ``repro.api``: records, evaluation and
schema versioning."""

import collections

import numpy as np
import pytest

from repro.api import (
    API_SCHEMA_VERSION,
    ExperimentSpec,
    FormabilityQuery,
    RunQuery,
    SymmetricityQuery,
    as_points,
    evaluate_query,
    resolved_spec_record,
    run_experiment,
    spec_record,
)
from repro.errors import GeometryError, ReproError
from repro.geometry.balls import smallest_enclosing_ball
from repro.geometry.transforms import Similarity
from repro.patterns.library import named_configuration, named_pattern
from repro.serve.worker import run_query_task


class TestQueryRecords:
    def test_records_are_frozen_and_versioned(self):
        query = FormabilityQuery(initial="cube", target="octagon")
        assert query.schema_version == API_SCHEMA_VERSION
        with pytest.raises(AttributeError):
            query.initial = "tetrahedron"

    def test_as_points_canonicalizes(self):
        points = as_points([[1, 2, 3], [4, 5, 6.5]])
        assert points == ((1.0, 2.0, 3.0), (4.0, 5.0, 6.5))
        assert as_points("cube") == "cube"
        with pytest.raises(ReproError, match="points"):
            as_points(42)

    @pytest.mark.parametrize("kwargs", [
        {"trials": -1}, {"trials": "x"}, {"trials": True},
        {"seed": -3}, {"seed": None}, {"seed": False},
        {"cache": 1}, {"cache": "no"},
        {"schema_version": "x"}, {"schema_version": 99},
        {"schema_version": True}, {"schema_version": 2.0},
        {"schema_version": API_SCHEMA_VERSION + 1}])
    def test_spec_rejects_malformed_run_parameters(self, kwargs):
        with pytest.raises(ReproError, match="spec '"):
            ExperimentSpec(**kwargs)

    def test_spec_carries_schema_version(self):
        assert ExperimentSpec().schema_version == API_SCHEMA_VERSION
        assert spec_record(ExperimentSpec())["schema_version"] == \
            API_SCHEMA_VERSION
        record = resolved_spec_record("lemma7", ExperimentSpec())
        assert record["schema_version"] == API_SCHEMA_VERSION


class TestEvaluateQuery:
    def test_formable_pair(self):
        result = evaluate_query(FormabilityQuery(initial="cube",
                                                 target="octagon"))
        assert result.kind == "formability"
        assert result.verdict == "formable"
        assert result.groups["rho_initial"] == ["D4"]
        assert result.groups["blocking"] == []
        assert "Theorem 1.1" in result.explanation
        assert result.payload["n"] == 8

    def test_unformable_pair_names_the_blocker(self):
        result = evaluate_query(FormabilityQuery(initial="octagon",
                                                 target="cube"))
        assert result.verdict == "unformable"
        assert result.groups["blocking"] == ["C8"]

    def test_symmetricity_classification(self):
        result = evaluate_query(SymmetricityQuery(
            points="icosahedron"))
        assert result.kind == "symmetricity"
        assert result.verdict == "I"
        assert result.groups["gamma"] == "I"
        assert result.groups["rho_maximal"] == ["D3", "T"]
        assert result.payload["gamma_order"] == 60

    def test_run_query_matches_run_experiment(self):
        spec = ExperimentSpec(trials=2)
        result = evaluate_query(RunQuery(name="lemma7", spec=spec))
        direct = run_experiment("lemma7", spec)
        assert result.verdict == "completed"
        assert result.payload["row_count"] == len(direct.rows)
        assert result.payload["rows_sha256"] == \
            direct.manifest["rows"]["sha256"]
        assert result.payload["spec"] == \
            resolved_spec_record("lemma7", spec)

    def test_deterministic_view_is_stable(self):
        query = SymmetricityQuery(points="cube")
        first = evaluate_query(query).deterministic_view()
        second = evaluate_query(query).deterministic_view()
        assert first == second
        assert "timing" not in first and "cache" not in first

    def test_sidecars_are_present_but_separate(self):
        result = evaluate_query(SymmetricityQuery(points="cube"))
        assert "elapsed_ms" in result.timing
        assert "enabled" in result.cache

    def test_newer_schema_rejected(self):
        query = SymmetricityQuery(
            points="cube", schema_version=API_SCHEMA_VERSION + 1)
        with pytest.raises(ReproError, match="schema_version"):
            evaluate_query(query)

    def test_unknown_pattern_raises(self):
        with pytest.raises(ReproError):
            evaluate_query(SymmetricityQuery(points="dodecaplex"))


@pytest.fixture
def fresh_named_configurations():
    named_configuration.cache_clear()
    yield
    named_configuration.cache_clear()


@pytest.mark.usefixtures("fresh_named_configurations")
class TestNamedPatternsBuiltOnce:
    def test_named_target_ball_is_computed_once(self, monkeypatch):
        from repro.core import configuration
        from repro.groups import detection

        counts: collections.Counter = collections.Counter()
        for module in (configuration, detection):
            original = module.smallest_enclosing_ball

            def counted(points, *args, _original=original, **kwargs):
                counts[np.asarray(points, dtype=float).tobytes()] += 1
                return _original(points, *args, **kwargs)

            monkeypatch.setattr(module, "smallest_enclosing_ball", counted)
        rng = np.random.default_rng(17)
        initials = [as_points(Similarity.random(rng).apply_all(
            named_pattern("cube"))) for _ in range(6)]
        verdicts = {evaluate_query(FormabilityQuery(
            initial=points, target="octagon")).deterministic_view()[
                "verdict"] for points in initials}
        assert verdicts == {"formable"}
        target = np.asarray(named_pattern("octagon"), dtype=float)
        assert counts[target.tobytes()] == 1
        for points in initials:
            assert counts[np.asarray(points).tobytes()] == 1
        assert named_configuration.cache_info().currsize == 1
        # The shared target is read, never written, by the queries.
        shared = named_configuration("octagon")
        assert shared.as_array().tobytes() == target.tobytes()
        assert shared.center.tobytes() == \
            smallest_enclosing_ball(target).center.tobytes()

    def test_named_configuration_is_shared(self):
        first = named_configuration("icosahedron")
        assert named_configuration("icosahedron") is first
        assert [p.tobytes() for p in first.points] == \
            [np.asarray(p, dtype=float).tobytes()
             for p in named_pattern("icosahedron")]

    def test_unknown_name_is_422_and_not_kept(self):
        wire = {"wire_schema": 1, "kind": "formability",
                "initial": [list(p) for p in named_pattern("cube")],
                "target": "dodecaplex"}
        outcome = run_query_task(wire)
        assert outcome["status"] == 422
        assert "dodecaplex" in outcome["error"]
        with pytest.raises(GeometryError):
            named_configuration("dodecaplex")
        assert named_configuration.cache_info().currsize == 0
