"""The wire protocol: schema pins, round trips, coalescing keys."""

import dataclasses

import pytest

from repro.api import (
    API_SCHEMA_VERSION,
    ExperimentSpec,
    FormabilityQuery,
    QueryResult,
    RunQuery,
    SymmetricityQuery,
    as_points,
)
from repro.errors import ReproError
from repro.serve.protocol import (
    SPEC_WIRE_FIELDS,
    WIRE_SCHEMA_VERSION,
    canonical_result_text,
    decode_query,
    decode_result,
    encode_query,
    encode_result,
    query_key,
)

OCTAHEDRON = as_points([[1.0, 0, 0], [0, 1, 0], [0, 0, 1],
                        [-1.0, 0, 0], [0, -1, 0], [0, 0, -1]])


class TestWireSchemaPin:
    """The wire shape is a compatibility contract: these literals
    changing means WIRE_SCHEMA_VERSION must bump."""

    def test_versions_are_pinned(self):
        assert WIRE_SCHEMA_VERSION == 1
        assert API_SCHEMA_VERSION == 2

    def test_formability_wire_shape(self):
        wire = encode_query(FormabilityQuery(initial="cube",
                                             target="octagon"))
        assert wire == {
            "wire_schema": 1,
            "schema_version": 2,
            "kind": "formability",
            "initial": "cube",
            "target": "octagon",
        }

    def test_symmetricity_wire_shape(self):
        wire = encode_query(SymmetricityQuery(points="cube",
                                              multiset=True))
        assert wire == {
            "wire_schema": 1,
            "schema_version": 2,
            "kind": "symmetricity",
            "points": "cube",
            "multiset": True,
        }

    def test_run_wire_shape(self):
        wire = encode_query(RunQuery(name="lemma7",
                                     spec=ExperimentSpec(trials=3)))
        assert wire == {
            "wire_schema": 1,
            "schema_version": 2,
            "kind": "run",
            "name": "lemma7",
            "spec": {"trials": 3, "seed": 0, "cache": None,
                     "schema_version": 2},
        }

    def test_spec_wire_fields_mirror_experiment_spec(self):
        # The only guard of wire/spec drift: every wire field is a
        # spec field, and artifact paths never travel.
        spec_fields = {f.name for f in
                       dataclasses.fields(ExperimentSpec)}
        assert set(SPEC_WIRE_FIELDS) <= spec_fields
        assert not any(name.endswith("_path")
                       for name in SPEC_WIRE_FIELDS)

    def test_grid_axes_expressible_on_wire(self):
        from repro.campaign.spec import GRID_AXES

        assert set(GRID_AXES) <= set(SPEC_WIRE_FIELDS)


class TestRoundTrip:
    @pytest.mark.parametrize("query", [
        FormabilityQuery(initial="cube", target="octagon"),
        FormabilityQuery(initial=OCTAHEDRON, target="cube"),
        SymmetricityQuery(points="icosahedron"),
        SymmetricityQuery(points=OCTAHEDRON, multiset=True),
        RunQuery(name="lemma7", spec=ExperimentSpec(trials=2, seed=7)),
    ])
    def test_query_round_trip(self, query):
        assert decode_query(encode_query(query)) == query

    def test_result_round_trip(self):
        result = QueryResult(
            kind="formability", verdict="formable",
            groups={"rho_initial": ["D4"]}, explanation="yes",
            payload={"n": 8}, cache={"enabled": True},
            timing={"elapsed_ms": 1.5})
        again = decode_result(encode_result(result))
        assert again == result
        assert again.deterministic_view() == result.deterministic_view()

    def test_canonical_text_strips_sidecars(self):
        fast = QueryResult(kind="symmetricity", verdict="T",
                           timing={"elapsed_ms": 0.1})
        slow = QueryResult(kind="symmetricity", verdict="T",
                           cache={"enabled": True},
                           timing={"elapsed_ms": 99.9})
        assert canonical_result_text(fast) == canonical_result_text(slow)


class TestDecodeRejections:
    def test_newer_wire_schema_rejected(self):
        wire = encode_query(FormabilityQuery(initial="cube",
                                             target="cube"))
        wire["wire_schema"] = WIRE_SCHEMA_VERSION + 1
        with pytest.raises(ReproError, match="wire_schema"):
            decode_query(wire)

    def test_newer_record_schema_rejected(self):
        wire = encode_query(SymmetricityQuery(points="cube"))
        wire["schema_version"] = API_SCHEMA_VERSION + 1
        with pytest.raises(ReproError, match="schema_version"):
            decode_query(wire)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ReproError, match="unknown wire query kind"):
            decode_query({"wire_schema": 1, "kind": "teleport"})

    def test_unknown_spec_field_rejected(self):
        wire = encode_query(RunQuery(name="lemma7"))
        wire["spec"]["turbo"] = True
        with pytest.raises(ReproError, match="turbo"):
            decode_query(wire)

    def test_malformed_points_rejected(self):
        with pytest.raises(ReproError, match="points"):
            decode_query({"wire_schema": 1, "kind": "symmetricity",
                          "points": {"x": 1}})

    @pytest.mark.parametrize("points", [
        [], [[0.0, 0.0, 1.0], [1.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, 0.0, 1.0, 2.0]], [[1.0, 2.0, "3"]], [[1.0, 2.0, True]],
        [[1.0, 2.0, None]], [(1.0, 2.0, 3.0)], [[10 ** 400, 0, 0]],
        [[float("nan"), 0.0, 0.0]], [[float("inf"), 0.0, 0.0]]],
        ids=["empty", "ragged", "two-coordinates", "four-coordinates",
             "string", "bool", "null", "tuple-row", "huge-int", "nan",
             "inf"])
    def test_only_rows_of_three_finite_numbers(self, points):
        for wire in ({"wire_schema": 1, "kind": "symmetricity",
                      "points": points},
                     {"wire_schema": 1, "kind": "formability",
                      "initial": "cube", "target": points}):
            with pytest.raises(ReproError, match="x, y, z"):
                decode_query(wire)

    def test_integer_coordinates_decode_as_floats(self):
        query = decode_query({"wire_schema": 1, "kind": "symmetricity",
                              "points": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]})
        assert query.points == ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                                (0.0, 0.0, 1.0))

    @pytest.mark.parametrize("value", ["false", 0, 1, None, []])
    def test_multiset_must_be_boolean(self, value):
        with pytest.raises(ReproError, match="multiset"):
            decode_query({"wire_schema": 1, "kind": "symmetricity",
                          "points": "cube", "multiset": value})

    @pytest.mark.parametrize("field", ["wire_schema", "schema_version"])
    def test_boolean_versions_rejected(self, field):
        wire = encode_query(SymmetricityQuery(points="cube"))
        wire[field] = True
        with pytest.raises(ReproError, match=field):
            decode_query(wire)


class TestQueryKey:
    def test_equal_queries_share_a_key(self):
        a = SymmetricityQuery(points=OCTAHEDRON)
        b = SymmetricityQuery(points=OCTAHEDRON)
        assert query_key(a) == query_key(b)

    def test_exact_translation_and_scale_coalesce(self):
        # The canonicalization is similarity-invariant for exactly
        # representable transforms: same congruence class, same key,
        # one computation.
        moved = tuple(tuple(c * 4.0 + 7.0 for c in row)
                      for row in OCTAHEDRON)
        assert query_key(SymmetricityQuery(points=moved)) == \
            query_key(SymmetricityQuery(points=OCTAHEDRON))

    def test_different_configurations_differ(self):
        other = tuple(tuple(row) for row in OCTAHEDRON[:-1]) + \
            ((0.0, 0.0, -2.0),)
        assert query_key(SymmetricityQuery(points=other)) != \
            query_key(SymmetricityQuery(points=OCTAHEDRON))

    def test_multiset_flag_splits_the_key(self):
        assert query_key(SymmetricityQuery(points=OCTAHEDRON)) != \
            query_key(SymmetricityQuery(points=OCTAHEDRON,
                                        multiset=True))

    def test_kind_prefixes_differ(self):
        f = FormabilityQuery(initial="cube", target="cube")
        s = SymmetricityQuery(points="cube")
        assert query_key(f).startswith("formability:")
        assert query_key(s).startswith("symmetricity:")
        assert query_key(f) != query_key(s)

    def test_formability_sides_are_ordered(self):
        ab = FormabilityQuery(initial="cube", target="octagon")
        ba = FormabilityQuery(initial="octagon", target="cube")
        assert query_key(ab) != query_key(ba)

    def test_run_key_tracks_resolved_spec(self):
        base = RunQuery(name="lemma7", spec=ExperimentSpec(trials=2))
        same = RunQuery(name="lemma7", spec=ExperimentSpec(trials=2))
        other_seed = RunQuery(name="lemma7",
                              spec=ExperimentSpec(trials=2, seed=1))
        assert query_key(base) == query_key(same)
        assert query_key(base) != query_key(other_seed)

    def test_run_key_ignores_unconsumed_fields(self):
        # theorem11's driver consumes only seed/jobs; `trials` never
        # enters its resolved spec record, so it cannot split the key.
        a = RunQuery(name="theorem11", spec=ExperimentSpec(trials=5))
        b = RunQuery(name="theorem11", spec=ExperimentSpec(trials=9))
        assert query_key(a) == query_key(b)
