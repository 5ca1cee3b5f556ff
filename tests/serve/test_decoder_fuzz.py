"""Fuzzing the wire decoder: any JSON-shaped envelope is either a
query or a :class:`ReproError`, and the query task answers it 200 or
422 without raising.

The envelopes mix well-formed queries (up to 64 points, duplicates
and catalog patterns included) with NaN, infinities, huge values,
ragged, short and empty point lists, wrong types and wrong schema
versions.  A schema version, of the envelope or of a run's spec, that
is not an integer no newer than the library's is always a 422.  Every
input that once escaped the decoder, reached a worker as a 500 or
answered 200 with a malformed version is an ``@example``.
"""

import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.api import API_SCHEMA_VERSION
from repro.errors import ReproError
from repro.patterns.library import named_pattern
from repro.serve.protocol import decode_query, query_key
from repro.serve.worker import run_query_task


def _scaled(name: str, factor: float) -> list:
    return [[float(c) * factor for c in row] for row in named_pattern(name)]


# What a client may send where a coordinate belongs.
_MODERATE = st.one_of(st.floats(min_value=-4.0, max_value=4.0),
                      st.integers(min_value=-10, max_value=10))
_NUMBERS = st.one_of(
    _MODERATE,
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e308, -1e308, 1e154, 1e100, 1e62, 1e55, 1e-300,
                     5e-324, 10 ** 400]),
)
_JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                  st.just([]), st.just({}))


def _rows(coordinate):
    return st.lists(st.lists(coordinate, min_size=3, max_size=3),
                    min_size=1, max_size=60)


# Catalog patterns as coordinates: configurations with symmetry.
_CATALOG_ROWS = st.sampled_from(
    ["cube", "octagon", "icosahedron", "square_antiprism", "tetrahedron"]
).map(lambda name: _scaled(name, 1.0))


@st.composite
def _point_lists(draw, coordinate=_NUMBERS):
    """Up to 64 rows of three numbers, some of them repeated."""
    rows = draw(st.one_of(_rows(coordinate), _CATALOG_ROWS))
    repeats = draw(st.lists(st.integers(0, len(rows) - 1), max_size=4))
    return rows + [list(rows[i]) for i in repeats]


@st.composite
def _well_formed(draw):
    """A valid envelope around moderate coordinates: these reach the
    evaluator, which may still refuse them (multiplicities, robot
    counts, n < 3)."""
    points = draw(_point_lists(_MODERATE))
    if draw(st.booleans()):
        return {"wire_schema": 1, "kind": "symmetricity", "points": points,
                "multiset": draw(st.booleans())}
    target = draw(st.one_of(
        st.just(points[::-1]),
        st.lists(st.lists(_MODERATE, min_size=3, max_size=3),
                 min_size=len(points), max_size=len(points)),
        _CATALOG_ROWS))
    return {"wire_schema": 1, "kind": "formability", "initial": points,
            "target": target}


_POINTS = st.one_of(
    _point_lists(),
    st.lists(st.lists(st.one_of(_NUMBERS, _JUNK), max_size=5),
             max_size=6),
    st.sampled_from(["cube", "octagon", "icosahedron", "noshape", ""]),
    _JUNK,
)
_VERSIONS = st.one_of(st.integers(-1, API_SCHEMA_VERSION + 1), _JUNK,
                      st.floats(allow_nan=False, max_value=4.0))


def _envelope(kind, **fields):
    return st.fixed_dictionaries(
        {"wire_schema": st.one_of(st.just(1), _VERSIONS),
         "kind": st.just(kind), **fields},
        optional={"schema_version": _VERSIONS})


# Run queries stay cheap: trials 0 (or a malformed spec), and never an
# experiment that ignores trials (theorem11, baseline_2d).
_RUN_SPECS = st.one_of(
    st.fixed_dictionaries(
        {"trials": st.one_of(st.just(0), st.integers(-3, -1), _JUNK)},
        optional={"seed": st.one_of(st.integers(-2, 3), _JUNK),
                  "cache": st.one_of(st.booleans(), _JUNK),
                  "jobs": st.integers(1, 4),
                  "schema_version": _VERSIONS}),
    _JUNK,
)

_ENVELOPES = st.one_of(
    _well_formed(),
    _envelope("formability", initial=_POINTS, target=_POINTS),
    _envelope("symmetricity", points=_POINTS),
    _envelope("symmetricity", points=_POINTS,
              multiset=st.one_of(st.booleans(), _JUNK)),
    _envelope("run", name=st.sampled_from(["lemma7", "figure1", "nosuch"]),
              spec=_RUN_SPECS),
    st.dictionaries(st.sampled_from(["wire_schema", "kind", "points",
                                     "initial", "target", "spec"]),
                    st.one_of(_JUNK, _NUMBERS), max_size=4),
)

_RAGGED = [[0.0, 0.0, 1.0], [1.0, 0.0], [0.0, 1.0, 0.0]]
_HUGE = [[1e308, 0, 0], [-1e308, 0, 0], [0, 1e308, 0], [0, 0, 1e308]]


def _symmetricity(points, **extra):
    return {"wire_schema": 1, "kind": "symmetricity", "points": points,
            **extra}


def _run_spec_version(version):
    return {"kind": "run", "name": "lemma7",
            "spec": {"trials": 0, "schema_version": version}}


def _versions_valid(wire) -> bool:
    """Every schema version the envelope carries is an integer (not a
    bool) no newer than the library's; an absent one defaults."""
    versions = [wire.get("schema_version", API_SCHEMA_VERSION)]
    spec = wire.get("spec")
    if wire.get("kind") == "run" and isinstance(spec, dict):
        versions.append(spec.get("schema_version", API_SCHEMA_VERSION))
    return all(type(v) is int and v <= API_SCHEMA_VERSION
               for v in versions)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(wire=_ENVELOPES)
@example(wire=_symmetricity(_RAGGED))
@example(wire=_symmetricity([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]))
@example(wire=_symmetricity([]))
@example(wire=_symmetricity("cube", multiset="false"))
@example(wire={"wire_schema": True, "kind": "symmetricity",
               "points": "cube"})
@example(wire={"wire_schema": 1, "schema_version": True,
               "kind": "symmetricity", "points": "cube"})
@example(wire=_symmetricity(_HUGE))
@example(wire=_symmetricity([[-c for c in row] for row in _HUGE]))
@example(wire=_symmetricity(_scaled("cube", 1e100)))
@example(wire=_symmetricity(_scaled("icosahedron", 1e154)))
@example(wire=_symmetricity(_scaled("octahedron", 2.0 ** 300)))
@example(wire=_symmetricity(_scaled("cube", 1e55)))
@example(wire=_symmetricity([[10 ** 400, 0, 0], [0, 1, 0], [0, 0, 1]]))
@example(wire=_symmetricity([[float("nan"), 0.0, 0.0], [0.0, 1.0, 0.0],
                             [0.0, 0.0, 1.0]]))
@example(wire={"wire_schema": 1, "kind": "formability",
               "initial": _RAGGED, "target": "cube"})
@example(wire={"wire_schema": 1, "kind": "formability",
               "initial": _HUGE, "target": _HUGE})
@example(wire={"wire_schema": 1, **_run_spec_version("x")})
@example(wire={"wire_schema": 1, **_run_spec_version(99)})
@example(wire={"wire_schema": 1, **_run_spec_version(True)})
def test_envelope_is_a_query_or_a_422(wire):
    # What the server hands over: Python's json reads NaN and
    # Infinity, and integers of any size.
    wire = json.loads(json.dumps(wire))
    try:
        query_key(decode_query(wire))
    except ReproError:
        decoded = False
    else:
        decoded = True
    outcome = run_query_task(wire)
    assert outcome["status"] in (200, 422), outcome
    if not decoded:
        assert outcome["status"] == 422, outcome
    if not _versions_valid(wire):
        assert not decoded
        assert outcome["status"] == 422, outcome
