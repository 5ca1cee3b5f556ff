"""The wire protocol: versioned query records and coalescing keys.

One JSON envelope per request/response.  A wire query is the typed
:data:`repro.api.Query` record in dict form plus the wire schema
version; a wire result is the full :class:`repro.api.QueryResult`
(deterministic view *and* the cache/timing sidecars).  The CLI, the
server, the pool workers and the tests all encode/decode through this
module, so there is exactly one serialization of the typed contract.

Coalescing keys (:func:`query_key`) are the serving-time analogue of
the L1 congruence cache's class keys: two in-flight queries with
equal keys are *the same computation* and may share one result.  For
the geometric queries the key is an exact-byte digest
(:func:`repro.perf.stats.exact_digest`) over the structural
congruence signature (:func:`repro.core.signatures.
congruence_signature`) and the similarity-canonicalized point bytes —
center-relative, unit-scale, lexicographically ordered — so
congruence-equivalent queries whose canonical forms are bit-identical
(same pattern at any exact translation/scale) coalesce onto one
kernel computation and one L2/L3 cache entry.  Rounding never enters
the key: near-congruent configurations that canonicalize to different
bytes simply run separately, which costs time but never correctness
(the same argument as the L1 key discipline).

``SPEC_WIRE_FIELDS`` pins the :class:`repro.api.ExperimentSpec`
fields a run query carries on the wire.  ``tests/serve/test_protocol.py``
checks it against the spec dataclass (no drift: a wire field with no
spec field would be silently dropped) and against the campaign's
``GRID_AXES`` (the wire must be able to express any campaign axis).  Artifact paths are
deliberately absent: a server never writes client-named files.  So is
``jobs``: a served run executes its trials inline in one server worker
(rows are identical for any ``jobs``), so a client cannot make the
server fork a pool inside its pool.
"""

from __future__ import annotations

import math
from typing import Any, Mapping

from repro.api import (
    API_SCHEMA_VERSION,
    ExperimentSpec,
    FormabilityQuery,
    Query,
    QueryResult,
    RunQuery,
    SymmetricityQuery,
    resolved_spec_record,
)
from repro.errors import ReproError

__all__ = [
    "SPEC_WIRE_FIELDS",
    "WIRE_SCHEMA_VERSION",
    "canonical_result_text",
    "decode_query",
    "decode_result",
    "encode_query",
    "encode_result",
    "query_key",
]

#: Version of the JSON envelope itself (field names, nesting).  The
#: payload records additionally carry :data:`API_SCHEMA_VERSION`.
WIRE_SCHEMA_VERSION = 1

#: ExperimentSpec fields a RunQuery carries on the wire, in spec
#: declaration order.  tests/serve/test_protocol.py checks them
#: against the dataclass fields and the campaign GRID_AXES.
SPEC_WIRE_FIELDS = ("trials", "seed", "cache", "schema_version")


def _encode_points(points: Any) -> Any:
    if isinstance(points, str):
        return points
    return [list(row) for row in points]


def _is_number(value: Any) -> bool:
    """A JSON number: an ``int`` or ``float`` that is not a ``bool``."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _decode_points(value: Any, what: str) -> Any:
    """A pattern name, or a non-empty list of rows of three finite
    numbers as coordinate tuples; :class:`ReproError` for anything
    else (ragged or short rows, an empty list, strings or booleans
    as coordinates, NaN, infinities, integers beyond float64)."""
    if isinstance(value, str):
        return value
    problem = (f"wire query field {what!r} must be a pattern name or a "
               f"non-empty list of [x, y, z] rows of finite numbers")
    if not isinstance(value, list) or not value:
        raise ReproError(problem)
    rows = []
    for row in value:
        if not (isinstance(row, list) and len(row) == 3
                and all(_is_number(c) for c in row)):
            raise ReproError(problem)
        try:
            coords = tuple(float(c) for c in row)
        except OverflowError:
            raise ReproError(problem) from None
        if not all(math.isfinite(c) for c in coords):
            raise ReproError(problem)
        rows.append(coords)
    return tuple(rows)


def encode_query(query: Query) -> dict:
    """The JSON-safe wire form of one typed query record."""
    envelope: dict[str, Any] = {
        "wire_schema": WIRE_SCHEMA_VERSION,
        "schema_version": query.schema_version,
    }
    if isinstance(query, FormabilityQuery):
        envelope["kind"] = "formability"
        envelope["initial"] = _encode_points(query.initial)
        envelope["target"] = _encode_points(query.target)
    elif isinstance(query, SymmetricityQuery):
        envelope["kind"] = "symmetricity"
        envelope["points"] = _encode_points(query.points)
        envelope["multiset"] = bool(query.multiset)
    elif isinstance(query, RunQuery):
        envelope["kind"] = "run"
        envelope["name"] = query.name
        envelope["spec"] = {name: getattr(query.spec, name)
                            for name in SPEC_WIRE_FIELDS}
    else:
        raise ReproError(
            f"unknown query type {type(query).__name__}")
    return envelope


def _check_envelope(wire: Mapping[str, Any]) -> None:
    if not isinstance(wire, Mapping):
        raise ReproError("wire query must be a JSON object")
    # Versions are JSON integers; ``type`` rather than ``isinstance``
    # because a bool is an ``int`` subclass and no version.
    wire_schema = wire.get("wire_schema")
    if type(wire_schema) is not int or wire_schema > WIRE_SCHEMA_VERSION:
        raise ReproError(
            f"unsupported wire_schema {wire_schema!r} "
            f"(this server speaks {WIRE_SCHEMA_VERSION})")
    schema = wire.get("schema_version", API_SCHEMA_VERSION)
    if type(schema) is not int or schema > API_SCHEMA_VERSION:
        raise ReproError(
            f"unsupported schema_version {schema!r} "
            f"(this server speaks {API_SCHEMA_VERSION})")


def decode_query(wire: Mapping[str, Any]) -> Query:
    """The typed query record behind one wire envelope.

    Raises :class:`ReproError` for unknown kinds, malformed fields
    and schema versions newer than this library.
    """
    _check_envelope(wire)
    kind = wire.get("kind")
    schema = int(wire.get("schema_version", API_SCHEMA_VERSION))
    if kind == "formability":
        return FormabilityQuery(
            initial=_decode_points(wire.get("initial"), "initial"),
            target=_decode_points(wire.get("target"), "target"),
            schema_version=schema)
    if kind == "symmetricity":
        multiset = wire.get("multiset", False)
        if not isinstance(multiset, bool):
            raise ReproError(f"wire query field 'multiset' must be a "
                             f"boolean, got {multiset!r}")
        return SymmetricityQuery(
            points=_decode_points(wire.get("points"), "points"),
            multiset=multiset, schema_version=schema)
    if kind == "run":
        name = wire.get("name")
        if not isinstance(name, str):
            raise ReproError("wire run query needs a string 'name'")
        spec_fields = wire.get("spec", {})
        if not isinstance(spec_fields, Mapping):
            raise ReproError("wire run query 'spec' must be an object")
        unknown = set(spec_fields) - set(SPEC_WIRE_FIELDS)
        if unknown:
            raise ReproError(
                f"wire run query has unknown spec fields: "
                f"{', '.join(sorted(unknown))}")
        spec = ExperimentSpec(**dict(spec_fields))
        return RunQuery(name=name, spec=spec, schema_version=schema)
    raise ReproError(f"unknown wire query kind {kind!r}")


def encode_result(result: QueryResult) -> dict:
    """The JSON-safe wire form of one :class:`QueryResult`."""
    return {
        "wire_schema": WIRE_SCHEMA_VERSION,
        "schema_version": result.schema_version,
        "kind": result.kind,
        "verdict": result.verdict,
        "groups": dict(result.groups),
        "explanation": result.explanation,
        "payload": dict(result.payload),
        "cache": dict(result.cache),
        "timing": dict(result.timing),
    }


def decode_result(wire: Mapping[str, Any]) -> QueryResult:
    """The typed :class:`QueryResult` behind one wire envelope."""
    _check_envelope(wire)
    try:
        return QueryResult(
            kind=str(wire["kind"]),
            verdict=str(wire["verdict"]),
            groups=dict(wire.get("groups", {})),
            explanation=str(wire.get("explanation", "")),
            payload=dict(wire.get("payload", {})),
            cache=dict(wire.get("cache", {})),
            timing=dict(wire.get("timing", {})),
            schema_version=int(wire.get("schema_version",
                                        API_SCHEMA_VERSION)))
    except KeyError as exc:
        raise ReproError(
            f"wire result is missing field {exc.args[0]!r}") from None


def canonical_result_text(result: QueryResult) -> str:
    """Canonical JSON of the deterministic view (sorted, compact).

    The byte-identity contract's unit of comparison: direct façade
    evaluation and any number of server round-trips must render one
    query to this exact text.
    """
    import json

    return json.dumps(result.deterministic_view(), sort_keys=True,
                      separators=(",", ":"))


def _canonical_point_bytes(points: Any) -> "tuple[Any, Any]":
    """Similarity-canonical ``(coords, multiplicity)`` arrays.

    Center-relative, scaled to unit max radius, rows ordered
    lexicographically — a pure, rounding-free function of the point
    multiset, so congruent inputs with exactly-representable
    translations/scales canonicalize to identical bytes.  Points no
    :class:`~repro.core.configuration.Configuration` accepts raise its
    :class:`ConfigurationError` here: scaled far enough, a pattern
    keeps its unit copy's key but no longer has its answer.
    """
    import numpy as np

    from repro.core.configuration import coordinate_array

    arr = coordinate_array(points)
    rel = arr - arr.mean(axis=0)
    scale = float(np.max(np.linalg.norm(rel, axis=1)))
    if scale > 0.0:
        rel = rel / scale
    order = np.lexsort((rel[:, 2], rel[:, 1], rel[:, 0]))
    return rel[order], arr.shape[0]


def query_key(query: Query) -> str:
    """The coalescing key: equal keys ⇒ identical deterministic views.

    Geometric queries key on the structural congruence signature plus
    the exact bytes of the canonicalized points; run queries key on
    the resolved spec record (the same preimage the campaign layer
    digests for its cells).
    """
    from repro.core.signatures import congruence_signature
    from repro.perf.stats import exact_digest

    if isinstance(query, RunQuery):
        record = resolved_spec_record(query.name, query.spec)
        parts = tuple(item for pair in sorted(record.items())
                      for item in pair)
        digest = exact_digest(b"serve-run", query.name, parts)
        return f"run:{digest.hex()}"
    if isinstance(query, FormabilityQuery):
        sides = []
        for side in (query.initial, query.target):
            if isinstance(side, str):
                sides.append(exact_digest(b"name", side))
            else:
                canonical, n = _canonical_point_bytes(side)
                sides.append(exact_digest(
                    b"points",
                    tuple(congruence_signature(n, [1] * n)),
                    canonical))
        digest = exact_digest(b"serve-formability", *sides)
        return f"formability:{digest.hex()}"
    if isinstance(query, SymmetricityQuery):
        if isinstance(query.points, str):
            part = exact_digest(b"name", query.points)
        else:
            canonical, n = _canonical_point_bytes(query.points)
            part = exact_digest(
                b"points", tuple(congruence_signature(n, [1] * n)),
                canonical)
        digest = exact_digest(b"serve-symmetricity", part,
                              bool(query.multiset))
        return f"symmetricity:{digest.hex()}"
    raise ReproError(f"unknown query type {type(query).__name__}")
