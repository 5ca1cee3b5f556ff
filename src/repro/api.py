"""The unified query façade: typed queries, one evaluator, versioned.

Two layers share this module:

* **Runs** — :func:`run_experiment` is the entrypoint behind the
  CLI's ``experiment`` command and the benchmark harness.  It
  dispatches a name (``lemma7``, ``theorem41``, ``theorem11``,
  ``figure1``, ``plane_formation``, ``baseline_2d``) to its driver in
  :mod:`repro.analysis.experiments`, runs it under an active tracer
  and a metrics window, and returns a :class:`RunResult` carrying the
  rows *and* the run's manifest and logical-metric snapshot.
* **Queries** — the typed request/response records shared by the CLI,
  the campaign layer and the query server (:mod:`repro.serve`):
  :class:`FormabilityQuery` (is ``ϱ(P) ⊆ ϱ(F)``?, Theorem 1.1),
  :class:`SymmetricityQuery` (``γ(P)`` / ``ϱ(P)`` classification) and
  :class:`RunQuery` (a full experiment run), all answered by
  :func:`evaluate_query` with a structured :class:`QueryResult`.
  ``run_experiment`` is a thin wrapper over the same internal runner
  the query surface uses.

Every record carries ``schema_version`` (:data:`API_SCHEMA_VERSION`)
so serialized requests, campaign cell digests and manifests are
forward-compatible: a consumer seeing a newer version than it
understands must reject rather than misread.

Determinism contract: the rows, the manifest's
:func:`repro.obs.manifest.deterministic_view` and
:meth:`QueryResult.deterministic_view` are pure functions of the
query — wall-clock readings appear only in traces, the manifest's
``timing`` section and the result's ``timing``/``cache`` sidecars,
never in rows (REP005), and the parallel runner merges worker metric
deltas so ``jobs=1`` and ``jobs=N`` report identical logical
counters.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Union

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover — annotation-only imports
    from repro.core.configuration import Configuration
    from repro.groups.group import GroupSpec

__all__ = ["API_SCHEMA_VERSION", "ExperimentSpec", "FormabilityQuery",
           "Query", "QueryResult", "RunQuery", "RunResult",
           "SymmetricityQuery", "as_points", "evaluate_query",
           "experiment_names", "resolved_spec_record", "run_experiment",
           "spec_record"]

#: Version of the typed query/spec records.  Bumped whenever a field
#: is added, renamed, removed or changes meaning; serialized records
#: carry it and decoders reject versions they do not understand.
#: Version 2 dropped ``ExperimentSpec.backend``.
API_SCHEMA_VERSION = 2


def _is_int(value: object) -> bool:
    """An ``int`` that is not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything that parameterizes one experiment run.

    ``trials`` of ``None`` means the driver's own default (drivers
    without a trial sweep — ``theorem11``, ``plane_formation``,
    ``baseline_2d`` — ignore it).  ``cache`` of ``None`` inherits the
    process's current cache-enablement; True/False force it for the
    duration of the run and restore the prior setting afterwards.
    The three ``*_path`` fields request artifacts; ``None`` writes
    nothing.

    Construction validates the run parameters — ``trials`` is None or
    an integer ≥ 0, ``seed`` an integer ≥ 0, ``cache`` None or a bool
    (a bool is not an integer here), ``schema_version`` an integer no
    newer than :data:`API_SCHEMA_VERSION` — and raises
    :class:`ReproError` otherwise, so every surface (CLI, wire,
    campaign file) rejects a malformed spec before any work starts.
    """

    trials: int | None = None
    seed: int = 0
    jobs: int = 1
    cache: bool | None = None
    trace_path: str | Path | None = None
    metrics_path: str | Path | None = None
    manifest_path: str | Path | None = None
    schema_version: int = API_SCHEMA_VERSION

    def __post_init__(self) -> None:
        if self.trials is not None and not (
                _is_int(self.trials) and self.trials >= 0):
            raise ReproError(f"spec 'trials' must be null or an integer "
                             f">= 0, got {self.trials!r}")
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ReproError(f"spec 'seed' must be an integer >= 0, "
                             f"got {self.seed!r}")
        if self.cache is not None and not isinstance(self.cache, bool):
            raise ReproError(f"spec 'cache' must be null or a boolean, "
                             f"got {self.cache!r}")
        if not (_is_int(self.schema_version)
                and self.schema_version <= API_SCHEMA_VERSION):
            raise ReproError(f"spec 'schema_version' must be an integer "
                             f"no newer than {API_SCHEMA_VERSION}, got "
                             f"{self.schema_version!r}")


@dataclass(frozen=True)
class RunResult:
    """What one :func:`run_experiment` call produced.

    ``rows`` is exactly what the driver returned (dicts or dataclass
    rows); ``manifest`` is the full run manifest (also written to
    ``spec.manifest_path`` when set); ``metrics`` is the run's
    logical-counter delta in snapshot form.
    """

    name: str
    rows: list = field(default_factory=list)
    manifest: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)


#: Points travel as a named-library pattern (``"cube"``) or an
#: immutable tuple of ``(x, y, z)`` tuples — hashable, serializable,
#: and exactly representable on the wire.
Points = "tuple[tuple[float, ...], ...]"
PointsLike = Union[str, "tuple[tuple[float, ...], ...]"]


def as_points(value: object) -> PointsLike:
    """Canonicalize a pattern reference for a query record.

    A library name passes through unchanged (the evaluator resolves
    it); anything array-like becomes the immutable tuple-of-tuples
    form.  Raises :class:`ReproError` for inputs that are neither.
    """
    if isinstance(value, str):
        return value
    try:
        rows = [tuple(float(c) for c in row) for row in value]  # type: ignore[union-attr]
    except (TypeError, ValueError) as exc:
        raise ReproError(
            f"points must be a pattern name or an n x 3 coordinate "
            f"array, got {type(value).__name__}") from exc
    return tuple(rows)


@dataclass(frozen=True)
class FormabilityQuery:
    """Is target pattern ``F`` formable from ``P`` (Theorem 1.1)?"""

    initial: PointsLike
    target: PointsLike
    schema_version: int = API_SCHEMA_VERSION


@dataclass(frozen=True)
class SymmetricityQuery:
    """Classify ``γ(P)`` and ``ϱ(P)`` of one configuration.

    ``multiset`` selects the Definition 6 semantics (points may carry
    multiplicity, as target patterns do); without it a configuration
    with repeated points is rejected, exactly like
    :func:`repro.core.symmetricity.symmetricity`.
    """

    points: PointsLike
    multiset: bool = False
    schema_version: int = API_SCHEMA_VERSION


@dataclass(frozen=True)
class RunQuery:
    """One full experiment run through the façade."""

    name: str
    spec: ExperimentSpec = field(default_factory=ExperimentSpec)
    schema_version: int = API_SCHEMA_VERSION


Query = Union[FormabilityQuery, SymmetricityQuery, RunQuery]


@dataclass(frozen=True)
class QueryResult:
    """The structured answer to any :data:`Query`.

    ``verdict`` is the one-word outcome (``"formable"`` /
    ``"unformable"``, the ``γ(P)`` spec string, ``"completed"``);
    ``groups`` names the rotation groups involved (``ϱ(P)`` / ``ϱ(F)``
    maximal elements for formability, ``γ``/``ϱ`` for symmetricity);
    ``explanation`` is :meth:`FormabilityReport.explain`-style prose;
    ``payload`` carries kind-specific detail (experiment rows and
    their digest, full spec lists, group orders).  ``cache`` (hit/miss
    provenance — did warm state serve this answer?) and ``timing``
    (audited-clock wall time) are *sidecars*: they depend on cache
    luck and machine speed, so :meth:`deterministic_view` strips them
    — two evaluations of one query, on any transport, must agree on
    the view byte-for-byte.
    """

    kind: str
    verdict: str
    groups: dict = field(default_factory=dict)
    explanation: str = ""
    payload: dict = field(default_factory=dict)
    cache: dict = field(default_factory=dict)
    timing: dict = field(default_factory=dict)
    schema_version: int = API_SCHEMA_VERSION

    def deterministic_view(self) -> dict:
        """The result minus the luck- and clock-dependent sidecars."""
        return {
            "kind": self.kind,
            "schema_version": self.schema_version,
            "verdict": self.verdict,
            "groups": self.groups,
            "explanation": self.explanation,
            "payload": self.payload,
        }


# name -> (driver attribute in repro.analysis.experiments,
#          spec fields the driver consumes)
_REGISTRY: dict[str, tuple[str, tuple[str, ...]]] = {
    "lemma7": ("_lemma7_rows", ("trials", "seed", "jobs")),
    "theorem41": ("_theorem41_rows", ("trials", "seed", "jobs")),
    "theorem11": ("_theorem11_rows", ("seed", "jobs")),
    "figure1": ("_figure1_rows", ("trials", "seed", "jobs")),
    "plane_formation": ("_plane_formation_rows", ("seed",)),
    "baseline_2d": ("_baseline_2d_rows", ("seed",)),
}


def experiment_names() -> list[str]:
    """The registered experiment names, sorted."""
    return sorted(_REGISTRY)


def _driver_call(name: str, spec: ExperimentSpec):
    """Resolve the driver and the kwargs it consumes from the spec."""
    from repro.analysis import experiments as _experiments

    attr, params = _REGISTRY[name]
    driver = getattr(_experiments, attr)
    kwargs = {}
    for param in params:
        value = getattr(spec, param)
        if param == "trials" and value is None:
            continue  # keep the driver's documented default
        kwargs[param] = value
    return driver, kwargs


def _spec_record(name: str, spec: ExperimentSpec,
                 params: tuple[str, ...]) -> dict:
    """The manifest's ``spec`` section: consumed params only."""
    record = {param: getattr(spec, param) for param in params}
    if "trials" in record and record["trials"] is None:
        # Resolve the driver default so the manifest is explicit.
        import inspect

        from repro.analysis import experiments as _experiments

        driver = getattr(_experiments, _REGISTRY[name][0])
        record["trials"] = inspect.signature(
            driver).parameters["trials"].default
    record["cache"] = spec.cache
    record["schema_version"] = spec.schema_version
    return record


def resolved_spec_record(name: str, spec: ExperimentSpec) -> dict:
    """The manifest ``spec`` section for ``(name, spec)``, pre-run.

    Only the driver-consumed parameters appear (plus ``cache``), with
    ``trials=None`` resolved to the driver's documented default —
    exactly what :func:`run_experiment` will record in the manifest.
    The campaign layer keys cells on a digest of this record *before*
    running them, so resume can skip a cell without recomputing it.
    Raises :class:`repro.errors.ReproError` for an unknown ``name``.
    """
    if name not in _REGISTRY:
        known = ", ".join(experiment_names())
        raise ReproError(f"unknown experiment {name!r} (known: {known})")
    return _spec_record(name, spec, _REGISTRY[name][1])


def run_experiment(name: str, spec: ExperimentSpec | None = None) -> RunResult:
    """Run one registered experiment under tracing and metrics.

    A thin wrapper over the typed query surface: equivalent to
    evaluating ``RunQuery(name, spec)`` and keeping the full
    :class:`RunResult`.  Raises :class:`repro.errors.ReproError` for
    an unknown ``name``.
    """
    return _execute_run(name, spec if spec is not None else ExperimentSpec())


def _execute_run(name: str, spec: ExperimentSpec) -> RunResult:
    """The one internal runner behind ``run_experiment`` and
    ``RunQuery`` evaluation."""
    from repro.obs import manifest as _manifest
    from repro.obs import metrics as _metrics
    from repro.obs.trace import AggregatingTracer, JsonlTracer, activated

    if name not in _REGISTRY:
        known = ", ".join(experiment_names())
        raise ReproError(f"unknown experiment {name!r} (known: {known})")
    driver, kwargs = _driver_call(name, spec)

    prior_cache = None
    if spec.cache is not None:
        from repro import perf as _perf

        prior_cache = _perf.is_enabled()
        _perf.set_enabled(spec.cache)
    tracer = JsonlTracer(spec.trace_path) if spec.trace_path \
        else AggregatingTracer()
    reg = _metrics.registry()
    before = reg.snapshot()
    try:
        with activated(tracer):
            with tracer.span("experiment", experiment=name):
                reg.inc("experiment.runs")
                rows = driver(**kwargs)
    finally:
        tracer.close()
        if prior_cache is not None:
            from repro import perf as _perf

            _perf.set_enabled(prior_cache)

    full_delta = _metrics.snapshot_delta(before, reg.snapshot())
    logical, performance = _metrics.split_performance(
        full_delta.get("counters", {}))
    # The manifest's deterministic view embeds the metrics section, so
    # it gets the logical delta only; the jobs-dependent performance
    # counters (the ``backend`` section) travel on the result and the
    # artifact.
    logical_delta = {"counters": logical,
                     "histograms": full_delta.get("histograms", {})}
    run_metrics = {**logical_delta,
                   "backend": dict(sorted(performance.items()))}
    artifacts = {"trace": spec.trace_path, "metrics": spec.metrics_path,
                 "manifest": spec.manifest_path}
    manifest = _manifest.build_manifest(
        experiment=name,
        spec=_spec_record(name, spec, _REGISTRY[name][1]),
        rows=rows,
        metrics=logical_delta,
        phase_totals=tracer.phase_totals(),
        seed_streams=logical.get("seeds.spawned", 0),
        artifacts={k: v for k, v in artifacts.items() if v is not None})
    if spec.metrics_path is not None:
        _metrics.write_metrics(spec.metrics_path, run_metrics,
                               extra={"experiment": name})
    if spec.manifest_path is not None:
        _manifest.write_manifest(spec.manifest_path, manifest)
    return RunResult(name=name, rows=rows, manifest=manifest,
                     metrics=run_metrics)


def spec_record(spec: ExperimentSpec) -> dict:
    """The spec as a JSON-friendly dict (paths stringified).

    Carries ``schema_version`` like every serialized record of the
    query surface.
    """
    record = asdict(spec)
    for key in ("trace_path", "metrics_path", "manifest_path"):
        if record[key] is not None:
            record[key] = str(record[key])
    return record


# ---------------------------------------------------------------------------
# Query evaluation
# ---------------------------------------------------------------------------


def _resolve_configuration(points: PointsLike) -> "Configuration":
    """A :class:`repro.core.configuration.Configuration` for a query
    pattern reference (library name or coordinate tuples).

    A library name resolves to the process's one configuration of that
    pattern (:func:`repro.patterns.library.named_configuration`), so a
    query worker derives a named pattern's ball, ``γ`` and ``ϱ`` once.
    """
    import numpy as np

    from repro.core.configuration import Configuration

    if isinstance(points, str):
        from repro.patterns.library import named_configuration

        return named_configuration(points)
    return Configuration([np.asarray(row, dtype=float) for row in points])


def _specs_sorted(specs: "set[GroupSpec]") -> list[str]:
    """Group specs as a deterministically ordered list of names."""
    return [str(spec) for spec in sorted(specs)]  # type: ignore[type-var]


def _cache_provenance(before: dict, after: dict) -> dict:
    """Hit/miss provenance of one evaluation (cache-luck sidecar)."""
    from repro.obs.metrics import l1_delta
    from repro.perf import is_enabled

    delta = l1_delta(before, after)
    summary: dict = {"enabled": is_enabled(), "l1": {}}
    for cache_name in sorted(delta):
        counters = {key: value for key, value
                    in sorted(delta[cache_name].items())
                    if key in ("hits", "misses") and value}
        if counters:
            summary["l1"][cache_name] = counters
    return summary


def _evaluate_formability(query: FormabilityQuery,
                          ) -> tuple[str, dict, str, dict]:
    from repro.core.formability import formability_report

    initial = _resolve_configuration(query.initial)
    target = _resolve_configuration(query.target)
    report = formability_report(initial, target)
    verdict = "formable" if report.formable else "unformable"
    groups = {
        "rho_initial": [str(s) for s in
                        report.initial_symmetricity.maximal],
        "rho_target": [str(s) for s in
                       report.target_symmetricity.maximal],
        "blocking": [str(s) for s in report.blocking],
    }
    payload = {
        "n": initial.n,
        "rho_initial_specs": _specs_sorted(
            report.initial_symmetricity.specs),
        "rho_target_specs": _specs_sorted(
            report.target_symmetricity.specs),
    }
    return verdict, groups, report.explain(), payload


def _evaluate_symmetricity(query: SymmetricityQuery,
                           ) -> tuple[str, dict, str, dict]:
    from repro.core.symmetricity import (
        symmetricity,
        symmetricity_of_multiset,
    )

    config = _resolve_configuration(query.points)
    report = config.symmetry
    classify = symmetricity_of_multiset if query.multiset else symmetricity
    rho = classify(config)
    if report.kind == "finite":
        gamma = str(report.group.spec)
        order = int(report.group.order)
    else:
        gamma = report.kind if report.infinite_kind is None \
            else f"{report.kind}:{report.infinite_kind.value}"
        order = 0
    maximal = [str(s) for s in rho.maximal]
    groups = {"gamma": gamma, "rho_maximal": maximal}
    payload = {
        "n": config.n,
        "gamma_order": order,
        "rho_specs": _specs_sorted(rho.specs),
    }
    explanation = (f"gamma(P) = {gamma}; varrho(P) maximal = "
                   f"{{{', '.join(maximal)}}}.")
    return gamma, groups, explanation, payload


def _evaluate_run(query: RunQuery) -> tuple[str, dict, str, dict]:
    from repro.obs.manifest import jsonable_rows, rows_digest

    result = _execute_run(query.name, query.spec)
    rows = jsonable_rows(result.rows)
    record = resolved_spec_record(query.name, query.spec)
    payload = {
        "experiment": query.name,
        "spec": record,
        "rows": rows,
        "rows_sha256": rows_digest(rows),
        "row_count": len(rows),
    }
    explanation = (f"experiment {query.name} completed: {len(rows)} "
                   f"rows, sha256 {payload['rows_sha256'][:12]}…")
    return "completed", {}, explanation, payload


def evaluate_query(query: Query) -> QueryResult:
    """Answer one typed query with a structured :class:`QueryResult`.

    The one evaluator behind the CLI's ``query`` subcommands and the
    query server's workers: every transport produces byte-identical
    :meth:`QueryResult.deterministic_view` payloads because they all
    route through here.  Raises :class:`ReproError` subclasses for
    invalid queries (unknown pattern, robot-count mismatch, unknown
    experiment, unsupported schema version).
    """
    from repro.obs import clock
    from repro.obs.metrics import l1_snapshot
    from repro.obs.trace import get_tracer

    if query.schema_version > API_SCHEMA_VERSION:
        raise ReproError(
            f"query schema_version {query.schema_version} is newer "
            f"than this library understands ({API_SCHEMA_VERSION})")
    evaluators = {
        FormabilityQuery: ("formability", _evaluate_formability),
        SymmetricityQuery: ("symmetricity", _evaluate_symmetricity),
        RunQuery: ("run", _evaluate_run),
    }
    try:
        kind, evaluator = evaluators[type(query)]
    except KeyError:
        raise ReproError(
            f"unknown query type {type(query).__name__}") from None
    cache_before = l1_snapshot()
    started = clock.monotonic()
    with get_tracer().span("query", kind=kind):
        verdict, groups, explanation, payload = evaluator(query)
    elapsed_ms = (clock.monotonic() - started) * 1000.0
    return QueryResult(
        kind=kind,
        verdict=verdict,
        groups=groups,
        explanation=explanation,
        payload=payload,
        cache=_cache_provenance(cache_before, l1_snapshot()),
        timing={"elapsed_ms": round(elapsed_ms, 3)},
    )
