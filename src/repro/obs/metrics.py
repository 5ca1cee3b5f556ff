"""The metrics registry: counters, histograms, and the cache view.

One process-wide default :class:`MetricsRegistry` collects *logical*
counters from the instrumented layers — the round engine
(``scheduler.*``), the matching kernel (``matching.*``), the seeding
plumbing (``seeds.*``) and the experiment façade (``experiment.*``).
Logical counters count model events (rounds executed, observations
built, matchings solved), so they are a pure function of the work
performed: the parallel runner snapshots each worker's registry
around every chunk and merges the deltas into the driver's registry
(:func:`repro.perf.parallel.parallel_map`), and because counter merge
is addition (and histogram merge is count/total addition with
min/·max), the merged totals are identical for any ``--jobs`` value.

The three-level cache hierarchy keeps its own counters
(:func:`repro.perf.stats.hierarchy_stats`); :func:`cache_metrics`
flattens them into the same ``name -> value`` namespace
(``cache.l1.symmetry.hits``, ``cache.l2.misses``, ...), and
:func:`render_cache_metrics` is the one renderer behind every
``--cache-stats`` flag.

The kernels' neighbour index (:mod:`repro.geometry.neighbors`)
counts its k-d trees on ``backend.neighbor_index.kd``.  That is a
*performance* counter, not a logical one: how many indexes a run
builds depends on cache luck (a cold worker cache redoes detections a
warm inline cache would have served), so it is jobs-dependent by
nature.  :func:`split_performance` separates such counters from the
logical ones and the run façade reports them beside the cache
hierarchy — in the ``backend`` section of the metrics artifact and
the ``--cache-stats`` render — never inside the jobs-invariant
logical snapshot.
"""

from __future__ import annotations

__all__ = [
    "METRICS_SCHEMA_VERSION",
    "PERFORMANCE_PREFIXES",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "backend_metrics",
    "cache_metrics",
    "inc",
    "l1_delta",
    "l1_snapshot",
    "metrics_artifact",
    "observe",
    "registry",
    "render_cache_metrics",
    "render_snapshot",
    "snapshot_delta",
    "split_performance",
    "write_metrics",
]

#: Counter namespaces that measure performance (neighbour indexes
#: built) rather than logical model events.  Performance counters
#: depend on cache luck and therefore on the ``--jobs`` partition; the
#: jobs-invariance contract only covers the logical remainder.  The
#: ``serve.`` namespace (queue depth, coalesce hits, deadline misses)
#: is scheduling-dependent for the same reason: two identical query
#: bursts coalesce differently depending on arrival timing.
PERFORMANCE_PREFIXES = ("backend.", "serve.")

METRICS_SCHEMA_VERSION = 1


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, value: int = 1) -> None:
        self.value += value


class Histogram:
    """Count / total / min / max summary of observed values."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def as_dict(self) -> dict:
        return {"count": self.count, "total": self.total,
                "min": self.min, "max": self.max}


class MetricsRegistry:
    """Named counters and histograms with mergeable snapshots."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter()
        return counter

    def histogram(self, name: str) -> Histogram:
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram()
        return hist

    def inc(self, name: str, value: int = 1) -> None:
        self.counter(name).inc(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    def snapshot(self) -> dict:
        """``{"counters": {...}, "histograms": {...}}``, keys sorted."""
        return {
            "counters": {name: self._counters[name].value
                         for name in sorted(self._counters)},
            "histograms": {name: self._histograms[name].as_dict()
                           for name in sorted(self._histograms)},
        }

    def merge(self, snapshot: dict) -> None:
        """Fold a snapshot (e.g. a worker delta) into this registry.

        Counter merge is addition and histogram merge is count/total
        addition with min-of-mins / max-of-maxes, so merging the
        chunk deltas of any worker partition yields the same totals
        as running every item inline.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.inc(name, value)
        for name, data in snapshot.get("histograms", {}).items():
            hist = self.histogram(name)
            hist.count += data["count"]
            hist.total += data["total"]
            for bound, pick in (("min", min), ("max", max)):
                value = data.get(bound)
                if value is None:
                    continue
                current = getattr(hist, bound)
                setattr(hist, bound,
                        value if current is None else pick(current, value))

    def reset(self) -> None:
        self._counters.clear()
        self._histograms.clear()


_default_registry = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _default_registry


def inc(name: str, value: int = 1) -> None:
    """Increment a counter on the default registry."""
    _default_registry.inc(name, value)


def observe(name: str, value: float) -> None:
    """Observe a histogram value on the default registry."""
    _default_registry.observe(name, value)


def snapshot_delta(before: dict, after: dict) -> dict:
    """The activity between two :meth:`MetricsRegistry.snapshot` calls.

    Counters and histogram count/total subtract; min/max report the
    ``after`` bounds (the union window).  Entries with zero activity
    are dropped so a delta only names what actually happened.
    """
    counters = {}
    for name, value in after.get("counters", {}).items():
        delta = value - before.get("counters", {}).get(name, 0)
        if delta:
            counters[name] = delta
    histograms = {}
    for name, data in after.get("histograms", {}).items():
        base = before.get("histograms", {}).get(
            name, {"count": 0, "total": 0.0})
        count = data["count"] - base["count"]
        if count:
            histograms[name] = {
                "count": count,
                "total": data["total"] - base["total"],
                "min": data["min"],
                "max": data["max"],
            }
    return {"counters": counters, "histograms": histograms}


def _flatten_ints(prefix: str, mapping: dict, into: dict) -> None:
    for key, value in mapping.items():
        if isinstance(value, bool):
            continue
        if isinstance(value, int):
            into[f"{prefix}.{key}"] = value
        elif isinstance(value, dict):
            _flatten_ints(f"{prefix}.{key}", value, into)


def cache_metrics(stats: dict | None = None) -> dict[str, int]:
    """The cache hierarchy's counters as flat sorted metric names.

    ``cache.l1.hits``, ``cache.l1.symmetry.misses``,
    ``cache.l2.publishes``, ``cache.l3.entries``, ... — one namespace
    shared with the registry counters, pulled live from
    :func:`repro.perf.stats.hierarchy_stats` (or flattened from a
    ``stats`` snapshot in that shape).
    """
    if stats is None:
        from repro.perf.stats import hierarchy_stats

        stats = hierarchy_stats()
    flat: dict[str, int] = {}
    for level in ("l1", "l2", "l3"):
        counters = dict(stats[level])
        sub_caches = counters.pop("caches", None)
        _flatten_ints(f"cache.{level}", counters, flat)
        if sub_caches:
            _flatten_ints(f"cache.{level}", sub_caches, flat)
    return dict(sorted(flat.items()))


def split_performance(counters: dict) -> tuple[dict, dict]:
    """Split a counter mapping into (logical, performance) parts.

    Performance counters are the :data:`PERFORMANCE_PREFIXES`
    namespaces; everything else is logical.  Key order is preserved.
    """
    logical: dict = {}
    performance: dict = {}
    for name, value in counters.items():
        target = performance if name.startswith(PERFORMANCE_PREFIXES) \
            else logical
        target[name] = value
    return logical, performance


def backend_metrics() -> dict[str, int]:
    """The live ``backend.*`` performance counters, flat and sorted."""
    counters = _default_registry.snapshot()["counters"]
    return dict(sorted(split_performance(counters)[1].items()))


def l1_snapshot() -> dict[str, dict[str, int]]:
    """Nested integer counters of the L1 congruence/round caches.

    :func:`l1_delta` of two snapshots is the L1 activity of the code
    run between them.
    """
    from repro.perf import cache_stats

    return {
        name: {key: value for key, value in counters.items()
               if isinstance(value, int) and not isinstance(value, bool)}
        for name, counters in cache_stats().items()
        if isinstance(counters, dict)
    }


def l1_delta(before: dict, after: dict) -> dict:
    """Per-run difference of two :func:`l1_snapshot` calls."""
    return {
        name: {key: value - before.get(name, {}).get(key, 0)
               for key, value in counters.items()}
        for name, counters in after.items()
    }


def render_snapshot(snapshot: dict, header: str = "metrics:") -> str:
    """Stable sorted ``name = value`` rendering of a snapshot."""
    lines = [header]
    for name in sorted(snapshot.get("counters", {})):
        lines.append(f"  {name} = {snapshot['counters'][name]}")
    for name in sorted(snapshot.get("histograms", {})):
        data = snapshot["histograms"][name]
        lines.append(
            f"  {name} count={data['count']} total={data['total']:.6f} "
            f"min={data['min']} max={data['max']}")
    return "\n".join(lines)


def render_cache_metrics(flat: dict[str, int] | None = None,
                         backend: dict[str, int] | None = None) -> str:
    """One stable sorted rendering of the L1/L2/L3 counters.

    Replaces the CLI's bespoke per-command cache printers: every
    ``--cache-stats`` flag routes through here.  Live (no-argument)
    calls also report the ``backend.*`` performance counters in their
    own section; explicit ``flat`` callers keep the historical
    cache-only output unless they pass ``backend`` too.
    """
    if flat is None:
        flat = cache_metrics()
        if backend is None:
            backend = backend_metrics()
    lines = ["cache hierarchy:"]
    for name in sorted(flat):
        lines.append(f"  {name} = {flat[name]}")
    if backend:
        lines.append("backend:")
        for name in sorted(backend):
            lines.append(f"  {name} = {backend[name]}")
    return "\n".join(lines)


def metrics_artifact(snapshot: dict | None = None,
                     extra: dict | None = None) -> dict:
    """The schema-versioned payload behind ``--metrics PATH``."""
    snapshot = snapshot if snapshot is not None \
        else _default_registry.snapshot()
    logical, performance = split_performance(snapshot.get("counters", {}))
    backend = snapshot.get("backend")
    if backend is None:
        backend = dict(sorted(performance.items()))
    payload = {
        "schema": METRICS_SCHEMA_VERSION,
        "kind": "metrics-snapshot",
        "counters": logical,
        "histograms": snapshot.get("histograms", {}),
        "cache": cache_metrics(),
        "backend": backend,
    }
    if extra:
        payload.update(extra)
    return payload


def write_metrics(path, snapshot: dict | None = None,
                  extra: dict | None = None) -> dict:
    """Write :func:`metrics_artifact` to ``path`` as sorted JSON."""
    import json
    from pathlib import Path

    payload = metrics_artifact(snapshot, extra)
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
    return payload
