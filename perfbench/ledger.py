"""The per-layer ledger of a traced run.

:func:`install` wraps the program's public layer functions in spans and
binds each wrapper wherever a module holds the function by name (some
import them directly, e.g. ``pattern_formation`` imports
``embed_target``).  It must run before any process pool starts: pools
fork, so workers inherit the wrappers, and an after-fork hook gives
each worker an empty record that it writes out when it exits.  Every
process writes one ``spans-*.json`` file into the trace directory;
:func:`aggregate` turns the files into the per-layer metrics.

Spans are kept in memory as ``[name, start, end, parent]``.  A layer's
``.s`` metric is its self time: the span minus the time its child spans
cover.  ``round.*_s`` and ``pool.s`` are inclusive times (the phases of
a round and the parent's time inside ``parallel_map``).

``repro.perf.clear_caches`` zeroes the L1 counters at every trial, so it
is wrapped to bank them first.  L1 miss costs come from timing the L1
entry points on the calls that missed; ``l1.<c>.saved_s`` is hits times
the mean miss cost of the same run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from multiprocessing import util as mp_util
from pathlib import Path
from time import perf_counter

# (module, attribute, span name)
FUNCTIONS = (
    ("repro.groups.detection", "detect_rotation_group", "detect"),
    # With L1 on, a miss runs the finite-group detection directly.
    ("repro.groups.detection", "_finish_finite_report", "detect"),
    ("repro.groups.detection", "align_rotation", "align"),
    ("repro.core.decomposition", "orbit_decomposition", "decompose"),
    ("repro.core.local_views", "ordered_orbits", "order"),
    ("repro.core.local_views", "local_view", "order"),
    ("repro.robots.algorithms.embedding", "embed_target", "embed"),
    ("repro.robots.algorithms.matching", "match_configuration_to_pattern",
     "match"),
    ("repro.robots.algorithms.go_to_center", "go_to_center_destination",
     "goc"),
    ("repro.core.symmetricity", "symmetricity", "rho"),
    ("repro.core.symmetricity", "symmetricity_of_multiset", "rho"),
    ("repro.groups.subgroups", "enumerate_concrete_subgroups", "subgroups"),
)

# (module, class, method, span name)
METHODS = (
    ("repro.robots.scheduler", "FsyncScheduler", "step", "round"),
    ("repro.geometry.convex", "ConvexPolyhedron", "__init__", "hull"),
)

# The L1 entry points, timed to price a miss: (module, attribute, cache).
L1_ENTRIES = (
    ("repro.perf.cache", "cached_symmetry", "symmetry"),
    ("repro.perf.cache", "cached_symmetricity", "symmetricity"),
    ("repro.perf.cache", "cached_subgroups", "subgroups"),
    ("repro.perf.round", "cached_invariant", "round"),
    ("repro.perf.round", "cached_equivariant_points", "round"),
)

L1_CACHES = ("symmetry", "symmetricity", "subgroups", "round")
L1_FIELDS = ("hits", "misses", "incremental_hits", "incremental_fallbacks")

# The scheduler's own phase spans, recorded under these names.
PHASES = {"look": "round.look", "compute": "round.compute",
          "move": "round.move"}

# Modules imported before binding, so every by-name import is rebound.
_MODULES = (
    "repro.api", "repro.analysis.experiments", "repro.core",
    "repro.core.formability", "repro.groups", "repro.perf",
    "repro.perf.round", "repro.perf.disk", "repro.perf.shared",
    "repro.robots.algorithms", "repro.robots.algorithms.pattern_formation",
    "repro.robots.algorithms.sequence", "repro.robots.scheduler",
    "repro.planeformation.algorithm", "repro.obs.metrics",
    "repro.serve.worker",
)

COUNTERS = ("scheduler.rounds", "scheduler.batched_fallbacks",
            "backend.neighbor_index.dense", "backend.neighbor_index.kd",
            "backend.neighbor_index.dense_promotions")


def _l1_counters() -> dict:
    from repro.perf import cache_stats

    stats = cache_stats()
    return {f"{cache}.{field}": int(stats[cache].get(field, 0))
            for cache in L1_CACHES for field in L1_FIELDS
            if field in stats[cache]}


def _registry_counters() -> dict:
    from repro.obs.metrics import registry

    counters = registry().snapshot().get("counters", {})
    return {name: int(counters.get(name, 0)) for name in COUNTERS}


def _l2_counters() -> dict:
    from repro.perf.shared import l2_stats

    stats = l2_stats()
    return {"lookups": stats["hits"] + stats["misses"],
            "hits": stats["hits"], "publishes": stats["publishes"],
            "bytes": stats["bytes"]}


def l3_counters() -> dict:
    """This process's L3 hits, misses, writes and bytes so far."""
    from repro.perf.disk import l3_stats

    stats = l3_stats()
    return {key: int(stats[key])
            for key in ("hits", "misses", "writes", "bytes")}


def _minus(after: dict, before: dict) -> dict:
    return {key: value - before.get(key, 0) for key, value in after.items()}


class Recorder:
    """One process's spans and counter baselines."""

    def __init__(self, trace_dir: Path) -> None:
        self.trace_dir = Path(trace_dir)
        self.root_pid = os.getpid()
        self.reset()

    def reset(self) -> None:
        """Start an empty record (at install, and in every forked child)."""
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.l1_bank = {key: 0 for key in _l1_counters()}
        self.l1_base = _l1_counters()
        self.counter_base = _registry_counters()
        self.l2_base = _l2_counters()
        self.l3_base = l3_counters()
        self.miss_n = {cache: 0 for cache in L1_CACHES}
        self.miss_s = {cache: 0.0 for cache in L1_CACHES}
        self.pool_capacity_s = 0.0
        self.ran_pool_items = False

    def after_fork(self) -> None:
        self.reset()
        mp_util.Finalize(None, self.flush, exitpriority=10)

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self.stack.append(index)
        return index

    def close(self, index: int) -> float:
        end = perf_counter()
        span = self.spans[index]
        span[2] = end
        self.stack.pop()
        return end - span[1]

    def bank_l1(self) -> None:
        for key, value in _l1_counters().items():
            self.l1_bank[key] = self.l1_bank.get(key, 0) + value

    def flush(self) -> None:
        """Write this process's record to its own file."""
        l1 = {key: self.l1_bank.get(key, 0) + value
              - self.l1_base.get(key, 0)
              for key, value in _l1_counters().items()}
        root = os.getpid() == self.root_pid
        record = {
            "pid": os.getpid(),
            "root": root,
            # A forked parallel_map worker ships its counter delta to
            # the parent, which merges it: count it there only.
            "merged": self.ran_pool_items and not root,
            "spans": self.spans,
            "l1": l1,
            "miss_n": self.miss_n,
            "miss_s": self.miss_s,
            "counters": _minus(_registry_counters(), self.counter_base),
            "l2": _minus(_l2_counters(), self.l2_base) if root else {},
            "l3": _minus(l3_counters(), self.l3_base),
            "pool_capacity_s": self.pool_capacity_s,
        }
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        name = f"spans-{os.getpid()}-{os.urandom(4).hex()}.json"
        (self.trace_dir / name).write_text(json.dumps(record))
        self.spans = []


_RECORDER: Recorder | None = None


def _span_wrapper(original, name: str):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        rec = _RECORDER
        if rec.stack and rec.spans[rec.stack[-1]][0] == name:
            # A layer entered from itself is one call of that layer.
            return original(*args, **kwargs)
        index = rec.open(name)
        try:
            return original(*args, **kwargs)
        finally:
            rec.close(index)

    return wrapper


def _l1_wrapper(original, cache: str):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        rec = _RECORDER
        before = _l1_counters().get(f"{cache}.misses", 0)
        index = rec.open(f"l1.{cache}")
        try:
            return original(*args, **kwargs)
        finally:
            elapsed = rec.close(index)
            if _l1_counters().get(f"{cache}.misses", 0) > before:
                rec.miss_n[cache] += 1
                rec.miss_s[cache] += elapsed

    return wrapper


def _clear_wrapper(original):
    @functools.wraps(original)
    def clear_caches():
        _RECORDER.bank_l1()
        return original()

    return clear_caches


class TimedItem:
    """``fn`` with a ``pool.item`` span; picklable when ``fn`` is."""

    def __init__(self, fn) -> None:
        self.fn = fn

    def __call__(self, item):
        rec = _RECORDER
        rec.ran_pool_items = True
        index = rec.open("pool.item")
        try:
            return self.fn(item)
        finally:
            rec.close(index)


def _pool_wrapper(original):
    @functools.wraps(original)
    def parallel_map(fn, items, jobs=1, **kwargs):
        rec = _RECORDER
        items = list(items)
        index = rec.open("pool")
        try:
            return original(TimedItem(fn), items, jobs, **kwargs)
        finally:
            elapsed = rec.close(index)
            workers = max(1, int(jobs)) if len(items) > 1 else 1
            rec.pool_capacity_s += workers * elapsed

    return parallel_map


class _PhaseSpan:
    __slots__ = ("name", "index")

    def __init__(self, name: str) -> None:
        self.name = name

    def __enter__(self):
        self.index = _RECORDER.open(self.name)
        return self

    def __exit__(self, *exc) -> bool:
        _RECORDER.close(self.index)
        return False


class _PhaseTracer:
    """Stands in for the scheduler's tracer to record Look/Compute/Move."""

    enabled = True

    def __init__(self, null_span) -> None:
        self._null = null_span

    def span(self, name: str, **attrs):
        phase = PHASES.get(name)
        return _PhaseSpan(phase) if phase else self._null

    def phase_totals(self) -> dict:
        return {}

    def close(self) -> None:
        pass


def _rebind(original, wrapper) -> None:
    """Point every loaded ``repro`` module's reference at ``wrapper``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro"
                                  or module_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(trace_dir) -> Recorder:
    """Wrap every traced layer in this process and its future children."""
    global _RECORDER
    if _RECORDER is not None:
        raise RuntimeError("the ledger is already installed")
    for module_name in _MODULES:
        importlib.import_module(module_name)
    _RECORDER = Recorder(Path(trace_dir))

    for module_name, attr, name in FUNCTIONS:
        original = getattr(importlib.import_module(module_name), attr)
        _rebind(original, _span_wrapper(original, name))
    for module_name, attr, cache in L1_ENTRIES:
        original = getattr(importlib.import_module(module_name), attr)
        _rebind(original, _l1_wrapper(original, cache))
    for module_name, cls_name, method, name in METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        setattr(cls, method, _span_wrapper(getattr(cls, method), name))

    from repro.perf import cache as _cache
    from repro.perf import parallel as _parallel

    _rebind(_cache.clear_caches, _clear_wrapper(_cache.clear_caches))
    _rebind(_parallel.parallel_map, _pool_wrapper(_parallel.parallel_map))

    from repro.obs import trace as _trace
    from repro.robots import scheduler as _scheduler

    phases = _PhaseTracer(_trace.NULL_TRACER.span("null"))
    _scheduler.get_tracer = lambda: phases
    mp_util.register_after_fork(_RECORDER, Recorder.after_fork)
    return _RECORDER


def flush() -> None:
    """Write the calling process's record (the root process calls this)."""
    if _RECORDER is not None:
        _RECORDER.flush()


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

# Spans reported as ``<name>.calls`` and ``<name>.s`` (self time).
SPAN_LAYERS = ("detect", "align", "decompose", "order", "embed", "match",
               "goc", "hull", "rho", "subgroups")


def _span_totals(records: list[dict]) -> dict[str, dict]:
    totals: dict[str, dict] = {}
    for record in records:
        spans = record["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for index, (name, start, end, _parent) in enumerate(spans):
            entry = totals.setdefault(name, {"calls": 0, "total": 0.0,
                                             "self": 0.0})
            entry["calls"] += 1
            entry["total"] += end - start
            entry["self"] += end - start - child[index]
    return totals


def load_records(trace_dir) -> list[dict]:
    return [json.loads(path.read_text())
            for path in sorted(Path(trace_dir).glob("spans-*.json"))]


def aggregate(records: list[dict]) -> dict[str, float]:
    """The per-layer metrics of one traced measurement."""
    spans = _span_totals(records)

    def span(name: str, field: str) -> float:
        return spans.get(name, {}).get(field, 0)

    def summed(section: str, key: str, where=lambda r: True) -> float:
        return sum(r[section].get(key, 0) for r in records if where(r))

    def counter(name: str) -> int:
        return int(summed("counters", name, lambda r: not r["merged"]))

    out: dict[str, float] = {
        "round.count": counter("scheduler.rounds"),
        "round.look_s": span("round.look", "total"),
        "round.compute_s": span("round.compute", "total"),
        "round.move_s": span("round.move", "total"),
        "round.per_robot": counter("scheduler.batched_fallbacks"),
    }
    for name in SPAN_LAYERS:
        out[f"{name}.calls"] = int(span(name, "calls"))
        out[f"{name}.s"] = span(name, "self")
    for cache in L1_CACHES:
        hits = int(summed("l1", f"{cache}.hits"))
        misses = int(summed("l1", f"{cache}.misses"))
        priced = summed("miss_n", cache)
        mean_miss = summed("miss_s", cache) / priced if priced else 0.0
        out[f"l1.{cache}.hits"] = hits
        out[f"l1.{cache}.misses"] = misses
        out[f"l1.{cache}.saved_s"] = hits * mean_miss
    out["l1.symmetry.incremental_hits"] = int(
        summed("l1", "symmetry.incremental_hits"))
    out["l1.symmetry.incremental_fallbacks"] = int(
        summed("l1", "symmetry.incremental_fallbacks"))
    for key in ("lookups", "hits", "publishes", "bytes"):
        out[f"l2.{key}"] = int(summed("l2", key))
    for key in ("hits", "misses", "writes", "bytes"):
        out[f"l3.{key}"] = int(summed("l3", key))
    pool_s = span("pool", "total")
    item_s = span("pool.item", "total")
    capacity = sum(r["pool_capacity_s"] for r in records)
    out["pool.calls"] = int(span("pool", "calls"))
    out["pool.s"] = pool_s
    out["pool.item_s"] = item_s
    out["pool.efficiency"] = item_s / capacity if capacity else 0.0
    out["index.dense"] = counter("backend.neighbor_index.dense")
    out["index.kd"] = counter("backend.neighbor_index.kd")
    out["index.promotions"] = counter(
        "backend.neighbor_index.dense_promotions")
    return out
