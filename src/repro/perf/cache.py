"""The congruence-class caches behind :mod:`repro.perf`.

Three caches, all invalidated together by :func:`clear_caches`:

* **symmetry** — ``γ(P)`` reports keyed by congruence class.  An entry
  stores the detected group and the distinct points of the *first*
  configuration of the class (unit-scaled, center-relative: the
  canonical frame).  A query of the same class is served by finding one
  rotation ``R`` aligning the canonical points onto the query points
  (:func:`repro.groups.detection.align_rotation`) and conjugating the
  stored group by ``R``.  ``R`` is verified against the full multiset
  before use, so a cache hit is *certified*, never heuristic; when no
  alignment verifies, the query falls back to full detection and is
  added as a sibling entry under the same structural key.  Siblings
  are kept in least-recently-used order and capped at
  :data:`_MAX_SIBLINGS` per key.
* **symmetricity** — ``ϱ(P)`` results attached to symmetry entries.
  Specs are congruence invariants and are shared; witness arrangements
  are stored in the canonical frame, and a hit conjugates a spec's
  arrangements into the query's frame only when a caller reads them.
* **subgroups** — concrete subgroup lattices (in the order
  :func:`repro.groups.subgroups.enumerate_concrete_subgroups`
  documents) keyed by the exact element-key set of the group
  arrangement.

Keys contain only exact integers (plus the tolerance parameters);
continuous data is compared tolerantly per entry.  See
``docs/PERFORMANCE.md`` for why this split is load-bearing.

These caches are the **L1** level of the cache hierarchy.  On an L1
miss the finite-group detection and the ``ϱ(P)`` computation
additionally consult the pool worker's **L2** store
(:mod:`repro.perf.shared`) under digests of their *exact* input bytes
— the center-relative point array, the concrete group element stack
and axis data — so a worker's later trials, cells and queries reuse
the pure recomputation without ever sharing the history-dependent
(conjugation-noisy) L1 state.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.geometry.tolerance import Tolerance
from repro.groups import detection as _detection

__all__ = [
    "cache_bytes",
    "cache_stats",
    "cached_subgroups",
    "cached_symmetricity",
    "cached_symmetry",
    "clear_caches",
    "is_enabled",
    "set_enabled",
]

# Upper bound on retained congruence classes (and on memoized subgroup
# enumerations).  Formation runs touch a handful of classes per round;
# the bound only matters for long-lived processes scanning many
# patterns.
_MAX_CLASSES = 256

# Upper bound on sibling entries under one congruence key.  Perturbed
# inputs of one key each add a sibling that later queries rarely align
# onto, and a miss scans the whole bucket; the paper grid's trials
# hold at most 5 siblings per key.
_MAX_SIBLINGS = 16

_enabled = True

_symmetry_cache: OrderedDict[tuple, list] = OrderedDict()
_subgroup_cache: OrderedDict[tuple, list] = OrderedDict()

_stats = {
    "symmetry": {"hits": 0, "misses": 0, "bypass": 0, "evictions": 0},
    "symmetricity": {"hits": 0, "misses": 0},
    "subgroups": {"hits": 0, "misses": 0, "evictions": 0},
}


@dataclass
class _ClassEntry:
    """Canonical data for one congruence class of configurations."""

    support: _detection.UnitSupport
    group: object
    symmetricity: tuple | None = field(default=None)


def set_enabled(flag: bool) -> None:
    """Globally enable or disable the congruence caches."""
    global _enabled  # reprolint: disable=REP003 -- audited lifecycle singleton: cache enable flag, toggled only by set_enabled()
    _enabled = bool(flag)


def is_enabled() -> bool:
    """True when the congruence caches are active."""
    return _enabled


def clear_caches() -> None:
    """Drop every cached entry and reset the hit/miss counters."""
    from repro.perf.round import clear_round_cache

    _symmetry_cache.clear()
    _subgroup_cache.clear()
    clear_round_cache()
    for counters in _stats.values():
        for name in counters:
            counters[name] = 0


def cache_stats() -> dict:
    """Snapshot of cache effectiveness.

    Returns a plain dict (one sub-dict per cache with ``hits`` /
    ``misses`` counters, plus entry counts and the enabled flag) so
    callers — the CLI, the scheduler, tests — can diff snapshots
    without touching cache internals.
    """
    from repro.perf.round import round_stats

    snapshot = {name: dict(counters) for name, counters in _stats.items()}
    snapshot["symmetry"]["classes"] = sum(
        len(bucket) for bucket in _symmetry_cache.values())
    snapshot["subgroups"]["entries"] = len(_subgroup_cache)
    snapshot["round"] = round_stats()
    snapshot["enabled"] = _enabled
    return snapshot


def cache_bytes() -> int:
    """Approximate retained bytes across the congruence caches."""
    total = 0
    for bucket in _symmetry_cache.values():
        for entry in bucket:
            support = entry.support
            total += (support.rel.nbytes + support.mults.nbytes
                      + support.radii.nbytes + support.radii_sorted.nbytes)
            group = entry.group
            if group is not None:
                total += group._stack.nbytes
    for subgroups in _subgroup_cache.values():
        total += sum(sub._stack.nbytes for sub in subgroups)
    return total


def _trim(cache: OrderedDict, stats_key: str) -> None:
    counters = _stats[stats_key]
    while len(cache) > _MAX_CLASSES:
        _, dropped = cache.popitem(last=False)
        counters["evictions"] += (len(dropped)
                                  if stats_key == "symmetry" else 1)


def _tol_key(tol: Tolerance) -> tuple:
    return (float(tol.abs_tol), float(tol.rel_tol))


def cached_symmetry(support: _detection.Support):
    """``γ(P)`` of a :class:`~repro.groups.detection.Support`, memoized
    per congruence class.

    A stored class serves the query when
    :func:`~repro.groups.detection.congruent_rotation` certifies a
    rotation from the entry's canonical support onto the query's.
    Collinear and degenerate configurations bypass the cache — their
    reports are cheap (no candidate enumeration) and carry
    query-specific data (the line direction) anyway.
    """
    tol = support.tol
    report = _detection._base_report(support)
    if report.kind != "finite":
        if _enabled:
            _stats["symmetry"]["bypass"] += 1
        return report
    if not _enabled:
        return _detection._finish_finite_report(report, support, tol)

    unit = support.unit
    key = unit.key
    bucket = _symmetry_cache.get(key)
    if bucket is not None:
        for index, entry in enumerate(bucket):
            rotation = _detection.congruent_rotation(entry.support, unit)
            if rotation is None:
                continue
            _stats["symmetry"]["hits"] += 1
            _symmetry_cache.move_to_end(key)
            if index:
                bucket.insert(0, bucket.pop(index))
            report.group = entry.group.transformed(rotation)
            report._perf_entry = entry
            report._perf_rotation = rotation
            return report

    _stats["symmetry"]["misses"] += 1
    # L2: the detected group is a pure function of the exact
    # center-relative array, multiplicities, ball radius and
    # tolerance — a worker's later tasks observing byte-identical
    # world configurations reuse one detection.
    from repro.perf import shared as _shared

    report.group = _shared.shared_get_or_compute(
        "gamma",
        (b"gamma", support.rel, unit.mults, float(support.ball.radius),
         _tol_key(tol)),
        lambda: _detection._finish_finite_report(report, support,
                                                 tol).group)
    entry = _ClassEntry(support=unit, group=report.group)
    if bucket is None:
        _symmetry_cache[key] = [entry]
    else:
        bucket.insert(0, entry)
        if len(bucket) > _MAX_SIBLINGS:
            bucket.pop()
            _stats["symmetry"]["evictions"] += 1
    _symmetry_cache.move_to_end(key)
    _trim(_symmetry_cache, "symmetry")
    report._perf_entry = entry
    # The report's frame is the entry's canonical frame: no alignment.
    report._perf_rotation = None
    return report


class _ConjugatedWitnesses(Mapping):
    """The ``ϱ(P)`` witnesses of an L1 hit, conjugated on first read.

    Holds the class entry's canonical witnesses and the query's
    alignment rotation.  The first read of a spec conjugates that
    spec's arrangements (:meth:`RotationGroup.transformed`) and keeps
    them; most queries read none.  Two threads reading one spec at
    once (``workers=0`` serves on threads) may both conjugate: the
    lists are equal bit for bit, and ``setdefault`` keeps the first.
    """

    __slots__ = ("_canonical", "_rotation", "_read")

    def __init__(self, canonical: dict, rotation: np.ndarray) -> None:
        self._canonical = canonical
        self._rotation = rotation
        self._read: dict = {}

    def __getitem__(self, spec):
        arrangements = self._read.get(spec)
        if arrangements is None:
            arrangements = self._read.setdefault(spec, [
                w.transformed(self._rotation)
                for w in self._canonical[spec]])
        return arrangements

    def __contains__(self, spec) -> bool:
        return spec in self._canonical

    def __iter__(self):
        return iter(self._canonical)

    def __len__(self) -> int:
        return len(self._canonical)


def cached_symmetricity(config, report, tol: Tolerance, compute):
    """Serve ``ϱ(P)`` from the report's congruence-class entry.

    ``compute`` is the uncached finite-case implementation
    (dependency-injected to keep the import graph acyclic).  The first
    call of a class runs it and stores the result with witnesses
    rotated back into the canonical frame; later calls of the class
    share its specs and conjugate a spec's stored witnesses by the
    query's alignment rotation when a caller reads them
    (:class:`_ConjugatedWitnesses`).  A report that created its entry
    (an L1 miss, no alignment rotation) is in the canonical frame
    already: its witnesses are stored and served as they are.
    """
    entry = getattr(report, "_perf_entry", None)
    if not _enabled or entry is None:
        return compute(config, report, tol)
    from repro.core.symmetricity import Symmetricity

    rotation = report._perf_rotation
    if entry.symmetricity is None:
        _stats["symmetricity"]["misses"] += 1
        # L2 key: exact configuration bytes PLUS the exact (possibly
        # conjugated) group bytes — the L1-served report group carries
        # alignment noise, so the group's abstract type alone would
        # not determine the witness arrangements bit-exactly.
        from repro.perf import shared as _shared
        from repro.perf.stats import group_digest

        def _compute_stripped():
            result = compute(config, report, tol)
            return (frozenset(result.specs), tuple(result.maximal),
                    result.witnesses)
        specs, maximal, witnesses = _shared.shared_get_or_compute(
            "rho",
            (b"rho", config.as_array(), group_digest(report.group),
             _tol_key(tol)),
            _compute_stripped)
        result = Symmetricity(specs=set(specs), maximal=list(maximal),
                              witnesses=witnesses, report=report)
        if rotation is None:
            canonical_witnesses = witnesses
        else:
            inverse = rotation.T
            canonical_witnesses = {
                spec: [w.transformed(inverse) for w in arrangements]
                for spec, arrangements in witnesses.items()
            }
        entry.symmetricity = (frozenset(result.specs),
                              tuple(result.maximal),
                              canonical_witnesses)
        return result
    _stats["symmetricity"]["hits"] += 1
    specs, maximal, witnesses = entry.symmetricity
    if rotation is not None:
        witnesses = _ConjugatedWitnesses(witnesses, rotation)
    return Symmetricity(specs=set(specs), maximal=list(maximal),
                        witnesses=witnesses, report=report)


def _subgroups_via_l3(group, tol: Tolerance, compute) -> list:
    """L3 leg of the chain: persist catalog-group lattices on disk.

    Only groups built by :mod:`repro.groups.catalog` carry the
    ``_catalog_key`` marker — their element stacks are bit-stable
    across runs, so the enumeration is worth persisting.  Detected
    (noise-carrying) arrangements never reach the disk.
    """
    catalog_key = getattr(group, "_catalog_key", None)
    if catalog_key is None:
        return compute(group, tol)
    from repro.perf import disk as _disk
    from repro.perf.stats import exact_digest

    # The tag names the lattice's order (by subgroup order, then
    # element mask); entries written in any earlier order are never read.
    key = exact_digest(b"lattice-by-mask", catalog_key, group._stack,
                       _tol_key(tol))
    cached = _disk.disk_get_object("lattice", key)
    if cached is not None:
        return cached
    result = compute(group, tol)
    _disk.disk_put_object("lattice", key, result)
    return result


def cached_subgroups(group, tol: Tolerance, compute) -> list:
    """Memoize subgroup enumeration by the exact element-key set.

    Unlike the congruence caches this key is *arrangement*-exact
    (rounded element matrices), so it only deduplicates repeat
    enumerations of identical arrangements — e.g. the paper's tables,
    or re-detected canonical groups — without any alignment step.

    Misses go to the L3 disk store (catalog groups only), then to the
    enumeration itself: one bitmask pass over the Cayley table for
    ``T``, ``O``, ``I`` and ``D_2``, the known structure for cyclic and
    dihedral groups.  L2 keeps no lattices: on the paper grid it
    served one or two of about 50 lookups a pass.
    """
    if not _enabled:
        return compute(group, tol)
    key = (frozenset(group._element_keys), _tol_key(tol))
    cached = _subgroup_cache.get(key)
    if cached is not None:
        _stats["subgroups"]["hits"] += 1
        _subgroup_cache.move_to_end(key)
        return list(cached)
    _stats["subgroups"]["misses"] += 1
    result = _subgroups_via_l3(group, tol, compute)
    _subgroup_cache[key] = list(result)
    _trim(_subgroup_cache, "subgroups")
    return list(result)
