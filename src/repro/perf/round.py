"""Indexed congruence cache for once-per-round Compute hoisting.

Within one FSYNC Look–Compute–Move cycle every robot observes the
*same* world configuration through its own similarity transform (its
local frame), and — crucially — with the *same robot indexing*: entry
``j`` of every observation is robot ``j``.  The symmetry cache of
:mod:`repro.perf.cache` keys by congruence of point *multisets* and
therefore cannot answer index-sensitive questions (which robot goes
where); this module adds an **indexed** cache:

* an entry stores the first-seen configuration of a class in canonical
  form (center-relative, unit scale, **index order preserved**);
* a query is matched by solving the orthogonal Procrustes (Kabsch)
  problem on the indexed correspondence and *verifying* the resulting
  rotation point-by-point — a hit is certified, never heuristic, and
  because verification is per-index the alignment can never confuse a
  symmetric configuration's robots with their orbit siblings (the
  coset ambiguity that makes the multiset cache unusable here);
* payloads attached to an entry are either **invariant** (comparable
  tuples, orbit index lists, booleans — returned verbatim) or
  **equivariant point sets** (destination arrays — stored in the
  canonical frame and conjugated into the query's frame by the
  certified similarity).

The per-robot Compute of ``ψ_PF``'s embedding/matching phase and the
agreed orbit ordering are served through this cache, so their full
cost is paid once per congruence class per round while every robot
still decides from its own local observation (see
``docs/PERFORMANCE.md`` for the safety argument).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.geometry.rotations import kabsch

__all__ = [
    "RoundView",
    "cached_equivariant_points",
    "cached_invariant",
    "clear_round_cache",
    "round_cache_bytes",
    "round_stats",
    "round_view",
]

# Same retention bound as the congruence caches: a formation run
# touches a handful of classes per round; the bound only matters for
# long-lived processes sweeping many patterns.
_MAX_ENTRIES = 256


@dataclass
class _RoundEntry:
    """Canonical indexed data for one congruence class."""

    rel_unit: np.ndarray        # (n, 3), center-relative, unit scale
    radii_sorted: np.ndarray    # sorted point radii (prefilter)
    payloads: dict = field(default_factory=dict)


@dataclass(frozen=True)
class RoundView:
    """A certified alignment of a configuration onto a cache entry.

    ``rotation`` maps the entry's canonical points onto the query's
    unit-scaled relative points index-by-index; ``center``/``scale``
    complete the similarity into the query's raw coordinates.
    """

    entry: _RoundEntry
    rotation: np.ndarray
    center: np.ndarray
    scale: float

    def to_query(self, canonical: np.ndarray) -> np.ndarray:
        """Map canonical-frame points into the query's coordinates."""
        return self.center + self.scale * (canonical @ self.rotation.T)

    def to_canonical(self, points: np.ndarray) -> np.ndarray:
        """Map query-coordinate points into the canonical frame."""
        return ((np.asarray(points, dtype=float) - self.center)
                / self.scale) @ self.rotation


_round_cache: OrderedDict[tuple, list[_RoundEntry]] = OrderedDict()

_stats = {"hits": 0, "misses": 0, "bypass": 0, "evictions": 0}


def clear_round_cache() -> None:
    """Drop every indexed entry and reset the counters."""
    _round_cache.clear()
    for name in _stats:
        _stats[name] = 0


def round_stats() -> dict:
    """Hit/miss counters plus the number of retained entries."""
    snapshot = dict(_stats)
    snapshot["entries"] = sum(len(b) for b in _round_cache.values())
    return snapshot


def round_cache_bytes() -> int:
    """Approximate retained bytes across the indexed entries."""
    total = 0
    for bucket in _round_cache.values():
        for entry in bucket:
            total += entry.rel_unit.nbytes + entry.radii_sorted.nbytes
            for payload in entry.payloads.values():
                if isinstance(payload, np.ndarray):
                    total += payload.nbytes
    return total


def round_view(config) -> RoundView | None:
    """Find-or-create the indexed entry for ``config`` (certified).

    Returns None (bypass) when caching is disabled or the
    configuration is degenerate (zero radius: no frame to align).
    The view is memoized on the configuration object — every robot's
    Observation builds a fresh ``Configuration``, but one robot's
    Compute phase may consult several payloads of the same view.
    """
    from repro.perf import cache as _cache

    if not _cache.is_enabled():
        return None
    cached = getattr(config, "_round_view", None)
    if cached is not None:
        return cached if isinstance(cached, RoundView) else None

    center = config.center
    scale = float(config.radius)
    tol = config.tol
    if scale <= tol.abs_tol:
        _stats["bypass"] += 1
        config._round_view = False
        return None

    points = config.as_array()
    rel_unit = (points - center) / scale
    radii = np.linalg.norm(rel_unit, axis=1)
    radii_sorted = np.sort(radii)
    slack = 10.0 * tol.geometric_slack(1.0)

    key = (points.shape[0],
           (float(tol.abs_tol), float(tol.rel_tol)))
    bucket = _round_cache.get(key)
    if bucket is not None:
        for entry in bucket:
            if np.abs(entry.radii_sorted - radii_sorted).max() > slack:
                continue
            rotation = kabsch(entry.rel_unit, rel_unit)
            deviation = np.linalg.norm(
                entry.rel_unit @ rotation.T - rel_unit, axis=1)
            if deviation.max() > slack:
                continue
            _stats["hits"] += 1
            _round_cache.move_to_end(key)
            view = RoundView(entry=entry, rotation=rotation,
                             center=center, scale=scale)
            config._round_view = view
            return view

    _stats["misses"] += 1
    entry = _RoundEntry(rel_unit=rel_unit, radii_sorted=radii_sorted)
    if bucket is None:
        _round_cache[key] = [entry]
    else:
        bucket.append(entry)
    _round_cache.move_to_end(key)
    while len(_round_cache) > _MAX_ENTRIES:
        _, dropped = _round_cache.popitem(last=False)
        _stats["evictions"] += len(dropped)
    view = RoundView(entry=entry, rotation=np.eye(3),
                     center=center, scale=scale)
    config._round_view = view
    return view


def cached_invariant(view: RoundView | None, key: tuple, compute):
    """Serve a similarity-invariant payload (tuples / index lists).

    ``compute`` runs at most once per congruence class; its result must
    be immutable (or treated as such by every caller).
    """
    if view is None:
        return compute()
    if key in view.entry.payloads:
        return view.entry.payloads[key]
    payload = compute()
    view.entry.payloads[key] = payload
    return payload


def cached_equivariant_points(view: RoundView | None, key: tuple, compute):
    """Serve an equivariant ``(m, 3)`` point payload.

    ``compute`` returns points in the query's coordinates; they are
    stored in the canonical frame and conjugated back into any later
    query's frame by that query's certified similarity.
    """
    if view is None:
        return np.asarray(compute(), dtype=float)
    canonical = view.entry.payloads.get(key)
    if canonical is None:
        result = np.asarray(compute(), dtype=float)
        view.entry.payloads[key] = view.to_canonical(result)
        return result
    return view.to_query(canonical)
