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

This module also hosts the **incremental γ(P)** path
(:func:`prime_symmetry`): between two FSYNC rounds the scheduler holds
the same robots in the same index order, so when the round's
displacement is *coherent* — every radius shell scaled uniformly about
the center plus one common rotation, certified by a Kabsch solve whose
residual stays under the motion slack — the new configuration's group
is exactly the previous round's certified group conjugated by that
rotation.  The conjugate is batch-verified element-by-element and
seeded into the L1 congruence cache, replacing the full re-detection
the next round's ``n`` observations would otherwise trigger.  Toggle
with ``REPRO_INCREMENTAL_GAMMA=0`` / :func:`set_incremental`.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.geometry.rotations import kabsch

__all__ = [
    "RoundView",
    "cached_equivariant_points",
    "cached_invariant",
    "clear_round_cache",
    "incremental_enabled",
    "prime_symmetry",
    "round_cache_bytes",
    "round_stats",
    "round_view",
    "set_incremental",
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


# ----------------------------------------------------------------------
# Incremental γ(P) across rounds
# ----------------------------------------------------------------------
_INCREMENTAL_ENV = "REPRO_INCREMENTAL_GAMMA"
_incremental = os.environ.get(_INCREMENTAL_ENV, "1") != "0"


def set_incremental(flag: bool) -> None:
    """Enable or disable incremental γ(P) priming between rounds."""
    global _incremental  # reprolint: disable=REP003 -- audited lifecycle singleton: incremental-gamma toggle, rebound only by set_incremental()
    _incremental = bool(flag)


def incremental_enabled() -> bool:
    """True when round-to-round γ(P) priming is active."""
    return _incremental


def prime_symmetry(prev_config, new_config) -> bool:
    """Carry the previous round's certified ``γ(P)`` across one move.

    Called by the FSYNC scheduler with the configurations before and
    after a round (same robots, same index order).  When the previous
    world-frame report is at hand — computed earlier, or an L1 probe
    hit — and the displacement is coherent (see
    :func:`_conjugated_report`), the conjugated group is verified,
    seeded into the L1 cache and planted on ``new_config``, so neither
    the stop condition nor the next round's ``n`` robot observations
    re-detect from scratch.  Returns True iff priming succeeded; any
    guard failure simply falls back to the normal detection path.

    Soundness: coherence certifies that every radius shell of the new
    configuration is one uniformly scaled, commonly rotated shell of
    the previous one (bijectively).  Any rotation ``T`` preserving the
    new configuration then preserves each new shell, hence — after
    undoing the common rotation — each previous shell, hence the
    previous configuration: ``γ(new) = R γ(prev) Rᵀ``.  The conjugate
    is additionally batch-verified point-by-point before use, exactly
    like every other L1 hit.
    """
    from repro.perf import cache as _cache

    if not (_cache.is_enabled() and _incremental):
        return False
    prev_report = prev_config.__dict__.get("symmetry")
    if prev_report is None:
        prev_report = _cache.probe_symmetry(
            prev_config.points, prev_config.tol, ball=prev_config.ball)
    if (prev_report is None or prev_report.kind != "finite"
            or prev_report.group is None or prev_report.group.order == 1
            or prev_report.has_multiplicity
            or new_config.n != prev_config.n
            or new_config.tol != prev_config.tol):
        return False
    primed = _conjugated_report(prev_config, prev_report, new_config)
    _cache.note_incremental(primed is not None)
    if primed is None:
        return False
    new_config.__dict__["symmetry"] = primed
    return True


def _conjugated_report(prev_config, prev_report, new_config):
    """The seeded finite report of ``new_config``, or None.

    Guards, in order: the new configuration is finite-kind with all
    points distinct and the same center occupancy; its radius shells
    are in size-preserving bijection with the previous round's (each
    new shell gathers exactly one whole previous shell — a merge,
    split or center crossing falls back, since those can genuinely
    change the group); the shell-normalized displacement is one common
    rotation with Kabsch residual under the motion slack; and the
    conjugated group verifies against the new multiset.
    """
    from repro.groups import detection as _detection
    from repro.perf import cache as _cache

    tol = new_config.tol
    n = new_config.n
    pre = _detection._prepare_multiset(new_config.points, tol,
                                       ball=new_config.ball)
    if len(pre.rel) != n or int(pre.mults.max()) != 1:
        return None
    report = _detection._base_report(pre, tol)
    if (report.kind != "finite"
            or report.center_occupied != prev_report.center_occupied):
        return None

    prev_rel = prev_config.as_array() - prev_config.center
    prev_radii = np.linalg.norm(prev_rel, axis=1)
    prev_slack = tol.geometric_slack(float(prev_config.radius))
    ones = np.ones(n, dtype=np.int64)
    p_idx, p_bounds = _detection._shell_slices(prev_radii, ones,
                                               prev_slack)
    n_idx, n_bounds = _detection._shell_slices(pre.radii, pre.mults,
                                               pre.slack)
    if (len(p_bounds) != len(n_bounds) or p_idx.size != n_idx.size
            or not np.array_equal(np.sort(p_idx), np.sort(n_idx))):
        return None

    shell_of_prev = np.full(n, -1, dtype=np.int64)
    for k in range(len(p_bounds) - 1):
        shell_of_prev[p_idx[p_bounds[k]:p_bounds[k + 1]]] = k
    scale_of = np.ones(n)
    for k in range(len(n_bounds) - 1):
        members = n_idx[n_bounds[k]:n_bounds[k + 1]]
        sources = np.unique(shell_of_prev[members])
        if sources.size != 1 or sources[0] < 0:
            return None
        source = int(sources[0])
        if len(members) != int(p_bounds[source + 1] - p_bounds[source]):
            return None
        scale_of[members] = (float(pre.radii[members].mean())
                             / float(prev_radii[members].mean()))

    off = np.sort(p_idx)
    src = prev_rel[off]
    dst = pre.rel[off] / scale_of[off, None]
    rotation = kabsch(src, dst)
    residual = np.linalg.norm(src @ rotation.T - dst, axis=1)
    if float(residual.max()) > tol.motion_slack(float(pre.ball.radius)):
        return None

    group = prev_report.group.transformed(rotation)
    verifier = _detection._BatchVerifier(pre.rel, pre.mults,
                                         20 * pre.slack)
    if not bool(verifier(np.stack(group.elements)).all()):
        return None
    return _cache.seed_symmetry(pre, report, tol, group)


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
