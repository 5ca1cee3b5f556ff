"""Congruence-keyed memoization and the three-level cache hierarchy.

Every robot in the FSYNC model observes the *same* configuration up to
a similarity transform (its local frame rotates and scales the global
one), so within one Look–Compute–Move round the scheduler triggers
``n + 1`` symmetry detections of mutually congruent point sets.  The
caches in this package key results by a similarity-invariant signature
(:func:`repro.core.signatures.congruence_signature`), re-align the
stored canonical result onto the query with one certified rotation,
and therefore pay the full ``γ(P)`` / ``ϱ(P)`` cost only once per
congruence class per round.  Nothing is carried from one round to the
next: each round's configuration is looked up in L1 like any other
query, and detected afresh on a miss.

The package is organized as a cache hierarchy:

* **L1** (:mod:`repro.perf.cache`, :mod:`repro.perf.round`) — the
  in-process congruence and indexed-round caches;
* **L2** (:mod:`repro.perf.shared`) — each process-pool worker's own
  bounded store keyed by digests of exact input bytes, shared by the
  trials, cells and queries that worker runs;
* **L3** (:mod:`repro.perf.disk`) — an on-disk persistent store under
  ``.repro-cache/`` for cold-start artifacts (group catalog, subgroup
  lattices, pattern signatures), keyed by package version.

:mod:`repro.perf.parallel` holds the one process pool — experiment
trials, campaign cells and served queries all run on it, with pickled
inputs — and :func:`hierarchy_stats` snapshots uniform
hit/miss/eviction/bytes counters across all three levels.

See ``docs/PERFORMANCE.md`` for the design and the argument for why
congruence-invariant keys — and exact-byte keys within each pool
worker and across runs — are safe.
"""

from repro.perf.cache import (
    cache_bytes,
    cache_stats,
    cached_subgroups,
    cached_symmetricity,
    cached_symmetry,
    clear_caches,
    is_enabled,
    set_enabled,
)
from repro.perf.parallel import parallel_map, seeded_trials, spawn_seeds
from repro.perf.round import (
    cached_equivariant_points,
    cached_invariant,
    round_view,
)
from repro.perf.stats import hierarchy_stats

__all__ = [
    "cache_bytes",
    "cache_stats",
    "cached_equivariant_points",
    "cached_invariant",
    "cached_subgroups",
    "cached_symmetricity",
    "cached_symmetry",
    "clear_caches",
    "hierarchy_stats",
    "is_enabled",
    "parallel_map",
    "round_view",
    "seeded_trials",
    "set_enabled",
    "spawn_seeds",
]
