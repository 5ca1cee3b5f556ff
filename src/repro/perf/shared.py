"""L2 — each pool worker's own store of exact-key results.

On an L1 miss, finite-group detection, ``ϱ(P)`` and subgroup
enumeration look their result up here under a digest of their exact
input bytes (:mod:`repro.perf.cache`).  The pool initializer
(:func:`repro.perf.parallel.process_pool`) gives every worker one
store, which lives as long as the worker: L1 is cleared before every
trial, campaign cell and run query, L2 is not, so a worker's later
tasks reuse what its earlier ones computed.  Nowhere else is a store
active — not on the inline ``jobs=1`` path, in-process runs or a
``--workers 0`` server — and there :func:`shared_get_or_compute` is
exactly ``compute()``.

* **Determinism.**  Keys are digests of *exact input bytes*
  (:func:`repro.perf.stats.exact_digest`) and every stored value is a
  pure deterministic function of the key's preimage, so whether a
  value was computed or served, and by which earlier task, is
  unobservable: rows stay bit-identical for any ``--jobs``.
* **Shared objects.**  The store holds the computed objects
  themselves, not copies.  A served value is the same object every
  time, so no caller may mutate it.
* **Bounded.**  An LRU over at most ``_MAX_ENTRIES`` entries;
  evictions are counted.

A worker's counters travel back to the pool's owner with each task's
outcome (:func:`repro.perf.parallel.worker_task`), and the owner folds
them in with :func:`merge_counts`.  So :func:`l2_stats` in the owner
counts its workers' activity.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

__all__ = [
    "activate",
    "counts",
    "l2_stats",
    "merge_counts",
    "shared_get_or_compute",
]

# Entries one worker keeps.  The paper grid stores a few hundred per
# worker; the bound only matters for a long-lived query server.
_MAX_ENTRIES = 1024

_FIELDS = ("hits", "misses", "evictions", "entries", "bytes")


def _zero_counts() -> dict:
    return dict.fromkeys(_FIELDS, 0)


def _retained_bytes(value) -> int:
    """Approximate bytes of the arrays ``value`` holds: group element
    stacks, counted as :func:`repro.perf.cache.cache_bytes` counts
    them for L1."""
    stack = getattr(value, "_stack", None)
    if isinstance(stack, np.ndarray):
        return stack.nbytes
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, dict):
        value = value.values()
    elif not isinstance(value, (list, tuple)):
        return 0
    return sum(_retained_bytes(item) for item in value)


class _Store:
    """One worker's LRU of computed values and its counters."""

    def __init__(self) -> None:
        self._entries: OrderedDict[bytes, tuple[object, int]] = \
            OrderedDict()
        self.counts = _zero_counts()

    def get_or_compute(self, key: bytes, compute):
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.counts["hits"] += 1
            return entry[0]
        value = compute()
        size = _retained_bytes(value)
        self._entries[key] = (value, size)
        self.counts["misses"] += 1
        self.counts["bytes"] += size
        while len(self._entries) > _MAX_ENTRIES:
            _, (_, dropped) = self._entries.popitem(last=False)
            self.counts["evictions"] += 1
            self.counts["bytes"] -= dropped
        self.counts["entries"] = len(self._entries)
        return value


_store: _Store | None = None

# What this process's pool workers reported, task by task.
_merged = _zero_counts()


def activate() -> None:
    """Give this process its own store (the pool initializer's job)."""
    global _store  # reprolint: disable=REP003 -- audited lifecycle singleton: the pool worker's L2 store, set once by the pool initializer
    _store = _Store()


def shared_get_or_compute(kind: str, key_parts: tuple, compute):
    """L2-or-local: compute through this worker's store when present.

    ``key_parts`` are digested with :func:`repro.perf.stats.exact_digest`
    under ``kind``; with no active store this is exactly ``compute()``.
    """
    store = _store
    if store is None:
        return compute()
    from repro.perf.stats import exact_digest

    return store.get_or_compute(
        kind.encode() + b":" + exact_digest(*key_parts), compute)


def counts() -> dict | None:
    """This process's own store counters, or None with no store."""
    store = _store
    return None if store is None else dict(store.counts)


def merge_counts(delta: dict | None) -> None:
    """Fold one worker task's counter change into this process."""
    for field, value in (delta or {}).items():
        _merged[field] += value


def l2_stats() -> dict:
    """Uniform counters for the hierarchy snapshot.

    Activity merged from this process's pool workers, plus its own
    store's where it is one.  ``entries`` and ``bytes`` are what the
    stores held after their last task; every miss stores its value,
    so ``publishes`` equals ``misses``.
    """
    snapshot = dict(_merged)
    own = counts()
    for field, value in (own or {}).items():
        snapshot[field] += value
    snapshot["publishes"] = snapshot["misses"]
    return snapshot
