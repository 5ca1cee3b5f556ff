"""Shared infrastructure for the three-level cache hierarchy.

Two things live here because every level needs them:

* **Exact-byte digests.**  :func:`exact_digest` hashes the raw bytes
  of its operands (array buffers included, dtype/shape tagged) into a
  fixed-size key.  L2 and L3 key *only* on such digests: a stored
  value is a pure deterministic function of the key's preimage, so the
  key → value map is independent of which process (or which past run)
  computed it — the determinism argument for the whole hierarchy (see
  ``docs/PERFORMANCE.md``, "Cache hierarchy").
* **Uniform counters.**  :func:`hierarchy_stats` assembles one
  ``{"l1": ..., "l2": ..., "l3": ...}`` snapshot with ``hits`` /
  ``misses`` / ``evictions`` / ``bytes`` per level, pulling the L1
  numbers from the in-process congruence/round caches, the L2 numbers
  from the pool workers' stores, and the L3 numbers from the on-disk
  store.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = [
    "exact_digest",
    "group_digest",
    "hierarchy_stats",
]

_SEPARATOR = b"\x1f"


def exact_digest(*parts) -> bytes:
    """16-byte blake2b digest over the exact bytes of ``parts``.

    Arrays contribute their dtype, shape and raw buffer; floats are
    hashed via their IEEE-754 representation (``np.float64`` bytes),
    so two keys are equal iff every operand is bit-identical.
    """
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        if isinstance(part, np.ndarray):
            arr = np.ascontiguousarray(part)
            h.update(str(arr.dtype).encode())
            h.update(str(arr.shape).encode())
            h.update(arr.tobytes())
        elif isinstance(part, bytes):
            h.update(part)
        elif isinstance(part, str):
            h.update(part.encode())
        elif isinstance(part, (float, np.floating)):
            h.update(np.float64(part).tobytes())
        elif isinstance(part, (int, bool, np.integer)):
            h.update(str(int(part)).encode())
        elif isinstance(part, (tuple, list)):
            h.update(b"(")
            h.update(exact_digest(*part))
            h.update(b")")
        elif part is None:
            h.update(b"none")
        else:
            # repr()/str() of floats is locale/precision hazard; any new
            # key part must get an explicit exact-byte branch above.
            raise TypeError(
                f"exact_digest: no exact-byte encoding for "
                f"{type(part).__name__!r} operands")
        h.update(_SEPARATOR)
    return h.digest()


def group_digest(group) -> bytes:
    """Digest of a concrete :class:`RotationGroup` arrangement.

    Includes the exact element stack *and* the derived axis data
    (directions, folds, orientation and occupancy flags): a cache hit
    served by the L1 congruence cache carries a *conjugated* group
    whose float noise depends on the alignment rotation, and any L2/L3
    value derived from the group must be keyed by those exact bytes,
    never by the group's abstract type alone.
    """
    axes = group.axes
    if axes:
        directions = np.asarray([a.direction for a in axes], dtype=float)
        meta = np.asarray(
            [(a.fold, int(a.oriented), int(a.occupied)) for a in axes],
            dtype=np.int64)
    else:
        directions = np.zeros((0, 3))
        meta = np.zeros((0, 3), dtype=np.int64)
    return exact_digest(b"group", group._stack, directions, meta)


def _l1_level() -> dict:
    from repro.perf import cache as _cache
    from repro.perf import round as _round

    stats = _cache.cache_stats()
    caches = {name: dict(stats[name])
              for name in ("symmetry", "symmetricity", "subgroups", "round")}
    level = {"hits": 0, "misses": 0, "evictions": 0}
    for counters in caches.values():
        for field in level:
            level[field] += counters.get(field, 0)
    level["bytes"] = _cache.cache_bytes() + _round.round_cache_bytes()
    level["caches"] = caches
    return level


def hierarchy_stats() -> dict:
    """One snapshot covering all three cache levels."""
    from repro.perf.disk import l3_stats
    from repro.perf.shared import l2_stats

    return {"l1": _l1_level(), "l2": l2_stats(), "l3": l3_stats()}
