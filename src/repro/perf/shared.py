"""L2 — the cross-process read-mostly shared-memory store.

One ``multiprocessing.shared_memory`` segment shared by every worker
of a parallel experiment run.  The segment is an append-only log with
a fixed header::

    [magic u64][capacity u64][entry_count u64][data_end u64]
    [aggregated stats: 7 x u64]
    ... 4096-byte header boundary ...
    [key_len u64][payload_len u64][writer_pid u64][key][payload] ...

* **Copy-on-miss, single-writer publication.**  A worker that misses
  computes the value itself, then appends it under the store lock —
  checking first whether a sibling already published the key, so each
  key is written at most once.  Published records are immutable, which
  is why readers can scan the log outside the lock.
* **Determinism.**  Keys are digests of *exact input bytes*
  (:func:`repro.perf.stats.exact_digest`) and every stored value is a
  pure deterministic function of the key's preimage.  The key → value
  map is therefore independent of worker count and publication order:
  a race can only duplicate work, never change a value, so experiment
  rows stay bit-identical for any ``--jobs``.
* **Read-mostly by construction.**  Each process keeps a local index
  (key → offset) and a scan cursor; lookups after the first scan touch
  no locks at all.

Capacity defaults to 32 MiB (``REPRO_L2_BYTES`` overrides).  A full
segment rejects further publications (counted) — computation always
proceeds locally.
"""

from __future__ import annotations

import os
import pickle
import struct
from multiprocessing import shared_memory

__all__ = [
    "SharedStore",
    "activate",
    "active_store",
    "l2_stats",
    "shared_get_or_compute",
]

_MAGIC = 0x5250_524F_4C32_0001  # "RPRO L2", versioned
_HEADER_BYTES = 4096
_U64 = struct.Struct("<Q")
_RECORD_HEAD = struct.Struct("<QQQ")

_OFF_MAGIC = 0
_OFF_CAPACITY = 8
_OFF_COUNT = 16
_OFF_DATA_END = 24
_OFF_STATS = 32

_STAT_FIELDS = ("hits", "remote_hits", "misses", "publishes",
                "rejected", "bytes_served", "bytes_stored")

_DEFAULT_CAPACITY = 32 * 1024 * 1024
_ENV_CAPACITY = "REPRO_L2_BYTES"

_MISS = object()


def _zero_stats() -> dict:
    return {field: 0 for field in _STAT_FIELDS}


class SharedStore:
    """One shared segment plus this process's view of it."""

    def __init__(self, shm: shared_memory.SharedMemory, lock,
                 owner: bool) -> None:
        self._shm = shm
        self._lock = lock
        self._owner = owner
        self._buf = shm.buf
        self._index: dict[bytes, tuple[int, int, int]] = {}
        self._cursor = _HEADER_BYTES
        self.local = _zero_stats()

    # -- lifecycle -----------------------------------------------------
    @classmethod
    def create(cls, lock, capacity: int | None = None) -> "SharedStore":
        if capacity is None:
            capacity = int(os.environ.get(_ENV_CAPACITY, _DEFAULT_CAPACITY))
        capacity = max(capacity, 2 * _HEADER_BYTES)
        shm = shared_memory.SharedMemory(create=True, size=capacity)
        # From this line the segment exists in /dev/shm; a failure
        # before the caller owns the store would leak it, so header
        # initialization runs under a release-on-failure guard
        # (REP010).
        try:
            store = cls(shm, lock, owner=True)
            _U64.pack_into(shm.buf, _OFF_MAGIC, _MAGIC)
            _U64.pack_into(shm.buf, _OFF_CAPACITY, shm.size)
            _U64.pack_into(shm.buf, _OFF_COUNT, 0)
            _U64.pack_into(shm.buf, _OFF_DATA_END, _HEADER_BYTES)
            for i in range(len(_STAT_FIELDS)):
                _U64.pack_into(shm.buf, _OFF_STATS + 8 * i, 0)
        except BaseException:
            shm.close()
            shm.unlink()
            raise
        return store

    @classmethod
    def attach(cls, name: str, lock) -> "SharedStore":
        # Note on lifetime: the resource tracker's registration cache
        # is shared with forked pool workers (they inherit the tracker
        # socket), so an attaching worker must NOT unregister the name
        # — the owner's ``unlink`` performs the single unregistration.
        shm = shared_memory.SharedMemory(name=name)
        store = cls(shm, lock, owner=False)
        (magic,) = _U64.unpack_from(shm.buf, _OFF_MAGIC)
        if magic != _MAGIC:
            raise ValueError("shared store segment has wrong magic")
        return store

    @property
    def name(self) -> str:
        return self._shm.name

    def close(self) -> None:
        self._index.clear()
        self._buf = None
        try:
            self._shm.close()
        except (OSError, BufferError):
            pass

    def unlink(self) -> None:
        if self._owner:
            try:
                self._shm.unlink()
            except OSError:
                pass

    # -- log scanning --------------------------------------------------
    def _scan_to(self, end: int) -> None:
        buf = self._buf
        offset = self._cursor
        while offset + _RECORD_HEAD.size <= end:
            key_len, payload_len, pid = _RECORD_HEAD.unpack_from(buf, offset)
            key_start = offset + _RECORD_HEAD.size
            payload_start = key_start + key_len
            record_end = payload_start + payload_len
            if record_end > end:
                break  # partially published — next refresh picks it up
            key = bytes(buf[key_start:payload_start])
            self._index[key] = (payload_start, payload_len, pid)
            offset = record_end + (-record_end) % 8
        self._cursor = offset

    def _acquire(self, timeout: float = 5.0) -> bool:
        # Timeout-guarded: a worker killed mid-critical-section must
        # degrade the store to local computation, never deadlock the
        # run.  (Stats reads fall back to racy u64 reads, which is
        # harmless; publications are simply skipped.)
        return self._lock.acquire(timeout=timeout)

    def _refresh(self) -> None:
        if self._acquire(timeout=1.0):
            try:
                (end,) = _U64.unpack_from(self._buf, _OFF_DATA_END)
            finally:
                self._lock.release()
        else:
            (end,) = _U64.unpack_from(self._buf, _OFF_DATA_END)
        if end > self._cursor:
            self._scan_to(end)

    # -- the store API -------------------------------------------------
    def lookup(self, full_key: bytes):
        """The stored value, or the module-private miss sentinel."""
        entry = self._index.get(full_key)
        if entry is None:
            self._refresh()
            entry = self._index.get(full_key)
        if entry is None:
            return _MISS
        offset, length, pid = entry
        payload = bytes(self._buf[offset:offset + length])
        self.local["hits"] += 1
        if pid != os.getpid():
            self.local["remote_hits"] += 1
        self.local["bytes_served"] += length
        return pickle.loads(payload)

    def publish(self, full_key: bytes, payload: bytes) -> bool:
        """Append one record; False if raced away or out of space."""
        record_len = _RECORD_HEAD.size + len(full_key) + len(payload)
        if not self._acquire():
            self.local["rejected"] += 1
            return False
        try:
            (end,) = _U64.unpack_from(self._buf, _OFF_DATA_END)
            if end > self._cursor:
                self._scan_to(end)
            if full_key in self._index:
                return False  # a sibling won the race — identical value
            (capacity,) = _U64.unpack_from(self._buf, _OFF_CAPACITY)
            if end + record_len > capacity:
                self.local["rejected"] += 1
                return False
            _RECORD_HEAD.pack_into(self._buf, end,
                                   len(full_key), len(payload), os.getpid())
            key_start = end + _RECORD_HEAD.size
            payload_start = key_start + len(full_key)
            self._buf[key_start:payload_start] = full_key
            self._buf[payload_start:payload_start + len(payload)] = payload
            new_end = payload_start + len(payload)
            new_end += (-new_end) % 8
            (count,) = _U64.unpack_from(self._buf, _OFF_COUNT)
            _U64.pack_into(self._buf, _OFF_DATA_END, new_end)
            _U64.pack_into(self._buf, _OFF_COUNT, count + 1)
        finally:
            self._lock.release()
        self._index[full_key] = (payload_start, len(payload), os.getpid())
        self._cursor = max(self._cursor, new_end)
        self.local["publishes"] += 1
        self.local["bytes_stored"] += len(payload)
        return True

    def get_or_compute(self, kind: str, key: bytes, compute):
        full_key = kind.encode() + b":" + key
        value = self.lookup(full_key)
        if value is not _MISS:
            return value
        value = compute()
        self.local["misses"] += 1
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:  # noqa: BLE001 — unpicklable values stay local
            return value
        self.publish(full_key, payload)
        return value

    # -- statistics ----------------------------------------------------
    def flush_stats(self) -> None:
        """Fold this process's counters into the segment header."""
        if all(v == 0 for v in self.local.values()):
            return
        if not self._acquire(timeout=1.0):
            return  # keep local counters; try again at the next flush
        try:
            for i, field in enumerate(_STAT_FIELDS):
                offset = _OFF_STATS + 8 * i
                (current,) = _U64.unpack_from(self._buf, offset)
                _U64.pack_into(self._buf, offset,
                               current + self.local[field])
        finally:
            self._lock.release()
        self.local = _zero_stats()

    def aggregated_stats(self) -> dict:
        """Header counters plus this process's unflushed ones."""
        snapshot = {}
        locked = self._acquire(timeout=1.0)
        try:
            for i, field in enumerate(_STAT_FIELDS):
                (value,) = _U64.unpack_from(self._buf, _OFF_STATS + 8 * i)
                snapshot[field] = value + self.local[field]
            (snapshot["entries"],) = _U64.unpack_from(self._buf, _OFF_COUNT)
        finally:
            if locked:
                self._lock.release()
        return snapshot


# -- module-level plumbing ---------------------------------------------

_active: SharedStore | None = None

_cumulative = _zero_stats()
_cumulative["entries"] = 0
_cumulative["runs"] = 0


def activate(store: SharedStore) -> None:
    """Route :func:`shared_get_or_compute` through ``store``."""
    global _active  # reprolint: disable=REP003 -- audited lifecycle singleton: L2 store activation for the worker process
    _active = store


def active_store() -> SharedStore | None:
    return _active


def shared_get_or_compute(kind: str, key_parts: tuple, compute):
    """L2-or-local: compute through the active store when present.

    ``key_parts`` are digested with :func:`repro.perf.stats.exact_digest`;
    with no active store this is exactly ``compute()``.
    """
    store = _active
    if store is None:
        return compute()
    from repro.perf.stats import exact_digest

    return store.get_or_compute(kind, exact_digest(*key_parts), compute)


def accumulate_run(stats: dict) -> None:
    """Fold one finished run's aggregated counters into the totals."""
    for field in _STAT_FIELDS:
        _cumulative[field] += stats.get(field, 0)
    _cumulative["entries"] = stats.get("entries", 0)
    _cumulative["runs"] += 1


def l2_stats() -> dict:
    """Uniform counters for the hierarchy snapshot (cumulative)."""
    snapshot = dict(_cumulative)
    store = _active
    if store is not None:
        live = store.aggregated_stats()
        for field in _STAT_FIELDS:
            snapshot[field] += live[field]
        snapshot["entries"] = live["entries"]
    snapshot["bytes"] = (snapshot.pop("bytes_served")
                         + snapshot.pop("bytes_stored"))
    return snapshot
