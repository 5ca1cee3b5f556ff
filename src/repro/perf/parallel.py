"""One process pool for experiment trials, campaign cells and queries.

The experiment drivers validate the paper's claims by randomized
adversary sweeps: many independent trials, each seeded from its own
``SeedSequence`` child stream.  Trials share no mutable state, so they
map onto a process pool — *provided* the fan-out cannot change the
answer.  Three rules make results bit-identical for any worker count:

* **per-trial seeding** — ``SeedSequence(seed).spawn(n)`` gives every
  trial a statistically independent stream determined by ``(seed,
  trial index)`` alone; nothing is drawn from a shared generator whose
  consumption order would depend on scheduling.  (The earlier
  ``default_rng(seed + t)`` convention collided across adjacent
  experiment seeds — ``seed=1, t=2`` and ``seed=2, t=1`` shared a
  stream.)
* **per-trial L1 reset** — each trial starts from empty congruence
  caches, so a trial's float noise (conjugated cache hits vs direct
  computation) does not depend on which trials happened to run in the
  same worker before it.
* **exact-key L2** — each worker's store (:mod:`repro.perf.shared`)
  is keyed by digests of exact input bytes and holds only pure
  functions of those bytes, so whether an earlier task in the same
  worker computed a value is unobservable in the results.

**The pool.**  :func:`process_pool` is the one place a
``ProcessPoolExecutor`` is built: ``jobs`` workers, each given its
own L2 store by the pool initializer.  Its lifetime is the caller's
scope — one :func:`parallel_map` call, one campaign run
(:mod:`repro.campaign.runner`), one query server's life
(:mod:`repro.serve.dispatch`).  On exit it cancels the tasks not yet
started and lets the workers finish and exit.

**The task.**  Every task, pooled or inline, runs through
:func:`worker_task`: ``fn`` over a list of items, L1 cleared before
each item when the caller's rule says so (every trial, every cell,
run queries only), and a failure returned as the worker traceback
instead of raised across the pipe.  A pooled task also returns the
change in its worker's L2 counters, which the parent folds into its
own (:func:`task_values`, the serve dispatcher).  Trials and cells
also ship back their logical-metric delta (:mod:`repro.obs.metrics`);
the parent merges it, so the ``--jobs 1`` and ``--jobs N`` registries
report identical counters.  Query workers keep their metric counters.

:func:`parallel_map` sends four pickled chunks of items per worker.
A raising trial surfaces as :class:`SimulationError` with the worker
traceback in the message (:func:`task_values`); :func:`process_pool`
re-raises a hard worker death (``BrokenProcessPool``) as the same
error type.
"""

from __future__ import annotations

import math
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from typing import Any, Iterator

import numpy as np

from repro.errors import SimulationError

__all__ = ["parallel_map", "process_pool", "seeded_trials", "spawn_seeds",
           "task_values", "worker_task"]


def spawn_seeds(seed: int, count: int) -> list[np.random.SeedSequence]:
    """One independent ``SeedSequence`` child per trial.

    The exact contract (pinned by a regression test): child ``t`` is
    ``SeedSequence(seed).spawn(count)[t]``, i.e. it carries
    ``entropy == seed`` and ``spawn_key == (t,)``.  Children of
    *adjacent* parent seeds therefore never collide — unlike the
    naive ``default_rng(seed + t)``, where trial ``t`` of seed ``s``
    is trial ``t-1`` of seed ``s+1``.
    """
    from repro.obs import metrics as _metrics

    _metrics.inc("seeds.spawned", int(count))
    return list(np.random.SeedSequence(int(seed)).spawn(int(count)))


def worker_task(fn, items: list, *, fresh_l1: bool, ship_delta: bool,
                ) -> tuple[bool, Any, dict | None, dict | None]:
    """The pool's one task entry point: ``[fn(x) for x in items]``.

    Returns ``(True, values, delta, l2)``, or ``(False,
    traceback_text, delta, l2)`` for the first item that raised (the
    rest are skipped).  ``fresh_l1`` clears the L1 congruence caches
    before every item.  ``delta`` is the task's metric activity — the
    difference of registry snapshots around it — when ``ship_delta``,
    else ``None``; merge is commutative addition, so merged totals
    equal inline totals for any chunking.  ``l2`` is the change in
    this process's L2 counters over the task, ``None`` where no store
    is active (every path but a pool worker).  Runs in pool workers
    and, for the inline reference paths, in the calling process.
    """
    from repro import perf
    from repro.obs import metrics as _metrics
    from repro.perf import shared

    before = _metrics.registry().snapshot() if ship_delta else None
    l2_before = shared.counts()
    values: Any = []
    try:
        for item in items:
            if fresh_l1:
                perf.clear_caches()
            values.append(fn(item))
        ok = True
    except Exception as exc:  # noqa: BLE001 — reported to the parent
        ok, values = False, (f"{type(exc).__name__}: {exc}\n"
                             f"{traceback.format_exc()}")
    delta = None if before is None else _metrics.snapshot_delta(
        before, _metrics.registry().snapshot())
    l2 = None if l2_before is None else {
        field: value - l2_before[field]
        for field, value in shared.counts().items()}
    return ok, values, delta, l2


def task_values(outcome: tuple[bool, Any, dict | None, dict | None],
                what: str) -> list:
    """The values of a finished :func:`worker_task`.

    Merges the task's shipped metric delta and L2 counter change into
    this process, then raises :class:`SimulationError` with the worker
    traceback if the task failed (``what`` names it in the message).
    """
    from repro.perf import shared

    ok, value, delta, l2 = outcome
    if delta:
        from repro.obs import metrics as _metrics

        _metrics.registry().merge(delta)
    shared.merge_counts(l2)
    if not ok:
        raise SimulationError(f"{what} failed in worker:\n{value}")
    return value


def _worker_init() -> None:
    """Pool initializer: give this worker its own L2 store."""
    from repro.perf import shared

    shared.activate()


@contextmanager
def process_pool(jobs: int) -> Iterator[ProcessPoolExecutor]:
    """``with process_pool(jobs) as pool:`` — ``jobs`` worker
    processes, each with its own L2 store, for the block's lifetime.

    Submit :func:`worker_task` calls to the executor.  Leaving the
    block cancels tasks not yet started and waits for running ones and
    the workers' exit.  A worker death breaks the pool for good: every
    later result or submit raises ``BrokenProcessPool``, which leaves
    the block as :class:`SimulationError`.  Nothing is respawned.
    """
    pool = ProcessPoolExecutor(max_workers=max(1, int(jobs)),
                               initializer=_worker_init)
    try:
        yield pool
    except BrokenProcessPool as exc:
        raise SimulationError(
            "pool worker process died unexpectedly "
            "(crash or out-of-memory kill)") from exc
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def parallel_map(fn, items, jobs: int = 1) -> list:
    """``[fn(x) for x in items]`` over a process pool, order preserved.

    ``fn`` must be picklable (a module-level function) and runs once
    per item, after an L1 reset.  ``jobs <= 1`` runs inline — the same
    :func:`worker_task`, no pool, no L2 store — so a sequential run is
    the byte-exact reference for any parallel one.  Pooled runs send
    four chunks of items per worker.
    """
    items = list(items)
    jobs = max(1, int(jobs))
    if jobs == 1 or len(items) <= 1:
        # Inline: increments land on this process's registry directly,
        # so no delta is shipped to be merged a second time.
        return task_values(worker_task(fn, items, fresh_l1=True,
                                       ship_delta=False),
                           "experiment trial")

    size = math.ceil(len(items) / (4 * jobs))
    with process_pool(jobs) as pool:
        futures = [pool.submit(worker_task, fn, items[i:i + size],
                               fresh_l1=True, ship_delta=True)
                   for i in range(0, len(items), size)]
        outcomes = [future.result() for future in futures]
    return [value for outcome in outcomes
            for value in task_values(outcome, "experiment trial")]


def seeded_trials(fn, trials: int, *, seed: int = 0,
                  jobs: int = 1) -> list:
    """Run ``fn(stream_t)`` for ``t in range(trials)``, fanned out.

    ``stream_t`` is the ``t``-th ``SeedSequence`` child of ``seed``
    (``entropy == seed``, ``spawn_key == (t,)``, see
    :func:`spawn_seeds`) — pass it to ``np.random.default_rng``.
    Results come back ordered by ``t`` and are bit-identical for any
    ``jobs`` value.
    """
    return parallel_map(fn, spawn_seeds(seed, trials), jobs=jobs)
