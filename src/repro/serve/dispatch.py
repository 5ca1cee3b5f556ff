"""The dispatcher: where a query's CPU-bound kernel actually runs.

The event loop must never execute a symmetry detection itself — a
``γ(P)`` classification can take milliseconds to seconds, and one
slow query would stall every concurrent client.  :class:`Dispatcher`
hands each query to ``loop.run_in_executor`` as one
:func:`repro.perf.parallel.worker_task` call running
:func:`repro.serve.worker.run_query_task`:

* ``workers=0`` — over the loop's default thread executor.  The GIL
  means heavy numeric queries still steal cycles from the loop, but
  nothing *blocks* it — right for tests, development and the CLI's
  default.
* ``workers>0`` — over a :func:`repro.perf.parallel.process_pool`
  that lives as long as the server: long-lived worker processes, each
  with its own warm L2 store, the same pool the experiment trials and
  campaign cells run on.  Query points travel pickled.

Run queries clear L1 first (the campaign's per-cell rule); geometric
queries keep it warm.  Query workers keep their metric counters; each
answer brings back its worker's L2 counter change, which the server
folds into its own cache counters (``/v1/metrics`` ``cache.l2.*``).

A worker that dies breaks the pool for good: that query and every
later one answers 500 at once, :attr:`Dispatcher.broken` turns true
(``/v1/healthz`` reports ``broken``), and nothing is respawned — the
operator restarts the server.
"""

from __future__ import annotations

import asyncio
import functools
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack
from typing import Any, Mapping

from repro.errors import ServiceError

__all__ = ["Dispatcher"]


class Dispatcher:
    """Evaluate queries on ``workers`` processes, or on threads."""

    def __init__(self, workers: int) -> None:
        from repro.perf.parallel import process_pool

        self.broken = False
        self._resources = ExitStack()
        self._executor = (self._resources.enter_context(
            process_pool(workers)) if workers > 0 else None)

    async def dispatch(self, wire: Mapping[str, Any]) -> dict:
        """``{"status": 200, "result": ...}`` or ``{"status": 422,
        "error": ...}``; raises :class:`ServiceError` (500) when the
        worker fails."""
        from repro.perf import shared
        from repro.perf.parallel import worker_task
        from repro.serve.worker import run_query_task

        # A run's rows must not depend on which queries shared this
        # worker, so runs start from a cleared L1 (the campaign's
        # per-cell rule).  Geometric queries keep L1 warm: their
        # deterministic views are discrete (verdicts, group names).
        task = functools.partial(worker_task, run_query_task, [wire],
                                 fresh_l1=wire.get("kind") == "run",
                                 ship_delta=False)
        loop = asyncio.get_running_loop()
        try:
            future = loop.run_in_executor(self._executor, task)
            await asyncio.wait((future,))
            if future.cancelled():  # queued when the pool closed
                raise ServiceError("server shut down before the query "
                                   "completed", status=503)
            ok, value, _, l2 = future.result()
        except BrokenProcessPool:
            self.broken = True
            raise ServiceError("query worker process died; the pool is "
                               "broken until the server restarts",
                               status=500) from None
        shared.merge_counts(l2)
        if not ok:
            raise ServiceError(f"query worker failed:\n{value}",
                               status=500)
        payload: dict = value[0]
        return payload

    def close(self) -> None:
        """Release the pool: queued queries are cancelled, running ones
        finish, the workers exit.  Idempotent."""
        self._resources.close()
