"""The campaign runner: grid in, process pool through, store out.

:func:`run_campaign` is the one entrypoint behind ``repro campaign
run``.  Pipeline:

1. **Compile** — load the TOML/JSON spec and expand it into
   :class:`repro.campaign.spec.CampaignCell` grid points.
2. **Coalesce** — cells with equal digests collapse onto one
   execution (``campaign.cells.coalesced``): the digest is the
   congruence key for work, exactly as the L1 cache's signature is
   for symmetry detection.
3. **Resume** — digests already present in the results store are
   skipped (``campaign.cells.skipped``); nothing is recomputed.
4. **Order** — pending cells sort largest-estimated-cost first
   (ties broken by digest) so the pool's tail stays short.
5. **Execute** — every cell is one :func:`run_cell_task` through
   :func:`repro.perf.parallel.worker_task`: inline for ``jobs=1`` (the
   byte-exact reference) or on one :func:`repro.perf.parallel.
   process_pool` that lives for the whole run, so each worker's L2
   store stays warm across the cells it runs.  Each completed cell is persisted
   *immediately*, so an interrupted campaign resumes from the last
   completed cell.

Determinism is inherited, not re-argued: every cell executes
``run_experiment(name, spec)`` with ``jobs=1`` after an L1 reset, so
its float noise cannot depend on which cells shared its worker; the
L2 store is keyed by exact input bytes, so cross-cell reuse is
unobservable in rows; and each pooled cell ships its metric delta
back for the runner to merge, so campaign counters are identical for
any pool width.  A cell that raises, or a worker that dies, fails the
run with :class:`repro.errors.SimulationError`; cells persisted before
that stay in the store.

The store's canonical export is byte-identical across ``jobs``
values and across interrupted-then-resumed vs. uninterrupted runs —
``tests/campaign`` pins both.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover — annotation-only import
    from repro.api import ExperimentSpec

from repro.campaign.spec import (
    CampaignSpec,
    cell_cost,
    cell_digest,
    load_campaign,
)
from repro.campaign.store import JsonlStore, open_store
from repro.errors import ReproError

__all__ = ["CampaignResult", "run_campaign", "run_cell_task"]


@dataclass(frozen=True)
class CampaignResult:
    """Summary of one ``run_campaign`` invocation."""

    name: str
    store_path: str
    jobs: int
    cells_total: int
    cells_coalesced: int
    cells_skipped: int
    cells_executed: int
    cells_pending: int
    elapsed_ms: float

    def render(self) -> str:
        lines = [
            f"campaign {self.name}: {self.cells_total} cells "
            f"({self.jobs} worker{'s' if self.jobs != 1 else ''})",
            f"  executed:  {self.cells_executed}",
            f"  skipped:   {self.cells_skipped} (already in store)",
            f"  coalesced: {self.cells_coalesced} (duplicate digests)",
        ]
        if self.cells_pending:
            lines.append(f"  pending:   {self.cells_pending} "
                         f"(cell budget hit; re-run to resume)")
        lines.append(f"  store:     {self.store_path}")
        lines.append(f"  elapsed:   {self.elapsed_ms:.1f} ms")
        return "\n".join(lines)


def _unique_tasks(spec: CampaignSpec) -> tuple[list[tuple], int]:
    """``(digest, experiment, spec)`` per unique digest, in
    declaration order, plus the count of coalesced duplicates."""
    tasks: list[tuple] = []
    seen: set[str] = set()
    coalesced = 0
    for cell in spec.cells:
        digest = cell_digest(cell)
        if digest in seen:
            coalesced += 1
            continue
        seen.add(digest)
        tasks.append((digest, cell.experiment, cell.spec, cell_cost(cell)))
    return tasks, coalesced


def run_campaign(spec: CampaignSpec | str | Path, *, jobs: int = 1,
                 store_path: str | Path | None = None,
                 max_cells: int | None = None,
                 fresh: bool = False,
                 store: JsonlStore | None = None) -> CampaignResult:
    """Run (or resume) a campaign; returns the run summary.

    ``jobs=1`` executes cells inline; ``jobs>=2`` on one process pool
    for the whole run.  ``max_cells`` bounds how many cells this
    invocation executes (the resume tests use it to simulate an
    interrupted campaign).  ``fresh`` clears the store first.  An
    explicit ``store`` overrides ``store_path`` (the caller keeps
    ownership and must close it).
    """
    from repro.obs import clock
    from repro.obs import metrics as _metrics

    if not isinstance(spec, CampaignSpec):
        spec = load_campaign(spec)
    if max_cells is not None and max_cells < 0:
        raise ReproError("max_cells must be non-negative")
    jobs = max(1, int(jobs))
    started = clock.monotonic()

    owns_store = store is None
    if store is None:
        store = open_store(store_path)
    try:
        if fresh:
            store.clear()
        tasks, coalesced = _unique_tasks(spec)
        completed = store.completed_digests()
        skipped = [task for task in tasks if task[0] in completed]
        pending = [task for task in tasks if task[0] not in completed]
        # Largest first: the most expensive cell starts immediately,
        # so no worker idles behind one late giant.  Digest tie-break
        # keeps the order a pure function of the spec.
        pending.sort(key=lambda task: (-task[3], task[0]))
        budget_left = 0
        if max_cells is not None and len(pending) > max_cells:
            budget_left = len(pending) - max_cells
            pending = pending[:max_cells]

        reg = _metrics.registry()
        reg.inc("campaign.runs")
        reg.inc("campaign.cells.total", len(spec.cells))
        reg.inc("campaign.cells.coalesced", coalesced)
        reg.inc("campaign.cells.skipped", len(skipped))

        executed = _execute(pending, jobs, store, reg)

        elapsed_ms = (clock.monotonic() - started) * 1000.0
        store.journal_event({
            "kind": "campaign-run",
            "name": spec.name,
            "jobs": jobs,
            "cells_total": len(spec.cells),
            "cells_coalesced": coalesced,
            "cells_skipped": len(skipped),
            "cells_executed": executed,
            "elapsed_ms": round(elapsed_ms, 3),
        })
        return CampaignResult(
            name=spec.name,
            store_path=str(store.path),
            jobs=jobs,
            cells_total=len(spec.cells),
            cells_coalesced=coalesced,
            cells_skipped=len(skipped),
            cells_executed=executed,
            cells_pending=budget_left,
            elapsed_ms=elapsed_ms)
    finally:
        if owns_store:
            store.close()


def run_cell_task(task: "tuple[str, str, ExperimentSpec]",
                  ) -> tuple[dict, dict]:
    """Execute one campaign cell ``(digest, experiment, spec)``.

    Returns the deterministic store record and the journal payload
    (phase rollups and performance counters — wall-clock lives only
    here).  The pooled and inline paths both run it through
    :func:`repro.perf.parallel.worker_task` after an L1 reset, so the
    inline ``jobs=1`` path is the byte-exact reference.
    """
    from repro.api import run_experiment
    from repro.campaign.store import build_cell_record

    digest, experiment, spec = task
    result = run_experiment(experiment, spec)
    record = build_cell_record(digest, experiment, result)
    journal = {
        "kind": "cell-journal",
        "digest": digest,
        "experiment": experiment,
        "phase_totals": result.manifest["timing"]["phases"],
        "backend": dict(result.metrics.get("backend", {})),
    }
    return record, journal


def _execute(pending: list[tuple], jobs: int, store: JsonlStore,
             reg) -> int:
    """Run the pending cells, persisting each as it completes.

    Pooled cells are submitted largest first and persisted in
    completion order; everything is keyed by digest, never by arrival.
    """
    from concurrent.futures import as_completed

    from repro.perf.parallel import process_pool, task_values, worker_task

    def persist(digest: str, outcome: tuple) -> None:
        ((record, journal),) = task_values(outcome,
                                           f"campaign cell {digest}")
        store.record_cell(record)
        store.journal_event(journal)
        reg.inc("campaign.cells.executed")

    tasks = [(digest, experiment, spec)
             for digest, experiment, spec, _cost in pending]
    if jobs == 1 or not tasks:
        # Inline: run_experiment's counters land on this registry
        # directly, so no delta is shipped to be merged again.
        for task in tasks:
            persist(task[0], worker_task(run_cell_task, [task],
                                         fresh_l1=True, ship_delta=False))
        return len(tasks)
    with process_pool(jobs) as pool:
        digests = {pool.submit(worker_task, run_cell_task, [task],
                               fresh_l1=True, ship_delta=True): task[0]
                   for task in tasks}
        for future in as_completed(digests):
            persist(digests[future], future.result())
    return len(tasks)
