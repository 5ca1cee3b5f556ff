"""Declarative experiment campaigns over the :mod:`repro.api` façade.

The paper's results are a *grid* of runs — (experiment, trials, seed,
cache) — and this package runs that grid as one unit of work:

* :mod:`repro.campaign.spec` compiles TOML/JSON campaign files into
  ``ExperimentSpec`` grids and keys every cell by a digest of its
  pre-run deterministic spec record;
* :mod:`repro.campaign.runner` executes the grid — resumable
  (completed digests are skipped), coalescing (equal digests run
  once), largest-cell-first — on one process pool
  (:func:`repro.perf.parallel.process_pool`) whose workers keep their
  L2 stores across the run's cells;
* :mod:`repro.campaign.store` persists results as canonical JSONL;
* :mod:`repro.campaign.report` regenerates the paper tables from the
  store.

CLI: ``repro campaign run examples/paper.toml --jobs 4`` then
``repro campaign report``.  See docs/PERFORMANCE.md ("Campaign
throughput") for the design and determinism argument.
"""

from repro.campaign.report import generate_report, write_report
from repro.campaign.runner import CampaignResult, run_campaign
from repro.campaign.spec import (
    CampaignCell,
    CampaignSpec,
    cell_digest,
    load_campaign,
)
from repro.campaign.store import default_store_path, open_store

__all__ = [
    "CampaignCell",
    "CampaignResult",
    "CampaignSpec",
    "cell_digest",
    "default_store_path",
    "generate_report",
    "load_campaign",
    "open_store",
    "run_campaign",
    "write_report",
]
