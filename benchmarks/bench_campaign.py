"""Campaign THROUGHPUT — one run-long pool vs. per-experiment dispatch.

A campaign run keeps one ``repro.perf.parallel.process_pool`` for all
of its cells, paying process start and L2 attach once per worker,
where the per-experiment path pays them once per ``run_experiment``
call (docs/PERFORMANCE.md, "Campaign throughput", records that the
difference measured inside the spread).  These benchmarks measure
that trade on the same grid:

* ``test_campaign_warm_pool`` — the grid through ``run_campaign`` at
  ``jobs=4``: one 4-worker process pool for the whole run;
* ``test_campaign_per_experiment_dispatch`` — the same cells as a
  loop of ``run_experiment(..., jobs=4)`` calls, each building (and
  tearing down) its own process pool;
* ``test_campaign_smoke_warm`` — a 3-cell inline campaign for the
  smoke set: spec compile, digests, store round-trip.

Every round gets a fresh store directory so resume never
short-circuits the measurement.
"""

import shutil
import tempfile
from pathlib import Path

from repro import perf
from repro.api import ExperimentSpec, run_experiment
from repro.campaign import run_campaign
from repro.campaign.spec import campaign_from_mapping

# The measured grid: enough small-to-medium cells that scheduling and
# startup costs dominate any single cell's compute.
_GRID = {
    "name": "bench",
    "defaults": {"trials": 4},
    "experiments": [
        {"name": "lemma7", "seed": [0, 1, 2, 3]},
        {"name": "baseline_2d", "seed": [0, 1]},
        {"name": "figure1", "seed": [0, 1], "trials": 2},
    ],
}

_SMOKE_GRID = {
    "name": "bench-smoke",
    "defaults": {"trials": 2},
    "experiments": [
        {"name": "lemma7", "seed": [0, 1]},
        {"name": "baseline_2d", "seed": 0},
    ],
}


def _run_campaign_fresh(mapping: dict, jobs: int) -> None:
    campaign = campaign_from_mapping(mapping)
    root = Path(tempfile.mkdtemp(prefix="repro-bench-campaign-"))
    try:
        result = run_campaign(campaign, jobs=jobs,
                              store_path=root / "results.jsonl")
        assert result.cells_executed == len(campaign.cells)
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _run_dispatch(mapping: dict, jobs: int) -> None:
    campaign = campaign_from_mapping(mapping)
    for cell in campaign.cells:
        perf.clear_caches()
        spec = ExperimentSpec(
            trials=cell.spec.trials, seed=cell.spec.seed, jobs=jobs,
            cache=cell.spec.cache)
        run_experiment(cell.experiment, spec)


def test_campaign_smoke_warm(benchmark):
    def setup():
        perf.clear_caches()
        return (_SMOKE_GRID, 1), {}

    benchmark.pedantic(_run_campaign_fresh, setup=setup, rounds=1,
                       iterations=1)


def test_campaign_warm_pool(benchmark):
    def setup():
        perf.clear_caches()
        return (_GRID, 4), {}

    benchmark.pedantic(_run_campaign_fresh, setup=setup, rounds=3,
                       iterations=1)


def test_campaign_per_experiment_dispatch(benchmark):
    def setup():
        perf.clear_caches()
        return (_GRID, 4), {}

    benchmark.pedantic(_run_dispatch, setup=setup, rounds=3,
                       iterations=1)
