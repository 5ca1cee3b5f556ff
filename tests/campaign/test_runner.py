"""The campaign runner: inline reference path, process-pool
byte-identity, coalescing, and error and worker-death surfacing."""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import pytest

import repro.api
from repro.api import ExperimentSpec, run_experiment
from repro.campaign import open_store, run_campaign
from repro.campaign.runner import _unique_tasks, run_cell_task
from repro.campaign.spec import CampaignCell, CampaignSpec, cell_digest
from repro.errors import ReproError, SimulationError
from repro.obs.manifest import jsonable_rows

# The failure tests patch run_experiment in this process; only
# fork-started workers inherit the patch.
needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="workers must inherit the patched run_experiment")


def _spec(cells) -> CampaignSpec:
    return CampaignSpec(name="t", cells=tuple(cells))


class TestInline:
    def test_rows_match_direct_run(self, tmp_path):
        spec = ExperimentSpec(trials=2, seed=1)
        campaign = _spec([CampaignCell("lemma7", spec, 0)])
        store_path = tmp_path / "r.jsonl"
        result = run_campaign(campaign, jobs=1, store_path=store_path)
        assert result.cells_executed == 1

        direct = run_experiment("lemma7", spec)
        with open_store(store_path) as store:
            (record,) = store.cells()
        assert record["rows"] == jsonable_rows(direct.rows)
        assert record["rows_sha256"] == \
            direct.manifest["rows"]["sha256"]
        assert record["digest"] == \
            cell_digest(CampaignCell("lemma7", spec, 0))

    def test_summary_counts(self, tiny_campaign, tmp_path):
        result = run_campaign(tiny_campaign, jobs=1,
                              store_path=tmp_path / "r.jsonl")
        assert result.cells_total == 3
        assert result.cells_executed == 3
        assert result.cells_skipped == 0
        assert result.cells_coalesced == 0
        assert result.cells_pending == 0
        rendered = result.render()
        assert "executed:  3" in rendered

    def test_journal_records_each_cell(self, tiny_campaign, tmp_path):
        store_path = tmp_path / "r.jsonl"
        run_campaign(tiny_campaign, jobs=1, store_path=store_path)
        with open_store(store_path) as store:
            journal = store.journal()
        kinds = [event["kind"] for event in journal]
        assert kinds.count("cell-journal") == 3
        assert kinds[-1] == "campaign-run"
        # wall-clock lives only in the journal, never in cells
        assert all("phase_totals" in event for event in journal
                   if event["kind"] == "cell-journal")


class TestCoalescing:
    def test_duplicate_digests_run_once(self, tmp_path):
        spec = ExperimentSpec(trials=2, seed=1)
        campaign = _spec([
            CampaignCell("lemma7", spec, 0),
            CampaignCell("lemma7", spec, 1),  # identical -> coalesced
            CampaignCell("baseline_2d", spec, 2),
        ])
        result = run_campaign(campaign, jobs=1,
                              store_path=tmp_path / "r.jsonl")
        assert result.cells_total == 3
        assert result.cells_coalesced == 1
        assert result.cells_executed == 2

    def test_unique_tasks_order_is_deterministic(self, tiny_campaign):
        tasks, coalesced = _unique_tasks(tiny_campaign)
        assert coalesced == 0
        assert [task[1] for task in tasks] == \
            ["lemma7", "lemma7", "baseline_2d"]


def _export(store_path) -> str:
    with open_store(store_path) as store:
        return store.export_canonical()


def _failing_run_experiment(failure):
    """``run_experiment`` that calls ``failure()`` for lemma7 seed 2."""
    real = repro.api.run_experiment

    def run(name, spec=None):
        if name == "lemma7" and spec is not None and spec.seed == 2:
            failure()
        return real(name, spec)

    return run


class TestProcessPool:
    def test_store_byte_identical_across_jobs(self, tiny_campaign,
                                              tmp_path):
        exports = {}
        for jobs in (1, 2):
            store_path = tmp_path / f"r{jobs}.jsonl"
            result = run_campaign(tiny_campaign, jobs=jobs,
                                  store_path=store_path)
            assert result.cells_executed == 3
            with open_store(store_path) as store:
                exports[jobs] = store.export_canonical()
        assert exports[1] == exports[2]

    def test_worker_error_surfaces(self):
        # an unknown experiment fails inside the worker; the pool must
        # hand back the worker traceback, not hang
        from repro.perf.parallel import process_pool, worker_task

        bad_task = ("0" * 64, "no-such-experiment",
                    ExperimentSpec(trials=1, seed=1))
        with process_pool(2) as pool:
            ok, value, _, _ = pool.submit(
                worker_task, run_cell_task, [bad_task], fresh_l1=True,
                ship_delta=True).result(timeout=60)
        assert not ok
        assert "ReproError: unknown experiment" in value

    @needs_fork
    def test_cell_error_fails_the_run(self, tiny_campaign, tmp_path,
                                      monkeypatch):
        def boom():
            raise ReproError("cell exploded")

        monkeypatch.setattr(repro.api, "run_experiment",
                            _failing_run_experiment(boom))
        with pytest.raises(SimulationError,
                           match="(?s)failed in worker.*cell exploded"):
            run_campaign(tiny_campaign, jobs=2,
                         store_path=tmp_path / "r.jsonl")

    @needs_fork
    def test_killed_worker_fails_the_run_and_resumes(
            self, tmp_path, monkeypatch):
        # Cells run largest first: baseline_2d, lemma7 seed 1, then
        # the killer (lemma7 seed 2, one trial), which a worker only
        # takes after finishing a cell.  It waits before dying, so
        # that finished cell is persisted first.
        campaign = _spec([
            CampaignCell("baseline_2d", ExperimentSpec(trials=1, seed=1),
                         0),
            CampaignCell("lemma7", ExperimentSpec(trials=2, seed=1), 1),
            CampaignCell("lemma7", ExperimentSpec(trials=1, seed=2), 2),
        ])
        reference = tmp_path / "reference.jsonl"
        run_campaign(campaign, jobs=1, store_path=reference)

        def die():
            time.sleep(1.0)
            os.kill(os.getpid(), signal.SIGKILL)

        store_path = tmp_path / "r.jsonl"
        with monkeypatch.context() as patch:
            patch.setattr(repro.api, "run_experiment",
                          _failing_run_experiment(die))
            started = time.monotonic()
            with pytest.raises(SimulationError, match="died"):
                run_campaign(campaign, jobs=2, store_path=store_path)
            assert time.monotonic() - started < 60
        with open_store(store_path) as store:
            finished = store.completed_digests()
        assert 1 <= len(finished) <= 2
        killer = cell_digest(campaign.cells[2])
        assert killer not in finished

        resumed = run_campaign(campaign, jobs=2, store_path=store_path)
        assert resumed.cells_skipped == len(finished)
        assert resumed.cells_executed == 3 - len(finished)
        assert _export(store_path) == _export(reference)


class TestArguments:
    def test_negative_max_cells_rejected(self, tiny_campaign, tmp_path):
        with pytest.raises(ReproError, match="non-negative"):
            run_campaign(tiny_campaign, max_cells=-1,
                         store_path=tmp_path / "r.jsonl")

    def test_fresh_clears_previous_results(self, tiny_campaign,
                                           tmp_path):
        store_path = tmp_path / "r.jsonl"
        run_campaign(tiny_campaign, store_path=store_path)
        rerun = run_campaign(tiny_campaign, store_path=store_path,
                             fresh=True)
        assert rerun.cells_skipped == 0
        assert rerun.cells_executed == 3

    def test_caller_owned_store_stays_open(self, tiny_campaign,
                                           tmp_path):
        store = open_store(tmp_path / "r.jsonl")
        try:
            run_campaign(tiny_campaign, store=store)
            # still usable: run_campaign must not close a caller store
            assert len(store.completed_digests()) == 3
        finally:
            store.close()
