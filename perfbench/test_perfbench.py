"""Self-tests of the benchmark.

    python3 -m pytest perfbench

The request lists are fixed by the seed, the printed metric names and
units are those of ``BENCHMARK.json``, the speed samples normalise an
interval by the processes that worked in it, a corrupted cell digest, a
wrong served answer, a refused query and a failed formation each count
as a failed operation, and the smoke size runs end to end in seconds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest

from perfbench import child, run, speed, workloads

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def private_l3(tmp_path):
    """Keep the program's disk cache out of the checkout."""
    from repro.perf import disk

    disk.configure(root=tmp_path / "l3")
    yield
    disk.configure()


def _args(workload: str, **overrides) -> Namespace:
    values = {"workload": workload, "seed": 0, "seconds": 1.0,
              "run_dir": ROOT, "smoke": True, "trace": False,
              "setup_only": False}
    values.update(overrides)
    return Namespace(**values)


def test_grid_list_is_fixed_by_the_seed():
    assert workloads.grid_list(3) == workloads.grid_list(3)
    assert workloads.grid_list(3) != workloads.grid_list(4)
    keys = sorted(cell.key for cell in workloads.grid_list(3))
    assert keys == sorted(workloads.pinned_digests())
    assert len(keys) == 17


def test_query_list_is_fixed_by_the_seed():
    first = workloads.query_list(5, 400)
    assert first == workloads.query_list(5, 400)
    assert workloads.query_list(5, 100) == first[:100]
    assert workloads.query_list(6, 400) != first
    shares = [share for share, _query in first]
    assert 0.02 < shares.count("duplicate") / len(shares) < 0.09
    assert 0.22 < shares.count("fresh") / len(shares) < 0.38

    def makeup(pairs):
        # A duplicate repeats whichever query came before it.
        return sorted((share, "" if share == "duplicate" else
                       type(query).__name__,
                       0 if share == "duplicate" else
                       len(getattr(query, "initial", None) or query.points))
                      for share, query in pairs)

    # Every segment, for every seed, asks for the same work.
    segment = workloads.QUERY_SEGMENT
    assert makeup(first[:segment]) == makeup(first[segment:2 * segment])
    assert makeup(first[:segment]) == \
        makeup(workloads.query_list(6, segment))


@pytest.mark.parametrize("index", range(len(workloads.SWARM_LIST)))
def test_swarm_inputs_are_fixed_by_the_seed(index):
    formation = workloads.SWARM_LIST[index]
    points, frames, target = workloads.formation_inputs(formation, 7, index)
    again, frames_again, _ = workloads.formation_inputs(formation, 7, index)
    other, _, _ = workloads.formation_inputs(formation, 8, index)
    np.testing.assert_array_equal(points, again)
    assert [f.rotation.tobytes() for f in frames] == \
        [f.rotation.tobytes() for f in frames_again]
    assert not np.array_equal(points, other)
    assert (target is None) == (formation.algorithm == "sym")


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_normalised_time_follows_the_working_processes():
    times = np.arange(10) * 0.02
    busy = np.array([0.0] + [0.02] * 9)  # CPU time since the last sample
    none = np.empty(0)
    # A working process on a half-speed vCPU, a waiting one on a fast one.
    samples = speed.Samples(np.concatenate([times, times]),
                            np.array([0.5] * 10 + [2.0] * 10),
                            np.concatenate([busy, np.zeros(10)]),
                            none, none)
    assert samples.speed(0.0, 0.18) == pytest.approx(0.5)
    assert samples.normalised(0.0, 0.18) == pytest.approx(0.09)
    # An interval with too few samples is widened about its middle.
    assert samples.speed(0.061, 0.062) == pytest.approx(0.5)
    idle = speed.Samples(times, np.full(10, 2.0), np.zeros(10), none, none)
    assert idle.speed(0.0, 0.18) == pytest.approx(2.0)
    # 0.18 s of the program's CPU time, and as much stolen by other
    # guests: the vCPU ran half the time it had work.
    stolen = speed.Samples(times, np.ones(10), busy, times, times)
    assert stolen.stolen(0.0, 0.18) == pytest.approx(0.18)
    assert stolen.speed(0.0, 0.18) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        speed.load(ROOT / "perfbench").speed(0.0, 1.0)


def test_sampler_records_this_process_and_its_forked_children(tmp_path):
    def work(seconds: float) -> None:
        end = time.monotonic() + seconds
        while time.monotonic() < end:
            sum(range(1000))

    speed.start(tmp_path)
    try:
        pid = os.fork()
        if pid == 0:
            work(0.4)
            os._exit(0)
        work(0.4)
        os.waitpid(pid, 0)
    finally:
        speed.stop()
    assert len(list(tmp_path.glob("speed-*.bin"))) == 2
    samples = speed.load(tmp_path)
    assert len(samples) >= 20
    assert 0.1 < samples.speed(0.0, time.perf_counter()) < 10.0


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(2600) == 99
    assert run.tail_percentile(500) == 98
    assert run.tail_percentile(17) == 50
    assert run.percentile([1.0, 2.0, 3.0], 50) == pytest.approx(2.0)


def test_corrupted_cell_digest_counts_as_failed():
    from repro.api import ExperimentSpec, run_experiment

    runner = child.GridRun(_args("paper-grid"))
    runner.run_experiment, runner.spec = run_experiment, ExperimentSpec
    runner.cells = [c for c in workloads.grid_cells()
                    if c.name == "baseline_2d"]
    runner.digests = dict(workloads.pinned_digests())
    out = runner.measure(1)
    assert out.attempted == 2 and out.failures == []
    runner.digests[runner.cells[0].key] = "0" * 64
    out = runner.measure(1)
    assert out.attempted == 2 and len(out.failures) == 1


def test_failed_formation_counts_as_failed(monkeypatch):
    runner = child.SwarmRun(_args("swarm"))
    runner.setup()
    out = runner.measure(1)
    runner.finish(out)
    assert out.attempted == 2 and out.failures == []
    monkeypatch.setattr(workloads, "SYM_ROUND_CAP", 0)
    monkeypatch.setattr(workloads, "PF_ROUND_CAP", 0)
    out = runner.measure(1)
    runner.finish(out)
    assert out.attempted == 2 and len(out.failures) == 2


class _FakeClient:
    """Answers in-process; refuses the query at ``refuse``."""

    def __init__(self, queries, refuse=None) -> None:
        self.queries = queries
        self.refuse = refuse

    def query(self, query):
        from repro.api import evaluate_query
        from repro.errors import ServiceError

        if self.refuse is not None and query is self.queries[self.refuse]:
            raise ServiceError("queue depth reached", status=429)
        return evaluate_query(query)

    def metrics(self) -> dict:
        return {"serve": {"counters": {}, "histograms": {}}}


def _query_runner(refuse=None):
    runner = child.QueryRun(_args("query"))
    runner.segment = 6
    runner.queries = workloads.query_list(0, 6)
    queries = [query for _share, query in runner.queries]
    runner.clients = [_FakeClient(queries, refuse)]
    return runner


def test_wrong_served_answer_counts_as_failed():
    runner = _query_runner()
    out = runner.measure(1)
    assert out.attempted == 6 and out.failures == []
    served = list(out.extra["served"])
    runner.check(out)
    assert out.failures == []
    out.extra["served"] = served
    out.extra["served"][2] = served[2].replace("formable", "unformable") \
        if "formable" in served[2] else served[2] + " "
    runner.check(out)
    assert len(out.failures) == 1


def test_refused_query_counts_as_failed():
    runner = _query_runner(refuse=3)
    out = runner.measure(1)
    assert out.attempted == 6 and len(out.failures) == 1


def _smoke(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace),
         "--smoke"], cwd=ROOT, capture_output=True, text=True,
        timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_every_end_to_end_metric(workload):
    result = _smoke(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        run.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_all_runs_every_workload_in_one_command():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all",
         "--seed", "0", "--seconds", "1", "--trace", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    results = [json.loads(line) for line in done.stdout.splitlines()
               if line.startswith("{")]
    assert len(results) == len(workloads.WORKLOADS)
    assert all(result["correct"] for result in results)


@pytest.mark.parametrize("workload, layers", [
    ("swarm", ("round.count", "order.calls")),
    ("query", ("serve.dispatched", "rho.calls")),
])
def test_traced_smoke_run_prints_the_ledger(workload, layers):
    result = _smoke(workload, 1)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        run.PER_LAYER
    for layer in layers:
        assert result["metrics"][layer]["value"] > 0


def test_run_refuses_a_directory_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        (bench / path.name).write_text(path.read_text())
    (bench / "grid_digests.json").write_text(
        (ROOT / "perfbench" / "grid_digests.json").read_text())
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "swarm",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
