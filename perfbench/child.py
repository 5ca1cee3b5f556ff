"""One measured process: set up, print READY, run the list, write JSON.

    python3 -m perfbench.child --workload W --seed N --seconds S \
        --run-dir DIR [--speed-dir DIR] [--setup-only] [--trace]

:mod:`perfbench.run` starts this module with a private, empty
``REPRO_CACHE_DIR`` and times set-up from the spawn to the ``READY``
line.  Everything before READY is set-up: imports, building the inputs
and one untimed warm-up request (a pooled cell for ``paper-grid``, a
small formation for ``swarm``, server boot, pool spawn and one query
for ``query``).

A workload runs whole passes over its fixed list (``query`` answers its
list in segments, one per pass); the number of passes is fixed by
``--seconds``, so both sides of a comparison do the same work.  The
start and end of every request and pass (``perf_counter``, the clock of
every process) and the correctness verdicts go to ``DIR/result.json``.
With ``--speed-dir`` this process, the query server and every worker
they fork sample their speed there (:mod:`perfbench.speed`), from the
start of set-up to the end of the run.

With ``--trace`` the child measures ``TRACE_PASSES`` untraced first
(the reference for ``trace.overhead_pct``), then installs the ledger
and measures as many traced, writing span files under ``DIR/trace``.
For ``query`` the traced passes run against a second server booted
with the ledger installed.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import subprocess
import sys
import threading
import traceback
from pathlib import Path
from time import perf_counter

from perfbench import ledger, speed, workloads

# Passes per run at a 10-second run length, scaled with --seconds (at
# least one).  On the reference host (2-core Xeon) a grid pass takes
# 20-35 s, a swarm pass 7-11 s and a query segment 1-2 s.  The traced
# run measures TRACE_PASSES of each, once untraced and once traced.
PASSES_AT_10S = {"paper-grid": 1, "swarm": 3, "query": 8}
TRACE_PASSES = {"paper-grid": 1, "swarm": 1, "query": 3}

SERVER_BOOT_TIMEOUT_S = 60.0
QUERY_TIMEOUT_S = 60.0


def pass_count(args) -> int:
    """How many passes over its list a run of the workload makes."""
    if args.smoke:
        return 1
    return max(1, int(round(PASSES_AT_10S[args.workload]
                            * args.seconds / 10.0)))


def _own_peak_kb() -> int:
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


class Measurement:
    """Request times, pass times and failures of one measured pass set."""

    def __init__(self) -> None:
        # (key, start, end) and (start, end), in perf_counter seconds:
        # the clock of every process, so run.py can lay the intervals
        # over the speed samples (perfbench.speed).
        self.requests: list[tuple[str, float, float]] = []
        self.passes: list[tuple[float, float]] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.extra: dict = {}

    def record(self, key: str, start: float, end: float,
               error: str | None) -> None:
        self.attempted += 1
        self.requests.append((key, start, end))
        if error is not None:
            self.failures.append(f"{key}: {error}")

    def as_dict(self) -> dict:
        return {"requests": self.requests, "passes": self.passes,
                "attempted": self.attempted, "failures": self.failures,
                **self.extra}


class GridRun:
    """paper-grid: the examples/paper.toml cells at jobs=2."""

    def __init__(self, args) -> None:
        self.args = args

    def setup(self) -> None:
        from repro.api import ExperimentSpec, run_experiment

        self.run_experiment = run_experiment
        self.spec = ExperimentSpec
        self.cells = workloads.grid_list(self.args.seed, self.args.smoke)
        self.digests = workloads.pinned_digests()
        cell = workloads.WARMUP_CELL
        run_experiment(cell.name, ExperimentSpec(
            seed=cell.seed, trials=cell.trials, jobs=workloads.GRID_JOBS))

    def measure(self, passes: int) -> Measurement:
        out = Measurement()
        for _ in range(passes):
            first = perf_counter()
            for cell in self.cells:
                error = None
                start = perf_counter()
                try:
                    result = self.run_experiment(cell.name, self.spec(
                        seed=cell.seed, trials=cell.trials,
                        jobs=workloads.GRID_JOBS))
                    end = perf_counter()
                    digest = workloads.rows_sha256(result.rows)
                    if digest != self.digests.get(cell.key):
                        error = f"rows sha256 {digest} is not the pinned one"
                except Exception:  # noqa: BLE001 — counted as failed
                    end = perf_counter()
                    error = traceback.format_exc(limit=3)
                out.record(cell.key, start, end, error)
            out.passes.append((first, perf_counter()))
        out.extra["peak_kb"] = _own_peak_kb()
        return out

    def finish(self, out: Measurement) -> None:
        """Cells are checked inline: the digest touches no traced code."""

    def close(self) -> None:
        pass


class SwarmRun:
    """swarm: ψ_SYM and ψ_PF formations, one at a time, in-process."""

    def __init__(self, args) -> None:
        self.args = args

    def setup(self) -> None:
        from repro import perf
        from repro.core.configuration import Configuration
        from repro.core.symmetricity import symmetricity
        from repro.geometry.polygons import regular_polygon_fold
        from repro.robots.algorithms.pattern_formation import (
            make_pattern_formation_algorithm,
        )
        from repro.robots.algorithms.sym import is_sym_terminal, psi_sym
        from repro.robots.scheduler import FsyncScheduler

        self.perf = perf
        self.configuration = Configuration
        self.symmetricity = symmetricity
        self.polygon_fold = regular_polygon_fold
        self.make_pf = make_pattern_formation_algorithm
        self.psi_sym = psi_sym
        self.is_sym_terminal = is_sym_terminal
        self.scheduler = FsyncScheduler
        self.formations = workloads.SMOKE_SWARM_LIST if self.args.smoke \
            else workloads.SWARM_LIST
        self.inputs = [workloads.formation_inputs(f, self.args.seed, i)
                       for i, f in enumerate(self.formations)]
        # Warm-up: one small formation of each kind, outside the list.
        for i, formation in enumerate((workloads.Formation("sym", "T", 2),
                                       workloads.Formation("pf", "ngon", 16))):
            inputs = workloads.formation_inputs(
                formation, workloads.WARMUP_SEED, i)
            self._form(formation, *inputs)
        perf.clear_caches()

    def _form(self, formation, points, frames, target):
        """Run one formation; return the scheduler's ExecutionResult."""
        if formation.algorithm == "sym":
            return self.scheduler(self.psi_sym, frames).run(
                points, stop_condition=self.is_sym_terminal,
                max_rounds=workloads.SYM_ROUND_CAP)
        algorithm = self.make_pf(target)
        return self.scheduler(algorithm, frames, target=target).run(
            points, stop_condition=lambda c: c.is_similar_to(target),
            max_rounds=workloads.PF_ROUND_CAP)

    def _verdict(self, formation, points, result) -> str | None:
        """The formation's correctness check; None when it passed."""
        if formation.algorithm == "pf":
            # reached: the stop condition (similar to F) fired in time.
            return None if result.reached else \
                "psi_PF did not reach a configuration similar to F"
        if not result.reached:
            return "psi_SYM stopped before a terminal configuration"
        # Theorem 4.1's rule: gamma(P') in varrho(P), or P' is a
        # regular polygon.
        final = result.final
        rho = self.symmetricity(self.configuration(points))
        if final.symmetry.spec in rho.specs or \
                self.polygon_fold(final.points) is not None:
            return None
        return f"gamma(P') = {final.symmetry.spec} is not in varrho(P)"

    def measure(self, passes: int) -> Measurement:
        out = Measurement()
        self.pending = []
        for _ in range(passes):
            first = perf_counter()
            for formation, inputs in zip(self.formations, self.inputs):
                # Each formation starts from empty L1 caches, as in a
                # fresh process, so its cost does not depend on order.
                self.perf.clear_caches()
                error = None
                start = perf_counter()
                try:
                    result = self._form(formation, *inputs)
                    self.pending.append((formation, inputs[0], result))
                except Exception:  # noqa: BLE001 — counted as failed
                    error = traceback.format_exc(limit=3)
                out.record(formation.key, start, perf_counter(), error)
            out.passes.append((first, perf_counter()))
        out.extra["peak_kb"] = _own_peak_kb()
        return out

    def finish(self, out: Measurement) -> None:
        """Check the formations, after the timed (and traced) pass."""
        for formation, points, result in self.pending:
            error = self._verdict(formation, points, result)
            if error is not None:
                out.failures.append(f"{formation.key}: {error}")
        self.pending = []

    def close(self) -> None:
        pass


class Server:
    """A ``repro serve --workers 1`` subprocess, booted via serve_host."""

    def __init__(self, run_dir: Path, name: str,
                 trace_dir: Path | None = None,
                 speed_dir: Path | None = None) -> None:
        self.report = run_dir / f"{name}-rss.json"
        command = [sys.executable, "-m", "perfbench.serve_host",
                   str(self.report)]
        if trace_dir is not None:
            command += ["--trace-dir", str(trace_dir)]
        if speed_dir is not None:
            command += ["--speed-dir", str(speed_dir)]
        command += ["--", "--workers", "1", "--port", "0"]
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True)
        banner = self._readline(SERVER_BOOT_TIMEOUT_S)
        prefix = "serving on "
        if not banner.startswith(prefix):
            self.kill()
            raise RuntimeError(f"unexpected server banner: {banner!r}")
        host, _, port = banner[len(prefix):].strip().rpartition(":")
        self.host, self.port = host, int(port)

    def _readline(self, timeout: float) -> str:
        line: list[str] = []
        reader = threading.Thread(
            target=lambda: line.append(self.process.stdout.readline()),
            daemon=True)
        reader.start()
        reader.join(timeout)
        return line[0] if line else ""

    def drain(self) -> dict:
        """SIGTERM, wait for the drain, return the peak-RSS report."""
        self.stop()
        if self.process.returncode != 0:
            raise RuntimeError(
                f"query server exited {self.process.returncode}")
        return json.loads(self.report.read_text())

    def stop(self) -> None:
        """Drain the server (SIGTERM); kill it if the drain hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.communicate(timeout=QUERY_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("query server did not drain") from None

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=10)


class QueryRun:
    """query: a closed loop of 2 connections over the query list."""

    def __init__(self, args) -> None:
        self.args = args
        self.server: Server | None = None

    def setup(self, trace_dir: Path | None = None) -> None:
        from repro.serve.client import ServeClient

        self.segment = workloads.QUERY_SMOKE if self.args.smoke \
            else workloads.QUERY_SEGMENT
        segments = TRACE_PASSES["query"] if self.args.trace \
            else pass_count(self.args)
        self.queries = workloads.query_list(self.args.seed,
                                            segments * self.segment)
        self.server = Server(self.args.run_dir,
                             "traced" if trace_dir else "server", trace_dir,
                             self.args.speed_dir)
        self.clients = [ServeClient(self.server.host, self.server.port,
                                    timeout=QUERY_TIMEOUT_S)
                        for _ in range(workloads.CONNECTIONS)]
        self.clients[0].query(workloads.warmup_query())

    def measure(self, passes: int) -> Measurement:
        """Answer the first ``passes`` segments of the list, segment by
        segment, each over all connections in a closed loop."""
        out = Measurement()
        before = self.clients[0].metrics()["serve"]
        slots: list = []
        for segment in range(passes):
            first = segment * self.segment
            part = self._segment(range(first, first + self.segment))
            out.passes.append((min(slot[0] for slot in part),
                               max(slot[1] for slot in part)))
            slots.extend(part)
        after = self.clients[0].metrics()["serve"]

        kernel_ms, overhead_ms, l1_hits = [], [], 0
        for index, (start, end, text, kernel, l1, error) in enumerate(slots):
            out.record(self.queries[index][0], start, end, error)
            if error is None:
                kernel_ms.append(kernel)
                overhead_ms.append((end - start) * 1000.0 - kernel)
                counts = list(l1.values())
                if any(c.get("hits") for c in counts) and \
                        not any(c.get("misses") for c in counts):
                    l1_hits += 1
        out.extra.update({
            "served": [slot[2] for slot in slots],
            "kernel_ms": kernel_ms,
            "overhead_ms": overhead_ms,
            "l1_hit_queries": l1_hits,
            "serve_before": before,
            "serve_after": after,
        })
        return out

    def _segment(self, indices: range) -> list:
        """``(start, end, text, kernel_ms, l1, error)`` per query."""
        from repro.serve.protocol import canonical_result_text

        slots: list = [None] * len(indices)
        lock = threading.Lock()
        cursor = iter(range(len(indices)))

        def drive(client) -> None:
            while True:
                with lock:
                    slot = next(cursor, None)
                if slot is None:
                    return
                start = perf_counter()
                try:
                    result = client.query(
                        self.queries[indices[slot]][1])
                    slots[slot] = (start, perf_counter(),
                                   canonical_result_text(result),
                                   result.timing.get("elapsed_ms", 0.0),
                                   result.cache.get("l1", {}), None)
                except Exception as exc:  # noqa: BLE001 — counted as failed
                    slots[slot] = (start, perf_counter(), None, 0.0, {},
                                   f"{type(exc).__name__}: {exc}")

        threads = [threading.Thread(target=drive, args=(client,))
                   for client in self.clients]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return slots

    def finish(self, out: Measurement) -> None:
        """Drain the server; record its peak RSS and check the answers."""
        for client in self.clients:
            client.close()
        report = self.server.drain()
        self.server = None
        out.extra["peak_kb"] = report["self_kb"] + report["children_kb"]
        self.check(out)

    def check(self, out: Measurement) -> None:
        """Served text must equal in-process evaluation, query by query."""
        from repro.api import evaluate_query
        from repro.serve.protocol import canonical_result_text

        expected: dict[int, str] = {}
        served = out.extra.pop("served")
        for index, text in enumerate(served):
            if text is None:
                continue  # already failed
            query = self.queries[index][1]
            key = id(query)
            if key not in expected:
                expected[key] = canonical_result_text(evaluate_query(query))
            if text != expected[key]:
                out.failures.append(f"query {index}: served answer differs "
                                    f"from in-process evaluation")

    def close(self) -> None:
        for client in getattr(self, "clients", []):
            client.close()
        if self.server is not None:
            self.server.stop()
            self.server = None


RUNNERS = {"paper-grid": GridRun, "swarm": SwarmRun, "query": QueryRun}


def _measure(runner, passes: int, args, traced: bool) -> dict:
    """Measure, then check; a traced measurement's records are written
    before the checks run, so check work stays out of the ledger."""
    if traced:
        if isinstance(runner, QueryRun):
            runner.setup(args.run_dir / "trace")
        else:
            ledger.install(args.run_dir / "trace")
    out = runner.measure(passes)
    if traced:
        ledger.flush()
    runner.finish(out)
    return out.as_dict()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.child")
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--run-dir", type=Path, required=True)
    parser.add_argument("--speed-dir", type=Path, default=None,
                        help="sample this process and its children's "
                             "speed into DIR (perfbench.speed)")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if args.speed_dir is not None:
        speed.start(args.speed_dir)
    runner = RUNNERS[args.workload](args)
    try:
        runner.setup()
        # L3 acts at set-up (the catalog fill), before any ledger exists.
        setup_l3 = ledger.l3_counters()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        if not args.trace:
            result = {"untraced": _measure(runner, pass_count(args), args,
                                           traced=False)}
        else:
            count = TRACE_PASSES[args.workload]
            result = {"untraced": _measure(runner, count, args,
                                           traced=False),
                      "traced": _measure(runner, count, args, traced=True),
                      "setup_l3": setup_l3}
    finally:
        runner.close()
        if args.speed_dir is not None:
            speed.stop()
    (args.run_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
