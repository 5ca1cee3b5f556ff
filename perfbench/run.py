"""The benchmark command: one workload run, fresh processes, one JSON line.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 20 \
        --trace 0

Run from the root of a checkout.  ``--workload all`` runs the three
workloads in turn (their result lines in order; the exit status is the
worst of the three).  One run:

1. checks that the program's sources are there (exit 2 otherwise);
2. makes an untimed pre-run that compiles bytecode and warms the page
   cache, and times ``host.ref_ms`` (a fixed loop with no program code);
3. sets the workload up ``SETUP_SAMPLES`` times, each in a fresh
   process with its own empty ``REPRO_CACHE_DIR``; the last of them goes
   on to run the timed list (:mod:`perfbench.child`).  Untraced, every
   process of the program samples its own speed meanwhile
   (:mod:`perfbench.speed`), and every reported time is normalised to
   the speed the host gave during it;
4. prints the human-readable summary, a provenance line (with the
   measured, unnormalised pass and set-up times) and, last, the
   result: ``{"correct", "attempted", "failed", "metrics"}``.  With
   ``--trace 0`` the metrics are the end-to-end ones of
   ``BENCHMARK.json``; with ``--trace 1`` the per-layer ledger.

The program runs with ``PYTHONPATH=src``, ``OPENBLAS_NUM_THREADS=1``,
``OMP_NUM_THREADS=1`` and ``PYTHONHASHSEED=0``; every ``REPRO_*``
switch except ``REPRO_CACHE_DIR`` passes through unchanged and is
recorded, so ``REPRO_INCREMENTAL_GAMMA=0 python3 perfbench/run.py ...``
is an ablation run.  Exit status: 0 when every request passed its
check, 1 when any failed, 2 when the run could not be made.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from time import monotonic, perf_counter

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import ledger, speed, workloads  # noqa: E402

SETUP_SAMPLES = 3
# Everything must end well inside the 180-second limit of one run.
RUN_BUDGET_S = 170.0
RUNS_DIR = ".perfbench-runs"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput_qps": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p99": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"cell.{name}_s": "s" for name in (
        "lemma7", "theorem41", "theorem11", "figure1", "plane_formation",
        "baseline_2d")},
    **{f"formation.{f.key}_s": "s" for f in workloads.SWARM_LIST},
    "round.count": "count", "round.look_s": "s", "round.compute_s": "s",
    "round.move_s": "s", "round.per_robot": "count",
    **{f"{layer}.{field}": unit
       for layer in ledger.SPAN_LAYERS
       for field, unit in (("calls", "count"), ("s", "s"))},
    **{f"l1.{cache}.{field}": unit
       for cache in ledger.L1_CACHES
       for field, unit in (("hits", "count"), ("misses", "count"),
                           ("saved_s", "s"))},
    "l1.symmetry.incremental_hits": "count",
    "l1.symmetry.incremental_fallbacks": "count",
    "l2.lookups": "count", "l2.hits": "count", "l2.publishes": "count",
    "l2.bytes": "bytes",
    "l3.hits": "count", "l3.misses": "count", "l3.writes": "count",
    "l3.bytes": "bytes",
    "pool.calls": "count", "pool.s": "s", "pool.item_s": "s",
    "pool.efficiency": "ratio",
    "index.dense": "count", "index.kd": "count", "index.promotions": "count",
    "serve.dispatched": "count", "serve.coalesced": "count",
    "serve.rejected": "count", "serve.errors": "count",
    "serve.kernel_ms_p50": "ms", "serve.server_ms_mean": "ms",
    "serve.overhead_ms_p50": "ms", "serve.l1_hit_share": "ratio",
    "trace.overhead_pct": "%",
    "host.ref_ms": "ms",
}


class RunError(Exception):
    """The run could not be made (exit 2, no result line)."""


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolating between order statistics."""
    if len(values) < 2 or q == 50:
        return float(statistics.median(values))
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def tail_percentile(count: int) -> int:
    """The highest percentile up to 99 with at least 10 samples beyond
    it, never below the median."""
    if count <= 0:
        return 50
    return max(50, min(99, int(100 * (1 - 10 / count))))


def host_ref_ms() -> float:
    """Median of five timings of a fixed pure-Python loop."""
    samples = []
    for _ in range(5):
        start = perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        samples.append((perf_counter() - start) * 1000.0)
    return statistics.median(samples)


def program_env(cache_dir: Path) -> dict:
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "PYTHONHASHSEED": "0",
        "REPRO_CACHE_DIR": str(cache_dir),
    })
    return env


def repro_switches() -> dict:
    return {key: value for key, value in sorted(os.environ.items())
            if key.startswith("REPRO_") and key != "REPRO_CACHE_DIR"}


_VERSIONS = """
import json, platform, numpy, repro.api, repro.analysis.experiments
import repro.serve, repro.robots.scheduler
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
except (KeyError, TypeError):
    blas = {}
print(json.dumps({"python": platform.python_version(),
                  "numpy": numpy.__version__,
                  "openblas": blas.get("version")}))
"""


def pre_run(run_dir: Path, deadline: float) -> dict:
    """Compile bytecode, warm the page cache, report library versions."""
    env = program_env(run_dir / "cache-prerun")
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    str(ROOT / "src"), str(ROOT / "perfbench")],
                   cwd=ROOT, env=env, check=True,
                   stdout=subprocess.DEVNULL,
                   timeout=max(1.0, deadline - monotonic()))
    done = subprocess.run([sys.executable, "-c", _VERSIONS], cwd=ROOT,
                          env=env, check=True, capture_output=True,
                          text=True,
                          timeout=max(1.0, deadline - monotonic()))
    return json.loads(done.stdout.strip().splitlines()[-1])


def commit_id() -> str:
    """The git commit, or a digest of the program's sources."""
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True,
                                  timeout=10)
            if done.returncode == 0:
                return done.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return f"src-sha256:{digest.hexdigest()[:16]}"


def reap_group(pgid: int, grace: float = 10.0) -> None:
    """Wait for every process of a child's session to end; kill the
    stragglers after ``grace`` seconds (e.g. a multiprocessing helper)."""
    until = monotonic() + grace
    while monotonic() < until:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(args, run_dir: Path, index: int, deadline: float,
              setup_only: bool) -> tuple[float, float]:
    """One fresh child process; returns its spawn and READY times
    (``perf_counter``).  An untraced child samples its speed into
    ``run_dir/speed-<index>``."""
    command = [sys.executable, "-m", "perfbench.child",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--run-dir", str(run_dir)]
    if setup_only:
        command.append("--setup-only")
    if args.trace:
        command.append("--trace")
    else:
        command += ["--speed-dir", str(run_dir / f"speed-{index}")]
    if args.smoke:
        command.append("--smoke")
    env = program_env(run_dir / f"cache-{index}")
    ready: list[float] = []
    start = perf_counter()
    process = subprocess.Popen(command, cwd=ROOT, env=env,
                               stdout=subprocess.PIPE, text=True,
                               start_new_session=True)

    def read() -> None:
        for line in process.stdout:
            if line.strip() == "READY" and not ready:
                ready.append(perf_counter())

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    try:
        code = process.wait(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise RunError(f"{args.workload} child exceeded the run budget") \
            from None
    finally:
        reader.join(timeout=10)
        reap_group(process.pid)
    if code != 0 or not ready:
        raise RunError(f"{args.workload} child exited {code}"
                       + ("" if ready else " before READY"))
    return start, ready[0]


def end_to_end(workload: str, measured: dict, setups: list[float],
               samples: speed.Samples) -> tuple[dict, dict]:
    """The end-to-end metrics, plus the sample counts behind them.

    Every time is normalised to the host's speed during it
    (:mod:`perfbench.speed`): a request's measured interval times the
    mean relative speed that the run's processes sampled inside it,
    weighted by the CPU time each spent on the program and scaled down
    by the time other guests stole from the vCPUs.
    Then, so that bursts shorter than a request do not move the result
    either, every timing is a median over repeated units of equal work:

    * ``paper-grid`` and ``swarm``: a user asks for the whole list, so
      the list is one request.  ``wall_s`` adds up, per experiment (or
      formation), its count per pass times the median of its cells (its
      passes): the experiments' seeds are repeats of nearly equal work,
      and four of the six are the same work at every seed.  Latency is
      that list time; per-cell and per-formation times are in the
      ledger.
    * ``query``: a query is one request.  The list is answered in equal
      segments, and a query's latency is normalised by its segment's
      speed.  ``wall_s`` and ``throughput_qps`` use the median segment
      time, ``latency_ms_p50`` the median of the segments' own medians
      and ``latency_ms_p99`` all queries together.
    """
    passes = measured["passes"]
    requests = measured["requests"]
    if workload == "query":
        per_pass = len(requests) // len(passes)
        speeds = [samples.speed(start, end) for start, end in passes]
        segment = statistics.median((end - start) * rate for (start, end),
                                    rate in zip(passes, speeds))
        latencies = [(end - start) * 1000.0 * speeds[i // per_pass]
                     for i, (_key, start, end) in enumerate(requests)]
        wall = segment * len(passes)
        throughput = per_pass / segment
        p50 = statistics.median(
            statistics.median(latencies[i:i + per_pass])
            for i in range(0, len(latencies), per_pass))
        tail = tail_percentile(len(latencies))
        p99 = percentile(latencies, tail)
    else:
        groups: dict[str, list[float]] = {}
        for key, start, end in requests:
            groups.setdefault(key.split("/")[0], []).append(
                samples.normalised(start, end))
        medians = {name: statistics.median(times)
                   for name, times in groups.items()}
        wall = sum(len(groups[name]) / len(passes) * median
                   for name, median in medians.items())
        throughput = 1.0 / wall
        p50 = p99 = wall * 1000.0
        tail = 50
    raw = _span(passes) / len(passes)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "throughput_qps": throughput,
        "latency_ms_p50": p50,
        "latency_ms_p99": p99,
        "peak_rss_mb": measured["peak_kb"] / 1024.0,
    }, {"requests": len(requests), "passes": len(passes),
        "latency_tail_percentile": tail, "speed_samples": len(samples),
        **({} if workload == "query" else {"median_s": medians}),
        "raw_pass_s": raw,
        "speed": samples.speed(passes[0][0], passes[-1][1]),
        "stolen_s": samples.stolen(passes[0][0], passes[-1][1])}


def _span(passes: list) -> float:
    """Measured seconds of a list of ``(start, end)`` passes."""
    return sum(end - start for start, end in passes)


def per_layer(workload: str, result: dict, run_dir: Path,
              host_ms: float) -> dict:
    """The ledger; its times are measured, not normalised (the traced
    run samples no speed, so the probes stay out of its spans)."""
    traced, untraced = result["traced"], result["untraced"]
    metrics = {name: 0.0 for name in PER_LAYER}
    metrics.update(ledger.aggregate(ledger.load_records(run_dir / "trace")))
    for key, value in result["setup_l3"].items():
        metrics[f"l3.{key}"] += value
    if workload == "paper-grid":
        for key, start, end in traced["requests"]:
            metrics[f"cell.{key.split('/')[0]}_s"] += end - start
    elif workload == "swarm":
        for key, start, end in traced["requests"]:
            name = f"formation.{key}_s"
            if name in metrics:  # the smoke list has other formations
                metrics[name] += end - start
    else:
        before, after = traced["serve_before"], traced["serve_after"]
        for name in ("dispatched", "coalesced", "rejected", "errors"):
            key = f"serve.{name}"
            metrics[key] = (after["counters"].get(key, 0)
                            - before["counters"].get(key, 0))
        hist = [side["histograms"].get("serve.latency_ms", {})
                for side in (before, after)]
        count = hist[1].get("count", 0) - hist[0].get("count", 0)
        total = hist[1].get("total", 0.0) - hist[0].get("total", 0.0)
        metrics["serve.server_ms_mean"] = total / count if count else 0.0
        if traced["kernel_ms"]:
            metrics["serve.kernel_ms_p50"] = statistics.median(
                traced["kernel_ms"])
            metrics["serve.overhead_ms_p50"] = statistics.median(
                traced["overhead_ms"])
            metrics["serve.l1_hit_share"] = (traced["l1_hit_queries"]
                                             / len(traced["kernel_ms"]))
    metrics["trace.overhead_pct"] = 100.0 * (
        _span(traced["passes"]) / _span(untraced["passes"]) - 1.0)
    metrics["host.ref_ms"] = host_ms
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"),
                        help="one workload, or all three in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny lists and one set-up: a check that "
                             "finishes in seconds, not a measurement")
    args = parser.parse_args(argv)
    if args.workload != "all":
        return run_workload(args)
    codes = [run_workload(argparse.Namespace(**{**vars(args),
                                                 "workload": name}))
             for name in workloads.WORKLOADS]
    return max(codes)


def run_workload(args) -> int:
    """One workload's run: the steps of the module docstring."""
    deadline = monotonic() + RUN_BUDGET_S

    for needed in ("src/repro/__init__.py", "examples/paper.toml"):
        if not (ROOT / needed).is_file():
            print(f"perfbench: {needed} is missing; run from the root of "
                  f"a checkout of the program", file=sys.stderr)
            return 2

    runs = ROOT / RUNS_DIR
    run_dir = runs / (f"{args.workload}-s{args.seed}-t{args.trace}-"
                      f"{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        versions = pre_run(run_dir, deadline)
        host_start = host_ref_ms()
        # The traced run reports no set-up time: one set-up is enough.
        count = 1 if args.smoke or args.trace else SETUP_SAMPLES
        children = [run_child(args, run_dir, i, deadline, setup_only=True)
                    for i in range(count - 1)]
        children.append(run_child(args, run_dir, count - 1, deadline,
                                  setup_only=False))
        result = json.loads((run_dir / "result.json").read_text())
        host_ms = statistics.mean([host_start, host_ref_ms()])
        parts = [result["untraced"]] + (
            [result["traced"]] if args.trace else [])
        attempted = sum(part["attempted"] for part in parts)
        failures = [f for part in parts for f in part["failures"]]
        if args.trace:
            metrics = per_layer(args.workload, result, run_dir, host_ms)
            units, shape = PER_LAYER, {}
        else:
            setups = [speed.load(run_dir / f"speed-{i}").normalised(*child)
                      for i, child in enumerate(children)]
            metrics, shape = end_to_end(
                args.workload, result["untraced"], setups,
                speed.load(run_dir / f"speed-{count - 1}"))
            shape["raw_setup_s"] = [ready - spawn
                                    for spawn, ready in children]
            units = END_TO_END
    except (RunError, subprocess.SubprocessError, OSError, ValueError,
            KeyError) as exc:
        print(f"perfbench: {args.workload} run failed: {exc}",
              file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            runs.rmdir()
        except OSError:
            pass  # another run still owns a directory there

    for failure in failures:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"attempted={attempted} failed={len(failures)}")
    if not args.trace:
        for name, value in metrics.items():
            print(f"  {name} = {value:.6g} {END_TO_END[name]}")
    provenance = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "commit": commit_id(), "nproc": os.cpu_count(), **versions,
        "host.ref_ms": host_ms, "repro_switches": repro_switches(),
        **shape,
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
