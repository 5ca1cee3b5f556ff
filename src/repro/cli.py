"""Command-line interface to the library.

Usage examples::

    python -m repro.cli patterns
    python -m repro.cli detect cube
    python -m repro.cli check cube octagon
    python -m repro.cli form cube square_antiprism --seed 3 --svg out.svg
    python -m repro.cli experiment lemma7 --trials 10 --jobs 4
    python -m repro.cli experiment lemma7 --trace t.jsonl --metrics m.json
    python -m repro.cli serve --port 8750 --workers 4
    python -m repro.cli query formability cube octagon
    python -m repro.cli query symmetricity icosahedron --server 127.0.0.1:8750
    python -m repro.cli tables

Patterns are named-library entries (``python -m repro.cli patterns``
lists them) or paths to JSON files containing an ``n x 3`` array of
coordinates.

The ``form`` and ``experiment`` commands share a uniform flag
vocabulary: ``--seed`` / ``--cache-stats`` everywhere, plus the
observability sinks ``--trace PATH`` (JSONL span trace) and
``--metrics PATH`` (JSON logical-counter snapshot); ``experiment``
additionally takes ``--jobs N`` for its trial fan-out and
``--manifest PATH`` for the run manifest (a formation is one FSYNC
execution, so ``form`` has no ``--jobs``).  The ``experiment``
command is a thin shell over :func:`repro.api.run_experiment`.

``repro lint`` hands its arguments to :func:`repro.lint.cli.main`
unparsed, so reprolint's options are declared only there.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from repro import (
    Configuration,
    form_pattern,
    formability_report,
    symmetricity,
)
from repro.errors import ReproError
from repro.patterns.library import named_pattern, pattern_names

__all__ = ["main", "build_parser"]


def _load_pattern(spec: str) -> list[np.ndarray]:
    if spec in pattern_names():
        return named_pattern(spec)
    path = Path(spec)
    if path.exists():
        data = json.loads(path.read_text())
        return [np.asarray(row, dtype=float) for row in data]
    raise ReproError(
        f"unknown pattern {spec!r}: not a library name and not a file "
        f"(library: {', '.join(pattern_names())})")


def _cmd_patterns(_args) -> int:
    from repro.patterns.library import pattern_summaries

    for summary in pattern_summaries():
        print(f"{summary['name']:20s} n={summary['n']:3d}  "
              f"gamma={summary['gamma']}")
    return 0


def _cmd_detect(args) -> int:
    points = _load_pattern(args.pattern)
    config = Configuration(points)
    report = config.symmetry
    print(f"n = {config.n}")
    if report.kind != "finite":
        print(f"rotation group: {report.kind} "
              f"({report.infinite_kind or ''})")
        return 0
    print(f"gamma(P) = {report.group.spec} (order {report.group.order})")
    print("axes:")
    for axis in report.group.axes:
        status = "occupied" if axis.occupied else "free"
        print(f"  {axis.fold}-fold along "
              f"{np.round(axis.direction, 4)} [{status}]")
    rho = symmetricity(config) if not config.has_multiplicity else None
    if rho is not None:
        print(f"varrho(P) maximal = "
              f"{{{', '.join(str(s) for s in rho.maximal)}}}")
    if args.cache_stats:
        _emit_cache_stats()
    return 0


def _emit_cache_stats() -> None:
    """The one ``--cache-stats`` renderer: L1/L2/L3, sorted, stderr.

    Every command routes through :func:`repro.obs.metrics.
    render_cache_metrics`, so every command shows the same counters in
    the same format.
    """
    from repro.obs.metrics import render_cache_metrics

    print(render_cache_metrics(), file=sys.stderr)


def _cmd_check(args) -> int:
    initial = Configuration(_load_pattern(args.initial))
    target = Configuration(_load_pattern(args.target))
    report = formability_report(initial, target)
    print(report.explain())
    return 0 if report.formable else 1


def _cmd_form(args) -> int:
    from repro.obs import metrics as _metrics
    from repro.obs.trace import (JsonlTracer, NULL_TRACER, activated,
                                 render_phase_totals)

    initial = _load_pattern(args.initial)
    target = _load_pattern(args.target)
    tracer = JsonlTracer(args.trace) if args.trace else NULL_TRACER
    before = _metrics.registry().snapshot()
    try:
        with activated(tracer):
            result = form_pattern(initial, target, seed=args.seed,
                                  max_rounds=args.max_rounds)
    finally:
        tracer.close()
    if args.trace:
        print(render_phase_totals(tracer.phase_totals()), file=sys.stderr)
    print(f"formed: {result.reached} in {result.rounds} rounds")
    configurations = result.configurations
    for t, config in enumerate(configurations):
        report = config.symmetry
        spec = report.spec if report.kind == "finite" else report.kind
        print(f"  round {t}: gamma = {spec}")
    if args.svg:
        from repro.viz import render_execution_svg

        render_execution_svg(configurations, args.svg,
                             target=target)
        print(f"execution rendered to {args.svg}")
    if args.metrics:
        delta = _metrics.snapshot_delta(
            before, _metrics.registry().snapshot())
        _metrics.write_metrics(args.metrics, delta,
                               extra={"command": "form"})
    if args.cache_stats:
        _emit_cache_stats()
    return 0 if result.reached else 1


def _cmd_experiment(args) -> int:
    from dataclasses import asdict, is_dataclass

    from repro.api import ExperimentSpec, run_experiment

    spec = ExperimentSpec(
        trials=args.trials, seed=args.seed, jobs=args.jobs,
        trace_path=args.trace, metrics_path=args.metrics,
        manifest_path=args.manifest)
    result = run_experiment(args.name, spec)
    rows = [asdict(row) if is_dataclass(row) else row
            for row in result.rows]
    print(json.dumps(rows, indent=2, default=str))
    if args.trace:
        from repro.obs.trace import render_phase_totals

        print(render_phase_totals(
            result.manifest["timing"]["phases"]), file=sys.stderr)
    if args.cache_stats:
        _emit_cache_stats()
    return 0


def _query_points(spec: str):
    """A query pattern reference: library names pass through (the
    evaluator — local or remote — resolves them), files load here."""
    from repro.api import as_points

    if spec in pattern_names():
        return spec
    return as_points(_load_pattern(spec))


def _cmd_query(args) -> int:
    from repro.api import (
        FormabilityQuery,
        SymmetricityQuery,
        evaluate_query,
    )
    from repro.obs import metrics as _metrics
    from repro.obs.trace import JsonlTracer, NULL_TRACER, activated
    from repro.serve.protocol import canonical_result_text

    if args.what == "formability":
        query = FormabilityQuery(initial=_query_points(args.initial),
                                 target=_query_points(args.target))
    else:
        query = SymmetricityQuery(points=_query_points(args.pattern),
                                  multiset=args.multiset)
    tracer = JsonlTracer(args.trace) if args.trace else NULL_TRACER
    before = _metrics.registry().snapshot()
    try:
        with activated(tracer):
            if args.server:
                from repro.serve.client import ServeClient

                host, _, port_text = args.server.rpartition(":")
                try:
                    port = int(port_text)
                except ValueError:
                    raise ReproError(
                        f"--server takes HOST:PORT, got "
                        f"{args.server!r}") from None
                with ServeClient(host or "127.0.0.1", port) as client:
                    result = client.query(query)
            else:
                result = evaluate_query(query)
    finally:
        tracer.close()
    # The canonical deterministic view: identical bytes whether the
    # query ran locally or through any server.
    print(canonical_result_text(result))
    if args.metrics:
        delta = _metrics.snapshot_delta(
            before, _metrics.registry().snapshot())
        _metrics.write_metrics(args.metrics, delta,
                               extra={"command": "query"})
    if args.cache_stats:
        _emit_cache_stats()
    if result.kind == "formability":
        return 0 if result.verdict == "formable" else 1
    return 0


def _cmd_serve(args) -> int:
    from repro.obs import metrics as _metrics
    from repro.obs.trace import JsonlTracer, NULL_TRACER, activated
    from repro.serve.server import ServeConfig, serve_main

    config = ServeConfig(
        host=args.host, port=args.port, workers=args.workers,
        queue_depth=args.queue_depth, deadline_s=args.deadline)
    tracer = JsonlTracer(args.trace) if args.trace else NULL_TRACER
    before = _metrics.registry().snapshot()
    try:
        with activated(tracer):
            code = serve_main(config)
    finally:
        tracer.close()
    if args.metrics:
        delta = _metrics.snapshot_delta(
            before, _metrics.registry().snapshot())
        _metrics.write_metrics(args.metrics, delta,
                               extra={"command": "serve"})
    if args.cache_stats:
        _emit_cache_stats()
    return code


def _cmd_campaign(args) -> int:
    from repro.campaign import (
        generate_report,
        open_store,
        run_campaign,
        write_report,
    )
    if args.action == "run":
        if not args.spec:
            print("error: `repro campaign run` needs a spec file "
                  "(.toml or .json)", file=sys.stderr)
            return 2
        result = run_campaign(
            args.spec, jobs=args.jobs, store_path=args.store,
            max_cells=args.max_cells, fresh=args.fresh)
        print(result.render())
        if args.report:
            with open_store(result.store_path) as store:
                write_report(store, args.report)
            print(f"report written to {args.report}")
        if args.cache_stats:
            _emit_cache_stats()
        return 0
    with open_store(args.store, must_exist=True) as store:
        if args.action == "report":
            if args.output:
                write_report(store, args.output, fmt=args.format)
                print(f"report written to {args.output}")
            else:
                print(generate_report(store, args.format or "markdown"),
                      end="")
        elif args.action == "export":
            text = store.export_canonical()
            if args.output:
                Path(args.output).write_text(text, encoding="utf-8")
                print(f"canonical export written to {args.output}")
            else:
                print(text, end="")
        elif args.action == "status":
            cells = store.cells()
            by_experiment: dict[str, int] = {}
            for record in cells:
                name = record["experiment"]
                by_experiment[name] = by_experiment.get(name, 0) + 1
            print(f"campaign store {store.path}: "
                  f"{len(cells)} completed cells")
            for name, count in sorted(by_experiment.items()):
                print(f"  {name:20s} {count} cells")
    return 0


def _cmd_cache(args) -> int:
    from repro.perf import disk

    store = disk.disk_cache()
    if store is None:
        print("disk cache: disabled (REPRO_DISK_CACHE=0)")
        return 0
    if args.action == "clear":
        removed = store.clear()
        print(f"removed {removed} entries from {store.root}")
        return 0
    info = store.info()
    print(f"disk cache at {info['path']} (version {info['version']})")
    print(f"  entries: {info['entries']}  bytes: {info['bytes']}")
    for kind, counters in sorted(info["kinds"].items()):
        print(f"  {kind:10s} entries={counters['entries']} "
              f"bytes={counters['bytes']}")
    return 0


def _cmd_tables(_args) -> int:
    from repro.analysis.tables import (
        table1_polyhedral_groups,
        table2_transitive_sets,
        table3_symmetricity,
    )

    print("Table 1 — polyhedral groups")
    for row in table1_polyhedral_groups():
        print(f"  {row['group']}: order {row['computed_order']} "
              f"{row['computed']}  match={row['match']}")
    print("Table 2 — transitive sets")
    for row in table2_transitive_sets():
        print(f"  U_{{{row['group']},{row['folding']}}}: "
              f"|.| = {row['computed_cardinality']} "
              f"({row['shape']})  match={row['match']}")
    print("Table 3 — symmetricity")
    for row in table3_symmetricity():
        print(f"  U_{{{row['group']},{row['folding']}}}: varrho = "
              f"{{{', '.join(row['computed_maximal'])}}}  "
              f"match={row['match']}")
    return 0


_EXIT_CODES_EPILOG = """\
exit codes:
  0  success (for `check`/`form`: formable / pattern formed)
  1  negative result (`check`: unformable; `form`: not formed;
     `lint`: violations found)
  2  error (bad pattern name, unknown experiment, simulation failure)
"""


def _add_observability_flags(command, *, manifest: bool) -> None:
    """The uniform --seed/--cache-stats/--trace/--metrics set."""
    command.add_argument("--seed", type=int, default=0,
                         help="root seed (default 0)")
    command.add_argument(
        "--cache-stats", action="store_true",
        help="print L1/L2/L3 cache-hierarchy counters to stderr")
    command.add_argument(
        "--trace", metavar="PATH",
        help="write a schema-versioned JSONL span trace to PATH")
    command.add_argument(
        "--metrics", metavar="PATH",
        help="write the run's logical-counter snapshot to PATH as JSON")
    if manifest:
        command.add_argument(
            "--manifest", metavar="PATH",
            help="write the run manifest (seeds, versions, cache "
                 "config, row digest, timings) to PATH as JSON")


def build_parser() -> argparse.ArgumentParser:
    from repro.api import experiment_names

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Pattern formation for FSYNC mobile robots in 3D "
                    "(Yamauchi-Uehara-Yamashita, PODC 2016)",
        epilog=_EXIT_CODES_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("patterns", help="list the named pattern library"
                   ).set_defaults(func=_cmd_patterns)

    detect = sub.add_parser("detect", help="gamma(P) and varrho(P)")
    detect.add_argument("pattern")
    detect.add_argument("--cache-stats", action="store_true",
                        help="print congruence-cache hit/miss counters")
    detect.set_defaults(func=_cmd_detect)

    check = sub.add_parser("check", help="Theorem 1.1 formability test")
    check.add_argument("initial")
    check.add_argument("target")
    check.set_defaults(func=_cmd_check)

    form = sub.add_parser("form", help="run the formation simulation")
    form.add_argument("initial")
    form.add_argument("target")
    form.add_argument("--max-rounds", type=int, default=30)
    form.add_argument("--svg", help="render the execution to an SVG file")
    _add_observability_flags(form, manifest=False)
    form.set_defaults(func=_cmd_form)

    experiment = sub.add_parser(
        "experiment", help="run one paper experiment, rows as JSON")
    experiment.add_argument("name", choices=experiment_names())
    experiment.add_argument(
        "--trials", type=int, default=None,
        help="random trials per row (where applicable; default: the "
             "driver's documented default)")
    experiment.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the trial fan-out; rows and logical "
             "counters are identical for any value")
    _add_observability_flags(experiment, manifest=True)
    experiment.set_defaults(func=_cmd_experiment)

    query = sub.add_parser(
        "query", help="answer one typed query (locally or via a "
                      "`repro serve` server)")
    query_sub = query.add_subparsers(dest="what", required=True)
    q_form = query_sub.add_parser(
        "formability", help="is the target formable from the initial "
                            "configuration (Theorem 1.1)?")
    q_form.add_argument("initial")
    q_form.add_argument("target")
    q_sym = query_sub.add_parser(
        "symmetricity", help="gamma(P) / varrho(P) classification")
    q_sym.add_argument("pattern")
    q_sym.add_argument(
        "--multiset", action="store_true",
        help="Definition 6 semantics: points may carry multiplicity "
             "(as target patterns do)")
    for q_cmd in (q_form, q_sym):
        q_cmd.add_argument(
            "--server", metavar="HOST:PORT",
            help="send the query to a running `repro serve` instance "
                 "instead of evaluating in-process (the printed "
                 "deterministic view is byte-identical either way)")
        q_cmd.add_argument(
            "--cache-stats", action="store_true",
            help="print L1/L2/L3 cache-hierarchy counters to stderr")
        q_cmd.add_argument(
            "--trace", metavar="PATH",
            help="write a schema-versioned JSONL span trace to PATH")
        q_cmd.add_argument(
            "--metrics", metavar="PATH",
            help="write the query's counter delta to PATH as JSON")
        q_cmd.set_defaults(func=_cmd_query)

    serve = sub.add_parser(
        "serve", help="serve formability/symmetricity/run queries "
                      "over HTTP until SIGTERM (graceful drain)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument(
        "--port", type=int, default=0,
        help="bind port (default 0 = ephemeral; the bound port is "
             "printed as `serving on HOST:PORT`)")
    serve.add_argument(
        "--workers", type=int, default=0,
        help="worker processes for query evaluation (default 0 "
             "= inline threads; >0 runs the process pool that trials "
             "and campaign cells use, each worker with a warm L2 store)")
    serve.add_argument(
        "--queue-depth", type=int, default=16,
        help="max in-flight queries before 429 backpressure "
             "(default 16)")
    serve.add_argument(
        "--deadline", type=float, default=30.0,
        help="per-request deadline in seconds; waiters past it get "
             "504 but the computation still warms the caches "
             "(default 30)")
    serve.add_argument(
        "--cache-stats", action="store_true",
        help="print cache-hierarchy counters after drain")
    serve.add_argument(
        "--trace", metavar="PATH",
        help="write a JSONL span trace of every served request")
    serve.add_argument(
        "--metrics", metavar="PATH",
        help="write the serve session's counter delta to PATH on "
             "drain")
    serve.set_defaults(func=_cmd_serve)

    campaign = sub.add_parser(
        "campaign",
        help="run a declarative experiment campaign (resumable, "
             "pooled, results store)")
    campaign.add_argument("action",
                          choices=["run", "report", "export", "status"])
    campaign.add_argument(
        "spec", nargs="?",
        help="campaign spec file (.toml or .json; required for `run`)")
    campaign.add_argument(
        "--jobs", type=int, default=1,
        help="persistent warm workers for the cell fan-out (cells "
             "always run single-process inside a worker; store "
             "contents are byte-identical for any value)")
    campaign.add_argument(
        "--store", metavar="PATH",
        help="results store path (default: .repro-campaign/"
             "results.jsonl)")
    campaign.add_argument(
        "--max-cells", type=int, default=None,
        help="execute at most this many cells this invocation "
             "(re-run to resume the remainder)")
    campaign.add_argument(
        "--fresh", action="store_true",
        help="clear the store before running (default: resume — "
             "completed cells are skipped by digest)")
    campaign.add_argument(
        "--report", metavar="PATH",
        help="after `run`, also write the report to PATH "
             "(.html → HTML, else markdown)")
    campaign.add_argument(
        "--format", choices=["markdown", "html"], default=None,
        help="report format for `report` (default: markdown, or by "
             "--output suffix)")
    campaign.add_argument(
        "--output", metavar="PATH",
        help="write `report`/`export` output to PATH instead of stdout")
    campaign.add_argument("--cache-stats", action="store_true",
                          help="print cache-hierarchy counters after "
                               "`run`")
    campaign.set_defaults(func=_cmd_campaign)

    cache = sub.add_parser(
        "cache", help="inspect or clear the on-disk (L3) cache")
    cache.add_argument("action", choices=["info", "clear"])
    cache.set_defaults(func=_cmd_cache)

    sub.add_parser("tables", help="regenerate the paper's tables"
                   ).set_defaults(func=_cmd_tables)

    # No arguments of its own: main() hands everything after `lint` to
    # repro.lint.cli.main (`repro lint --help` prints reprolint's help).
    sub.add_parser(
        "lint", add_help=False,
        help="run reprolint (REP001-REP005, REP007-REP009 and REP011 "
             "invariant checks, including the cross-module dataflow "
             "rules); options as for `python -m repro.lint`")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args, rest = parser.parse_known_args(argv)
    if args.command == "lint":
        from repro.lint.cli import main as lint_main

        return lint_main(rest)
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
