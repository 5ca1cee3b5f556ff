"""Boot ``repro serve`` for the query workload and report its peak RSS.

    python3 -m perfbench.serve_host REPORT [--trace-dir DIR] \
        [--speed-dir DIR] -- SERVE-ARGS

Runs ``repro.cli serve SERVE-ARGS`` in this process.  With
``--trace-dir`` the ledger is installed first, so the server and the
pool workers it forks record spans; with ``--speed-dir`` they sample
their speed (:mod:`perfbench.speed`).  On exit (after the SIGTERM
drain) it writes ``{"self_kb", "children_kb"}`` to REPORT: this
process's peak RSS and the largest peak among its waited-for workers.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    if "--" not in argv:
        raise SystemExit("usage: serve_host REPORT [--trace-dir DIR] "
                         "[--speed-dir DIR] -- SERVE-ARGS")
    split = argv.index("--")
    parser = argparse.ArgumentParser(prog="serve_host")
    parser.add_argument("report", type=Path)
    parser.add_argument("--trace-dir", type=Path, default=None)
    parser.add_argument("--speed-dir", type=Path, default=None)
    args = parser.parse_args(argv[:split])

    if args.speed_dir is not None:
        from perfbench import speed

        speed.start(args.speed_dir)

    if args.trace_dir is not None:
        from perfbench import ledger

        ledger.install(args.trace_dir)
    from repro.cli import main as repro_main

    code = repro_main(["serve", *argv[split + 1:]])
    if args.speed_dir is not None:
        speed.stop()
    if args.trace_dir is not None:
        ledger.flush()
    args.report.write_text(json.dumps({
        "self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children_kb": resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss,
    }))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
