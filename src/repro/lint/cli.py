"""Command line front end: ``python -m repro.lint`` / ``repro lint``.

Exit codes: 0 clean, 1 findings, 2 usage error.  JSON output is a
stable schema (``tests/lint/test_cli.py::TestJsonSchema`` pins it)::

    {
      "version": 1,
      "files": 42,
      "suppressed": 3,
      "by_rule": {"REP001": 2},
      "violations": [
        {"rule": "REP001", "path": "src/...", "line": 10,
         "col": 4, "message": "..."}
      ]
    }
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.lint.framework import LintReport, run_paths
from repro.lint.rules import default_rules

__all__ = ["main", "report_as_json", "render_text"]

JSON_SCHEMA_VERSION = 1

_DEFAULT_PATHS = ("src", "benchmarks")


def report_as_json(report: LintReport) -> dict[str, object]:
    """The stable JSON payload for a finished run."""
    return {
        "version": JSON_SCHEMA_VERSION,
        "files": report.files,
        "suppressed": report.suppressed,
        "by_rule": report.by_rule,
        "violations": [v.as_json() for v in report.violations],
    }


def render_text(report: LintReport) -> str:
    lines = [v.render() for v in report.violations]
    lines.append(
        f"reprolint: {len(report.violations)} finding(s), "
        f"{report.suppressed} suppressed, {report.files} file(s)")
    return "\n".join(lines)


def _list_rules() -> str:
    lines = []
    for rule in default_rules():
        lines.append(f"{rule.rule_id}  {rule.summary}")
    return "\n".join(lines)


def _render(report: LintReport, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report_as_json(report), indent=2)
    return render_text(report)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="Domain-specific static analysis for the "
                    "reproduction: tolerance discipline, "
                    "obliviousness, cache purity, seeding, "
                    "determinism, campaign purity, facade contracts, "
                    "and the cross-module dataflow rules (taint, "
                    "seed provenance).")
    parser.add_argument(
        "paths", nargs="*", default=list(_DEFAULT_PATHS),
        help="files or directories to lint (default: src benchmarks)")
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)")
    parser.add_argument(
        "--output", default=None,
        help="write the report to this file (in --format) and print "
             "only the one-line summary to stdout")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the registered rules and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"repro.lint: path(s) not found: {', '.join(missing)}",
              file=sys.stderr)
        return 2

    report = run_paths(args.paths, default_rules())
    if args.output is not None:
        rendered = _render(report, args.format)
        Path(args.output).write_text(rendered + "\n", encoding="utf-8")
        print(render_text(report).splitlines()[-1])
    else:
        print(_render(report, args.format))
    return report.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
