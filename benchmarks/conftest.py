"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables/figures (or
validates a theorem/lemma empirically), asserts the paper-vs-measured
match, and prints the rows in the paper's shape.  Run with::

    pytest benchmarks/ --benchmark-only

Timing data comes from pytest-benchmark; the printed tables appear
with ``-s`` (and are also recorded in EXPERIMENTS.md).
"""

from __future__ import annotations

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--jobs", action="store", type=int, default=1,
        help="worker processes for experiment trial fan-out "
             "(results are bit-identical for any value)")


@pytest.fixture
def jobs(request) -> int:
    return request.config.getoption("--jobs")


def print_table(title: str, rows: list[dict]) -> None:
    """Print result rows as an aligned text table."""
    print(f"\n=== {title} ===")
    if not rows:
        print("(no rows)")
        return
    keys = list(rows[0].keys())
    widths = {k: max(len(str(k)), *(len(str(r.get(k))) for r in rows))
              for k in keys}
    header = " | ".join(str(k).ljust(widths[k]) for k in keys)
    print(header)
    print("-" * len(header))
    for row in rows:
        print(" | ".join(str(row.get(k)).ljust(widths[k]) for k in keys))
