"""Worker-count and cache-level invariance over 200+ configurations.

The cache hierarchy's contract is that *nothing about it is
observable* in results: rows must be byte-identical whether trials run
inline (``jobs=1`` — no L2 store at all), across 2 or 4 workers
(L2 shared store active), or against a cold vs warm L3 on-disk store.
Each trial row serializes every float through ``float.hex`` so the
comparison is bit-exact, not tolerance-based.
"""

import json

import numpy as np
import pytest

from repro import perf
from repro.core.configuration import Configuration
from repro.core.symmetricity import symmetricity
from repro.patterns.library import named_pattern, pattern_names
from repro.perf import disk, parallel_map, spawn_seeds
from repro.robots.adversary import random_frames
from repro.robots.algorithms.go_to_center import (
    go_to_center_algorithm,
    recognize_goc_polyhedron,
)
from repro.robots.scheduler import FsyncScheduler

_PATTERNS = pattern_names()
_CASES = 216  # > 200 distinct configurations, by construction below


@pytest.fixture(autouse=True)
def fresh_caches():
    perf.clear_caches()
    yield
    perf.clear_caches()


def _case_points(index, stream):
    """Deterministic configuration for one case: library patterns,
    their congruent copies (exercising cache alignment), and generic
    random clouds, cycling so repeats land in different workers."""
    rng = np.random.default_rng(stream)
    kind = index % 3
    if kind == 0:
        return named_pattern(_PATTERNS[(index // 3) % len(_PATTERNS)]), rng
    if kind == 1:
        count = 4 + (index // 3) % 9
        return [rng.normal(size=3) for _ in range(count)], rng
    base = named_pattern(_PATTERNS[(index // 3) % len(_PATTERNS)])
    from repro.geometry.rotations import random_rotation

    rot = random_rotation(rng)
    scale = float(rng.uniform(0.5, 2.0))
    shift = rng.normal(size=3)
    return [shift + scale * (rot @ p) for p in base], rng


def _hex_points(points):
    return [[float(x).hex() for x in np.asarray(p, dtype=float)]
            for p in points]


def _equivalence_row(payload):
    index, stream = payload
    points, rng = _case_points(index, stream)
    config = Configuration(points)
    report = config.symmetry
    row = {
        "index": index,
        "n": config.n,
        "gamma": (str(report.spec) if report.kind == "finite"
                  else report.kind),
    }
    if report.kind == "finite" and not config.has_multiplicity:
        row["rho"] = sorted(str(s) for s in symmetricity(config).maximal)
    if recognize_goc_polyhedron(points) is not None:
        frames = random_frames(len(points), rng)
        scheduler = FsyncScheduler(go_to_center_algorithm, frames)
        row["after"] = _hex_points(scheduler.step(config))
    return row


def _run_sweep(jobs):
    streams = spawn_seeds(20260806, _CASES)
    items = list(zip(range(_CASES), streams))
    rows = parallel_map(_equivalence_row, items, jobs=jobs)
    return json.dumps(rows, sort_keys=True)


class TestWorkerCountInvariance:
    def test_rows_identical_for_jobs_1_2_4(self, tmp_path):
        """jobs=1 runs inline with no L2 store; 2 and 4 share one.
        All three byte-identical ⇒ neither the pool nor the shared
        store is observable."""
        disk.configure(root=tmp_path / "l3")
        try:
            reference = _run_sweep(jobs=1)
            assert _run_sweep(jobs=2) == reference
            assert _run_sweep(jobs=4) == reference
        finally:
            disk.configure()

    def test_rows_identical_for_cold_and_warm_l3(self, tmp_path):
        disk.configure(root=tmp_path / "l3-coldwarm")
        try:
            cold = _run_sweep(jobs=2)
            warm = _run_sweep(jobs=2)
            assert warm == cold
        finally:
            disk.configure()

    def test_rows_identical_with_l3_disabled(self, tmp_path):
        disk.configure(root=tmp_path / "l3-ref")
        try:
            with_l3 = _run_sweep(jobs=1)
        finally:
            disk.configure(enabled=False)
        try:
            without_l3 = _run_sweep(jobs=1)
        finally:
            disk.configure()
        assert with_l3 == without_l3
