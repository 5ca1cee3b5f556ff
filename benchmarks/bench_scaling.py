"""Experiment SCALE — scaling ablations (not in the paper).

Measures the cost of the building blocks as the number of robots
grows: gamma(P) detection, the symmetricity computation, and a full
psi_PF formation round.  Also ablates the epsilon parameter of
go-to-center (the paper fixes epsilon = edge/100; Lemma 7's argument
is an epsilon -> 0 limit, so the outcome must be insensitive for all
small epsilon).
"""

import numpy as np
import pytest

from conftest import print_table

from repro.core.configuration import Configuration
from repro.core.symmetricity import symmetricity
from repro.groups.detection import detect_rotation_group
from repro.patterns import polyhedra
from repro.robots.adversary import random_frames
from repro.robots.algorithms import go_to_center
from repro.robots.algorithms.pattern_formation import (
    make_pattern_formation_algorithm,
)
from repro.robots.scheduler import FsyncScheduler


@pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 256])
def test_detection_scaling(benchmark, n):
    rng = np.random.default_rng(n)
    points = [rng.normal(size=3) for _ in range(n)]
    report = benchmark(detect_rotation_group, points)
    assert report.kind == "finite"


@pytest.mark.parametrize("name", ["cube", "icosahedron",
                                  "icosidodecahedron"])
def test_symmetricity_scaling(benchmark, name):
    """Cold ϱ(P) cost: pattern construction happens in setup, never
    inside the timed region, and the congruence caches are cleared
    before each round so every measurement is a full computation."""
    from repro import perf
    from repro.patterns.library import named_pattern

    points = named_pattern(name)

    def setup():
        perf.clear_caches()
        return (Configuration(points),), {}

    rho = benchmark.pedantic(symmetricity, setup=setup,
                             rounds=3, iterations=1)
    assert rho.maximal


@pytest.mark.parametrize("name", ["cube", "icosahedron"])
def test_symmetricity_scaling_warm(benchmark, name):
    """Warm ϱ(P) cost: the congruence class is already cached, so the
    timed region covers alignment plus conjugation only."""
    from repro import perf
    from repro.patterns.library import named_pattern

    points = named_pattern(name)
    perf.clear_caches()
    symmetricity(Configuration(points))  # populate the class entry

    rho = benchmark.pedantic(
        lambda: symmetricity(Configuration(points)),
        rounds=3, iterations=2)
    assert rho.maximal
    assert perf.cache_stats()["symmetry"]["hits"] >= 1


def _formation_run(n):
    rng = np.random.default_rng(n)
    initial = [rng.normal(size=3) for _ in range(n)]
    target = polyhedra.regular_polygon_pattern(n)
    frames = random_frames(n, rng)
    algorithm = make_pattern_formation_algorithm(target)
    scheduler = FsyncScheduler(algorithm, frames, target=target)
    return lambda: scheduler.run(
        initial, stop_condition=lambda c: c.is_similar_to(target),
        max_rounds=30)


@pytest.mark.parametrize("n", [6, 10, 16])
def test_formation_round_scaling(benchmark, n):
    """Cold full ψ_PF run: the congruence caches are cleared in setup
    (outside the timed region) before every round, so each measurement
    pays the once-per-class detection/embedding/matching cost, and
    enough rounds run for a real stddev."""
    from repro import perf

    run = _formation_run(n)

    def setup():
        perf.clear_caches()
        return (), {}

    result = benchmark.pedantic(run, setup=setup, rounds=5, iterations=1)
    assert result.reached


@pytest.mark.parametrize("n", [6, 10, 16])
def test_formation_round_scaling_warm(benchmark, n):
    """Warm full ψ_PF run: every congruence class of the execution is
    already cached, so the timed region covers the batched Look phase,
    certified alignments, and payload conjugation only."""
    from repro import perf

    run = _formation_run(n)
    perf.clear_caches()
    run()  # populate every class the execution touches

    result = benchmark.pedantic(run, rounds=5, iterations=1)
    assert result.reached
    assert perf.cache_stats()["round"]["hits"] > 0


def test_epsilon_ablation(benchmark):
    """Lemma 7 outcome is insensitive to epsilon (for small epsilon)."""
    from repro.core.symmetricity import symmetricity
    from repro.patterns.library import named_pattern

    original = go_to_center.EPSILON_FRACTION
    rows = []

    def sweep():
        results = []
        for fraction in (0.001, 0.005, 0.01, 0.05):
            go_to_center.EPSILON_FRACTION = fraction
            points = named_pattern("cube")
            rho = symmetricity(Configuration(points))
            frames = random_frames(8, np.random.default_rng(7))
            scheduler = FsyncScheduler(
                go_to_center.go_to_center_algorithm, frames)
            after = Configuration(scheduler.step(Configuration(points)))
            spec = after.symmetry.spec
            results.append({"epsilon_fraction": fraction,
                            "gamma_after": str(spec),
                            "in_rho": spec in rho.specs})
        return results

    try:
        rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    finally:
        go_to_center.EPSILON_FRACTION = original
    print_table("epsilon ablation (go-to-center, cube)", rows)
    assert all(row["in_rho"] for row in rows)


# ---------------------------------------------------------------------------
# Swarm scale (ROADMAP north star: n in the thousands).  These sizes
# are where the O(n²) candidate-axis enumeration used to dominate; the
# k-d shell pruning keeps detection near-linear, so the curve through
# n=4096 must stay under the old n=256 cost.
# ---------------------------------------------------------------------------

SWARM_SIZES = [256, 1024, 4096]


@pytest.mark.parametrize("n", SWARM_SIZES)
def test_swarm_detection_scaling(benchmark, n):
    """γ(P) detection on generic (asymmetric) swarms: the cost is the
    axis-candidate sweep, which the shell pruning bends sub-quadratic."""
    rng = np.random.default_rng(n)
    points = [rng.normal(size=3) for _ in range(n)]
    report = benchmark(detect_rotation_group, points)
    benchmark.extra_info["n"] = n
    assert report.kind == "finite"


@pytest.mark.parametrize("n", SWARM_SIZES)
def test_swarm_decomposition_scaling(benchmark, n):
    """Orbit decomposition of a maximally symmetric swarm (a regular
    n-gon: one orbit, group order 2n) — one k-d range query per orbit
    instead of a greedy O(|G|·n²) claim sweep."""
    from repro.core.decomposition import orbit_decomposition

    points = polyhedra.regular_polygon_pattern(n)
    config = Configuration(points)
    group = config.symmetry.group
    orbits = benchmark(orbit_decomposition, config, group)
    benchmark.extra_info["group_order"] = group.order
    assert len(orbits) == 1


class _SwarmContract:
    """Mean-field contraction exposing both Compute engines.

    The per-robot ``__call__`` is the reference; ``compute_batch``
    answers the whole round from the ``(n, n, 3)`` local-view tensor.
    Both express the same map (a robot's own local position is the
    origin, so the destination is a quarter of the local centroid)."""

    def __call__(self, observation):
        views = np.asarray(observation.points)
        me = views[observation.self_index]
        return me + 0.25 * (views.mean(axis=0) - me)

    def compute_batch(self, batch):
        own = batch.own_rows()
        return own + 0.25 * (batch.local.mean(axis=1) - own)


@pytest.mark.parametrize("n", SWARM_SIZES)
def test_swarm_round_scaling(benchmark, n):
    """One full Look–Compute–Move cycle on the batched round engine:
    the Look einsum, one ``compute_batch`` over the local-view tensor,
    and the vectorized Move — no per-robot Python objects on the hot
    path.  One warmup round keeps allocator/BLAS first-touch out of
    the measurement (a run's rounds after the first are the steady
    state).  ``test_swarm_round_fallback_scaling`` keeps the
    per-robot reference engine's cost on record next to it."""
    from repro.robots.adversary import identity_frames

    rng = np.random.default_rng(n)
    config = Configuration([rng.normal(size=3) for _ in range(n)])

    scheduler = FsyncScheduler(_SwarmContract(), identity_frames(n))
    destinations = benchmark.pedantic(
        scheduler.step, args=(config,), rounds=3, iterations=1,
        warmup_rounds=1)
    assert len(destinations) == n


@pytest.mark.parametrize("n", [256, 1024])
def test_swarm_round_fallback_scaling(benchmark, n):
    """The same round through the per-robot reference loop (one
    ``Observation`` per robot): the cost the batched engine removes."""
    from repro.robots.adversary import identity_frames
    from repro.robots.scheduler import set_batched_compute

    rng = np.random.default_rng(n)
    config = Configuration([rng.normal(size=3) for _ in range(n)])

    scheduler = FsyncScheduler(_SwarmContract(), identity_frames(n))
    set_batched_compute(False)
    try:
        destinations = benchmark.pedantic(
            scheduler.step, args=(config,), rounds=3, iterations=1,
            warmup_rounds=1)
    finally:
        set_batched_compute(True)
    assert len(destinations) == n
