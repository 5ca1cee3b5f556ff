"""Batched Compute vs the per-robot reference path.

The batched strategy (``compute_batch`` over the round's
:class:`repro.robots.model.BatchView`) is a pure execution strategy:
every destination it produces must be the one the per-robot callable
would have chosen from its own observation alone.  This suite holds
the two engines together three ways:

* per-round destination equivalence over a configuration zoo covering
  the ported algorithms (go-to-center, ψ_SYM with each of its
  symmetry-breaking moves, ψ_PF, plane formation with its landing
  phase) under adversarial local frames;
* byte-identical experiment rows for every registered experiment with
  the batched engine forced on and forced off;
* the fallback contract — plain callables, and every algorithm while
  ``set_batched_compute(False)`` holds, run through the reference loop
  and the ``scheduler.batched_fallbacks`` counter records it, while a
  ``compute_batch`` that answers ``None`` is an error.
"""

import json
from dataclasses import asdict, is_dataclass

import numpy as np
import pytest

from repro import perf
from repro.core.configuration import Configuration
from repro.errors import SimulationError
from repro.geometry import convex
from repro.obs import metrics as _metrics
from repro.patterns import polyhedra
from repro.patterns.library import named_pattern
from repro.planeformation import make_plane_formation_algorithm
from repro.robots.adversary import random_frames
from repro.robots.algorithms import sym
from repro.robots.algorithms.go_to_center import go_to_center_algorithm
from repro.robots.algorithms.pattern_formation import (
    make_pattern_formation_algorithm,
)
from repro.robots.algorithms.sym import psi_sym
from repro.robots.movement import NonRigidMovement
from repro.robots.scheduler import (
    FsyncScheduler,
    batched_compute_enabled,
    set_batched_compute,
)


@pytest.fixture(autouse=True)
def fresh_caches():
    perf.clear_caches()
    perf.set_enabled(True)
    yield
    perf.set_enabled(True)
    perf.clear_caches()


def _fallbacks() -> int:
    counters = _metrics.registry().snapshot()["counters"]
    return counters.get("scheduler.batched_fallbacks", 0)


def _step(algorithm, frames, points, batched: bool, target=None):
    """One round on the chosen Compute engine, checked to run there."""
    set_batched_compute(batched)
    try:
        before = _fallbacks()
        reached = FsyncScheduler(algorithm, frames, target=target).step(
            Configuration(points))
        assert _fallbacks() == before + (0 if batched else 1)
    finally:
        set_batched_compute(True)
    return reached


def _posed(points, rng):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    rot = np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])
    scale = float(rng.uniform(0.5, 3.0))
    shift = rng.normal(size=3)
    return [rot @ (scale * np.asarray(p, dtype=float)) + shift
            for p in points]


def _instance(seed: int):
    """(algorithm, points, target) covering every batched code path."""
    rng = np.random.default_rng(seed)
    family = seed % 6
    if family == 0:  # ψ_PF on a generic cloud (matching + conjugation)
        n = int(rng.integers(4, 13))
        points = [rng.normal(size=3) for _ in range(n)]
        target = polyhedra.regular_polygon_pattern(n)
        return make_pattern_formation_algorithm(target), points, target
    if family == 1:  # go-to-center on its recognized polyhedra
        name = ("cube", "octahedron", "icosahedron")[seed % 3]
        return go_to_center_algorithm, _posed(named_pattern(name), rng), None
    if family == 2:  # ψ_SYM on a symmetric polyhedron (orbit moves)
        name = ("cube", "icosahedron", "dodecahedron")[seed % 3]
        return psi_sym, _posed(named_pattern(name), rng), None
    if family == 3:  # ψ_SYM on concentric shells (shrink selection)
        k = int(rng.integers(3, 7))
        inner = [0.5 * np.asarray(p) for p in
                 polyhedra.regular_polygon_pattern(k)]
        outer = list(polyhedra.antiprism(k))
        return psi_sym, _posed(inner + outer, rng), None
    if family == 4:  # ψ_SYM on a generic cloud (trivial-group branch)
        n = int(rng.integers(4, 10))
        return psi_sym, [rng.normal(size=3) for _ in range(n)], None
    # family == 5: ψ_SYM on a collinear configuration (infinite group)
    k = int(rng.integers(3, 6))
    line = [np.array([0.0, 0.0, float(h)]) for h in range(-k, k + 1)]
    return psi_sym, _posed(line, rng), None


@pytest.mark.parametrize("seed", range(36))
def test_batched_destinations_match_per_robot(seed):
    """Both engines land every robot on the same world destination."""
    algorithm, points, target = _instance(seed)
    frames = random_frames(len(points), np.random.default_rng(1000 + seed))

    perf.clear_caches()
    batched = _step(algorithm, frames, points, True, target)
    perf.clear_caches()
    reference = _step(algorithm, frames, points, False, target)

    scale = max(Configuration(points).radius, 1.0)
    for a, b in zip(batched, reference):
        assert float(np.linalg.norm(a - b)) <= 1e-7 * scale


def _step_both(algorithm, points, frames, reference_l1=True):
    """One round on each engine; the reference may run with L1 off."""
    perf.clear_caches()
    batched = _step(algorithm, frames, points, True)
    perf.clear_caches()
    perf.set_enabled(reference_l1)
    try:
        reference = _step(algorithm, frames, points, False)
    finally:
        perf.set_enabled(True)
    scale = max(Configuration(points).radius, 1.0)
    for a, b in zip(batched, reference):
        assert float(np.linalg.norm(a - b)) <= 1e-7 * scale


def _pentagon(z: float = 0.0) -> list[np.ndarray]:
    return [np.array([np.cos(2 * np.pi * k / 5),
                      np.sin(2 * np.pi * k / 5), z]) for k in range(5)]


# ψ_SYM inputs whose first round is a frame-dependent move, with the
# per-robot function that move must pass through.
SYMMETRY_BREAKING = {
    "D5_corner": (_pentagon() + [np.array([0.0, 0.0, 0.3]),
                                 np.array([0.0, 0.0, -0.3])],
                  "_go_to_corner"),
    "D2_corner": ([np.array([x, y, 0.0]) for x in (1.0, -1.0)
                   for y in (0.6, -0.6)]
                  + [np.array([0.0, 0.0, 0.2]),
                     np.array([0.0, 0.0, -0.2])],
                  "principal_axis_of_d2"),
    "C5_sphere": (_pentagon() + [np.array([0.0, 0.0, 0.4])],
                  "_go_to_sphere"),
    # The selected orbit is the centre robot alone: it goes to the
    # sphere and no robot runs go-to-center.
    "cube_centre": (named_pattern("cube") + [np.zeros(3)],
                    "_go_to_sphere"),
}

# ψ_SYM-terminal inputs: plane formation's first round is the landing.
TERMINAL = {
    "prism3": polyhedra.prism(3),
    "antiprism5": polyhedra.antiprism(5),
    "antiprism4_prism4": polyhedra.antiprism(4)
    + [0.5 * p for p in polyhedra.prism(4)],
    "cloud": [np.random.default_rng(5).normal(size=3) for _ in range(9)],
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", sorted(SYMMETRY_BREAKING))
def test_symmetry_breaking_moves_match_per_robot(name, seed, monkeypatch):
    """Go-to-corner (D_k and D_2), go-to-sphere and the occupied
    centre: the world-frame plan lands where each robot's own
    derivation does."""
    shape, expected = SYMMETRY_BREAKING[name]
    calls = []
    original = getattr(sym, expected)

    def counted(*args, **kwargs):
        calls.append(expected)
        return original(*args, **kwargs)

    monkeypatch.setattr(sym, expected, counted)
    rng = np.random.default_rng(seed)
    points = _posed(shape, rng)
    _step_both(psi_sym, points, random_frames(len(points), rng))
    assert calls  # the zoo reaches the move it is named for


@pytest.mark.parametrize("reference_l1", [True, False],
                         ids=["l1", "no_l1"])
@pytest.mark.parametrize("name", sorted(SYMMETRY_BREAKING) + sorted(TERMINAL))
def test_plane_formation_matches_per_robot(name, reference_l1):
    """Plane formation's batched round — ψ_SYM or the landing — against
    the per-robot reference, with and without L1 on the reference."""
    shape = SYMMETRY_BREAKING[name][0] if name in SYMMETRY_BREAKING \
        else TERMINAL[name]
    for seed in range(3):
        rng = np.random.default_rng(20 + seed)
        points = _posed(shape, rng)
        _step_both(make_plane_formation_algorithm(), points,
                   random_frames(len(points), rng), reference_l1)


def test_go_to_center_round_builds_one_hull(monkeypatch):
    """ψ_SYM's go-to-center round on an icosahedron builds the hull once
    in the world frame, not once per moving robot."""
    built = []
    original = convex.ConvexPolyhedron.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(convex.ConvexPolyhedron, "__init__", counted)
    rng = np.random.default_rng(3)
    points = _posed(named_pattern("icosahedron"), rng)
    scheduler = FsyncScheduler(psi_sym, random_frames(12, rng))
    moved = scheduler.step(Configuration(points))
    assert len(built) == 1
    assert not np.allclose(np.asarray(moved), np.asarray(points))


@pytest.mark.parametrize("seed", range(8))
def test_batched_run_matches_per_robot_run(seed):
    """Whole ψ_PF executions agree round by round, not just one step."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 9))
    points = [rng.normal(size=3) for _ in range(n)]
    target = polyhedra.regular_polygon_pattern(n)
    frames = random_frames(n, rng)
    algorithm = make_pattern_formation_algorithm(target)

    traces = {}
    for batched in (True, False):
        perf.clear_caches()
        scheduler = FsyncScheduler(algorithm, frames, target=target)
        set_batched_compute(batched)
        try:
            result = scheduler.run(
                points, stop_condition=lambda c: c.is_similar_to(target),
                max_rounds=30)
        finally:
            set_batched_compute(True)
        assert result.reached
        traces[batched] = result.positions

    assert len(traces[True]) == len(traces[False])
    for batched_round, reference_round in zip(traces[True], traces[False]):
        scale = max(Configuration(reference_round).radius, 1.0)
        for a, b in zip(batched_round, reference_round):
            assert float(np.linalg.norm(a - b)) <= 1e-6 * scale


EXPERIMENTS = ("lemma7", "theorem41", "theorem11", "figure1",
               "plane_formation", "baseline_2d")


def _canonical_rows(rows) -> str:
    payload = [asdict(row) if is_dataclass(row) else row for row in rows]
    return json.dumps(payload, sort_keys=True, default=str)


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_experiment_rows_identical_on_both_engines(name):
    """Forcing the per-robot reference engine, or switching the L1
    caches off, changes no row bytes."""
    from repro.api import ExperimentSpec, run_experiment

    assert batched_compute_enabled()
    runs = {"batched": (True, ExperimentSpec(trials=2, seed=0, jobs=1)),
            "per_robot": (False, ExperimentSpec(trials=2, seed=0, jobs=1)),
            "uncached": (True, ExperimentSpec(trials=2, seed=0, jobs=1,
                                              cache=False))}
    rendered = {}
    try:
        for label, (batched, spec) in runs.items():
            set_batched_compute(batched)
            perf.clear_caches()
            rendered[label] = _canonical_rows(
                run_experiment(name, spec).rows)
    finally:
        set_batched_compute(True)
    assert rendered["per_robot"] == rendered["batched"]
    assert rendered["uncached"] == rendered["batched"]


class _DecliningAlgorithm:
    """A batched algorithm that answers ``None`` for the round."""

    def __call__(self, observation):
        return observation.own_position()

    def compute_batch(self, batch):
        return None


class TestFallback:
    def test_plain_callable_runs_reference_loop(self):
        n = 6
        rng = np.random.default_rng(2)
        points = [rng.normal(size=3) for _ in range(n)]

        def contract(observation):
            views = np.asarray(observation.points)
            me = views[observation.self_index]
            return me + 0.25 * (views.mean(axis=0) - me)

        scheduler = FsyncScheduler(contract, random_frames(n, rng))
        before = _fallbacks()
        destinations = scheduler.step(Configuration(points))
        assert _fallbacks() == before + 1
        assert len(destinations) == n

    def test_declining_compute_batch_is_rejected(self):
        """``compute_batch`` always answers: ``None`` is an error, not a
        fallback to the per-robot loop."""
        n = 5
        rng = np.random.default_rng(3)
        points = [rng.normal(size=3) for _ in range(n)]
        scheduler = FsyncScheduler(_DecliningAlgorithm(),
                                   random_frames(n, rng))
        before = _fallbacks()
        with pytest.raises(SimulationError):
            scheduler.step(Configuration(points))
        assert _fallbacks() == before

    def test_process_default_disables_batching(self):
        n = 6
        rng = np.random.default_rng(4)
        points = [rng.normal(size=3) for _ in range(n)]
        target = polyhedra.regular_polygon_pattern(n)
        algorithm = make_pattern_formation_algorithm(target)
        scheduler = FsyncScheduler(algorithm, random_frames(n, rng),
                                   target=target)
        config = Configuration(points)
        assert batched_compute_enabled()
        try:
            set_batched_compute(False)
            before = _fallbacks()
            scheduler.step(config)
            assert _fallbacks() == before + 1
        finally:
            set_batched_compute(True)
        # The switch is read at every step, so the same scheduler is
        # back on the batched engine.
        before = _fallbacks()
        scheduler.step(config)
        assert _fallbacks() == before


def test_nonrigid_move_batch_matches_per_robot_stream():
    """``execute_batch`` consumes the adversary's stream exactly as the
    sequential per-robot loop does — bit-identical reached positions."""
    rng = np.random.default_rng(9)
    starts = rng.normal(size=(12, 3))
    destinations = starts + rng.normal(size=(12, 3))

    loop_model = NonRigidMovement(0.3, np.random.default_rng(77))
    looped = np.asarray([loop_model.execute(s, d)
                         for s, d in zip(starts, destinations)])
    batch_model = NonRigidMovement(0.3, np.random.default_rng(77))
    batched = batch_model.execute_batch(starts, destinations)
    assert np.array_equal(looped, batched)
