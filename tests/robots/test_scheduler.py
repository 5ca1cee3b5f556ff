"""Tests for the FSYNC scheduler."""

import collections
import gc
import weakref

import numpy as np
import pytest

from repro.core.configuration import Configuration
from repro.errors import SimulationError
from repro.patterns.library import compose_shells, named_pattern
from repro.robots.adversary import identity_frames, random_frames
from repro.robots.model import OBLIVIOUS_STAY, Observation
from repro.robots.scheduler import FsyncScheduler
from tests.conftest import generic_cloud


def go_toward_centroid(observation: Observation) -> np.ndarray:
    """Test algorithm: move halfway toward the observed centroid."""
    centroid = np.mean(observation.points, axis=0)
    return centroid / 2.0


class TestStep:
    def test_stay_keeps_positions(self, cube):
        scheduler = FsyncScheduler(OBLIVIOUS_STAY, identity_frames(8))
        after = scheduler.step(Configuration(cube))
        for a, b in zip(after, cube):
            assert np.allclose(a, b)

    def test_synchronous_semantics(self):
        # All robots observe P(t), none observes a partial move: with
        # the centroid algorithm and two robots, both must land at
        # symmetric midpoints simultaneously.
        pts = [np.array([0.0, 0, 0]), np.array([4.0, 0, 0])]
        scheduler = FsyncScheduler(go_toward_centroid, identity_frames(2))
        after = scheduler.step(Configuration(pts))
        assert np.allclose(after[0], [1.0, 0, 0])
        assert np.allclose(after[1], [3.0, 0, 0])

    def test_frame_invariance_of_contraction(self, rng):
        # The centroid algorithm is similarity-equivariant, so the
        # global trajectory must be frame-independent.
        config = Configuration(generic_cloud(6, seed=3))
        a = FsyncScheduler(go_toward_centroid,
                           identity_frames(6)).step(config)
        b = FsyncScheduler(go_toward_centroid,
                           random_frames(6, rng)).step(config)
        for x, y in zip(a, b):
            assert np.allclose(x, y, atol=1e-9)

    def test_frame_count_mismatch(self, cube):
        scheduler = FsyncScheduler(OBLIVIOUS_STAY, identity_frames(5))
        with pytest.raises(SimulationError):
            scheduler.step(Configuration(cube))

    def test_bad_algorithm_output_rejected(self, cube):
        scheduler = FsyncScheduler(lambda obs: np.array([np.inf, 0, 0]),
                                   identity_frames(8))
        with pytest.raises(SimulationError):
            scheduler.step(Configuration(cube))


class TestRun:
    def test_stop_condition_checked_on_initial(self, cube):
        scheduler = FsyncScheduler(OBLIVIOUS_STAY, identity_frames(8))
        result = scheduler.run(cube, stop_condition=lambda c: True)
        assert result.reached
        assert result.rounds == 0

    def test_fixpoint_detection(self, cube):
        scheduler = FsyncScheduler(OBLIVIOUS_STAY, identity_frames(8))
        result = scheduler.run(cube, stop_condition=lambda c: False,
                               max_rounds=5)
        assert result.fixpoint
        assert not result.reached
        assert result.rounds == 1

    def test_timeout_raises_with_stop_condition(self):
        pts = generic_cloud(4, seed=1)
        scheduler = FsyncScheduler(go_toward_centroid, identity_frames(4))
        with pytest.raises(SimulationError):
            scheduler.run(pts, stop_condition=lambda c: False,
                          max_rounds=3)

    def test_open_run_returns_trace(self):
        pts = generic_cloud(4, seed=1)
        scheduler = FsyncScheduler(go_toward_centroid, identity_frames(4))
        result = scheduler.run(pts, max_rounds=3)
        assert result.rounds == 3
        assert len(result.configurations) == 4
        assert isinstance(result.final, Configuration)

    def test_target_passed_to_observation(self, cube):
        seen = []

        def probe(obs: Observation) -> np.ndarray:
            seen.append(obs.target is not None)
            return obs.own_position()

        scheduler = FsyncScheduler(probe, identity_frames(8), target=cube)
        scheduler.step(Configuration(cube))
        assert all(seen)


def _bytes_key(points) -> bytes:
    return np.asarray(points, dtype=float).tobytes()


@pytest.fixture
def ball_counts(monkeypatch):
    """How often each point set's enclosing ball is computed.

    Wraps ``smallest_enclosing_ball`` wherever a module holds it by
    name, keyed by the input's bytes; the L1 caches start empty.
    """
    from repro import perf
    from repro.core import configuration
    from repro.groups import detection

    counts: collections.Counter = collections.Counter()
    for module in (configuration, detection):
        original = module.smallest_enclosing_ball

        def counted(points, *args, _original=original, **kwargs):
            counts[_bytes_key(points)] += 1
            return _original(points, *args, **kwargs)

        monkeypatch.setattr(module, "smallest_enclosing_ball", counted)
    perf.clear_caches()
    yield counts
    perf.clear_caches()


def _assert_one_ball_per_round(counts, rounds) -> None:
    """Each round's world positions get at most one enclosing ball (two
    only where two rounds share the positions).  Every stepped round
    (all but the last) needs its ball, so the wrapper must see it."""
    keys = [_bytes_key(points) for points in rounds]
    for t, key in enumerate(keys):
        assert counts[key] <= keys.count(key)
        if t < len(keys) - 1:
            assert counts[key] >= 1


class TestOneConfigurationPerRound:
    """The scheduler builds each round's ``Configuration`` once: the
    stop condition and Compute share it, so its Welzl ball is
    computed once per round."""

    def test_psi_sym_run(self, ball_counts):
        from repro.robots.algorithms.sym import is_sym_terminal, psi_sym

        points = compose_shells(named_pattern("icosahedron"),
                                named_pattern("dodecahedron"))
        scheduler = FsyncScheduler(
            psi_sym, random_frames(len(points), np.random.default_rng(4)))
        result = scheduler.run(points, stop_condition=is_sym_terminal,
                               max_rounds=20)
        assert result.reached and result.rounds >= 2
        _assert_one_ball_per_round(ball_counts, result.positions)

    def test_psi_pf_run(self, ball_counts, cube, octagon):
        from repro.robots.algorithms.pattern_formation import (
            make_pattern_formation_algorithm,
        )

        # Figure 1: ψ_SYM's go-to-center round, then the matching.
        scheduler = FsyncScheduler(
            make_pattern_formation_algorithm(octagon),
            random_frames(8, np.random.default_rng(5)), target=octagon)
        result = scheduler.run(
            cube, stop_condition=lambda c: c.is_similar_to(octagon),
            max_rounds=30)
        assert result.reached and result.rounds >= 2
        _assert_one_ball_per_round(ball_counts, result.positions)

    def test_lower_bound_check(self, ball_counts, monkeypatch):
        from repro.analysis import experiments
        from repro.core.formability import formability_report

        # The rounds _check_lower_bound walks: its initial
        # configuration, then each one it builds from a step.
        rounds = []
        build = experiments.Configuration

        def recording(points, *args, **kwargs):
            config = build(points, *args, **kwargs)
            rounds.append(config.as_array())
            return config

        # Theorem 1.1's unsolvable icosahedron -> cuboctahedron.
        initial = Configuration(named_pattern("icosahedron"))
        target = named_pattern("cuboctahedron")
        report = formability_report(initial, Configuration(target))
        assert not report.formable
        monkeypatch.setattr(experiments, "Configuration", recording)
        assert experiments._check_lower_bound(
            initial, target, report, np.random.default_rng(1))
        assert rounds
        _assert_one_ball_per_round(ball_counts,
                                   [initial.as_array()] + rounds)

    def test_form_pattern_reuses_its_initial_configuration(
            self, ball_counts, cube, octagon):
        # form_pattern builds P(0) for the formability check; the run
        # takes that object as its first round.
        from repro import form_pattern

        result = form_pattern(cube, octagon, seed=5)
        assert result.reached and result.rounds >= 2
        assert ball_counts[_bytes_key(cube)] == 1
        _assert_one_ball_per_round(ball_counts, result.positions)


class TestTraceKeepsPositions:
    def test_earlier_rounds_are_collectable(self, cube, octagon):
        from repro.robots.algorithms.pattern_formation import (
            make_pattern_formation_algorithm,
        )

        scheduler = FsyncScheduler(
            make_pattern_formation_algorithm(octagon),
            random_frames(8, np.random.default_rng(5)), target=octagon)
        seen = []

        def stop(config):
            seen.append(weakref.ref(config))
            return config.is_similar_to(octagon)

        result = scheduler.run(cube, stop_condition=stop, max_rounds=30)
        gc.collect()
        assert result.reached and len(seen) == result.rounds + 1 >= 3
        assert seen[-1]() is result.final
        assert all(ref() is None for ref in seen[:-1])

        configurations = result.configurations
        assert len(configurations) == result.rounds + 1
        assert configurations[-1] is result.final
        for t, config in enumerate(configurations):
            assert np.array_equal(config.as_array(), result.positions[t])
        assert np.array_equal(configurations[0].as_array(),
                              np.asarray(cube))
