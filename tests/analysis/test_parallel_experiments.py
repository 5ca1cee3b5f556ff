"""The parallel experiment runner (:mod:`repro.perf.parallel`).

The load-bearing property: fanning trials over a process pool is
*invisible* in the results — rows are byte-identical for any ``jobs``
value — and worker failures surface as clean exceptions, never a hung
or poisoned pool.
"""

import json
import os
from dataclasses import asdict

import pytest

import numpy as np

from repro import perf
from repro.api import ExperimentSpec, run_experiment
from repro.errors import SimulationError
from repro.perf import parallel_map, seeded_trials, spawn_seeds


@pytest.fixture(autouse=True)
def fresh_caches():
    perf.clear_caches()
    yield
    perf.set_enabled(True)
    perf.clear_caches()


def _square(x):
    return x * x


def _first_draw(stream):
    return float(np.random.default_rng(stream).random())


def _boom(x):
    raise ValueError(f"trial {x} exploded")


def _die(x):
    os._exit(13)  # hard worker death, no exception to pickle


class TestParallelMap:
    def test_inline_and_pool_agree(self):
        items = list(range(20))
        assert parallel_map(_square, items, jobs=1) == \
            parallel_map(_square, items, jobs=4) == \
            [x * x for x in items]

    def test_order_is_preserved(self):
        """Trial ``t`` receives the ``t``-th SeedSequence child of the
        experiment seed, in submission order, for any jobs value."""
        expected = [_first_draw(stream) for stream in spawn_seeds(10, 7)]
        assert seeded_trials(_first_draw, 7, seed=10, jobs=3) == expected
        assert seeded_trials(_first_draw, 7, seed=10, jobs=1) == expected

    def test_adjacent_seeds_do_not_collide(self):
        """``SeedSequence(seed).spawn`` keeps streams disjoint across
        adjacent experiment seeds — the old ``default_rng(seed + t)``
        convention had ``(seed=1, t=2)`` equal to ``(seed=2, t=1)``."""
        draws = {
            (seed, t): _first_draw(stream)
            for seed in (1, 2)
            for t, stream in enumerate(spawn_seeds(seed, 3))
        }
        assert draws[(1, 2)] != draws[(2, 1)]

    def test_worker_exception_raises_simulation_error(self):
        with pytest.raises(SimulationError, match="trial 3 exploded"):
            parallel_map(_boom, [3], jobs=1)
        with pytest.raises(SimulationError, match="exploded"):
            parallel_map(_boom, list(range(8)), jobs=4)

    def test_worker_crash_is_clean_not_hung(self):
        """A worker that dies outright (not an exception — the process
        vanishes) must surface as SimulationError, not a deadlock."""
        with pytest.raises(SimulationError, match="died"):
            parallel_map(_die, list(range(4)), jobs=2)


def _rows(name: str, **spec) -> list:
    return run_experiment(name, ExperimentSpec(**spec)).rows


class TestDriverDeterminism:
    def test_lemma7_rows_identical_for_any_jobs(self):
        serial = _rows("lemma7", trials=3, seed=0, jobs=1)
        fanned = _rows("lemma7", trials=3, seed=0, jobs=4)
        assert json.dumps(serial, default=str) == \
            json.dumps(fanned, default=str)

    def test_figure1_rows_identical_for_any_jobs(self):
        serial = _rows("figure1", trials=2, seed=1, jobs=1)
        fanned = _rows("figure1", trials=2, seed=1, jobs=4)
        assert json.dumps(serial, default=str) == \
            json.dumps(fanned, default=str)

    def test_theorem11_rows_identical_for_any_jobs(self):
        serial = _rows("theorem11", seed=0, jobs=1)
        fanned = _rows("theorem11", seed=0, jobs=4)
        assert [asdict(r) for r in serial] == [asdict(r) for r in fanned]


class TestSpawnStreamContract:
    """Regression-pins the per-trial seeding scheme.

    ``spawn_seeds(seed, n)[t]`` must stay ``SeedSequence(seed)``'s
    ``t``-th spawn child — switching back to ``default_rng(seed + t)``
    (or any reparameterization of the child streams) would silently
    change every experiment's rows *and* reintroduce the
    adjacent-seed collision the spawn scheme exists to prevent.
    """

    def test_children_carry_entropy_and_spawn_key(self):
        for t, child in enumerate(spawn_seeds(42, 3)):
            assert child.entropy == 42
            assert child.spawn_key == (t,)

    def test_first_draws_pinned(self):
        draws = [float(np.random.default_rng(child).random())
                 for child in spawn_seeds(42, 3)]
        assert draws == pytest.approx([
            0.9167441575549085,
            0.4674907799518424,
            0.07123920291270869,
        ], abs=0.0)

    def test_adjacent_parent_seeds_do_not_collide(self):
        # the defect of default_rng(seed + t): trial t of seed s
        # equals trial t-1 of seed s+1.  Spawn children must not.
        later_trial = np.random.default_rng(spawn_seeds(7, 4)[1]).random(8)
        first_trial = np.random.default_rng(spawn_seeds(8, 4)[0]).random(8)
        assert not np.array_equal(later_trial, first_trial)

    def test_seeded_trials_uses_spawn_children(self):
        streams = seeded_trials(_first_draw, 3, seed=42, jobs=1)
        direct = [float(np.random.default_rng(child).random())
                  for child in spawn_seeds(42, 3)]
        assert streams == direct
