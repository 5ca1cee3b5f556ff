"""Tests for randomized pattern formation (beyond Theorem 1.1)."""

import numpy as np

from repro.core.configuration import Configuration
from repro.core.formability import is_formable
from repro.core.symmetricity import symmetricity
from repro.patterns.library import named_pattern
from repro.robots.adversary import random_frames, symmetric_frames
from repro.robots.algorithms.randomized import (
    make_randomized_formation_algorithm,
)
from repro.robots.scheduler import FsyncScheduler


def run_randomized(initial, target, frames, algo_seed=42, max_rounds=40):
    rng = np.random.default_rng(algo_seed)
    algorithm = make_randomized_formation_algorithm(target, rng)
    scheduler = FsyncScheduler(algorithm, frames, target=target)
    return scheduler.run(
        initial, stop_condition=lambda c: c.is_similar_to(target),
        max_rounds=max_rounds)


class TestBeyondDeterministicBound:
    def test_octagon_to_cube(self, cube, octagon):
        # Deterministically impossible (C8 in rho(P), not in rho(cube)).
        assert not is_formable(Configuration(octagon),
                               Configuration(cube))
        frames = random_frames(8, np.random.default_rng(0))
        result = run_randomized(octagon, cube, frames)
        assert result.reached

    def test_octagon_to_cube_under_symmetric_frames(self, cube, octagon):
        # Even the sigma(P) = C8 adversary loses against random bits.
        config = Configuration(octagon)
        rho = symmetricity(config)
        witness = rho.witness(rho.maximal[0])
        frames = symmetric_frames(config, witness,
                                  np.random.default_rng(1))
        result = run_randomized(octagon, cube, frames)
        assert result.reached

    def test_icosahedron_to_cuboctahedron(self):
        ico = named_pattern("icosahedron")
        cuboct = named_pattern("cuboctahedron")
        assert not is_formable(Configuration(ico), Configuration(cuboct))
        frames = random_frames(12, np.random.default_rng(2))
        result = run_randomized(ico, cuboct, frames, max_rounds=60)
        assert result.reached


class TestBehaviour:
    def test_no_multiplicity_created(self, cube, octagon):
        frames = random_frames(8, np.random.default_rng(3))
        result = run_randomized(octagon, cube, frames)
        for config in result.configurations:
            assert not config.has_multiplicity

    def test_stays_once_formed(self, cube, octagon):
        frames = random_frames(8, np.random.default_rng(4))
        result = run_randomized(octagon, cube, frames)
        rng = np.random.default_rng(5)
        algorithm = make_randomized_formation_algorithm(cube, rng)
        scheduler = FsyncScheduler(algorithm, frames, target=cube)
        after = scheduler.step(result.final)
        for a, b in zip(after, result.final.points):
            assert np.allclose(a, b, atol=1e-9)

    def test_solvable_instances_still_work(self, cube, octagon):
        # The randomized wrapper must not regress deterministic cases.
        frames = random_frames(8, np.random.default_rng(6))
        result = run_randomized(cube, octagon, frames)
        assert result.reached
