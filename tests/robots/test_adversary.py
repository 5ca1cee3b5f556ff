"""Tests for adversarial frame construction (Lemma 2 / Lemma 4)."""

import numpy as np
import pytest

from repro.core.configuration import Configuration
from repro.core.symmetricity import symmetricity
from repro.errors import SimulationError
from repro.groups.catalog import cyclic_group
from repro.patterns.library import named_pattern
from repro.robots.adversary import (
    identity_frames,
    random_frames,
    symmetric_frames,
)
from repro.robots.model import Observation
from repro.robots.scheduler import FsyncScheduler


def observation_key(observation: Observation) -> tuple:
    """Canonical multiset key of an observation's points."""
    return tuple(sorted(tuple(np.round(p, 6)) for p in observation.points))


class TestBasicFrames:
    def test_identity_frames(self):
        frames = identity_frames(4)
        assert len(frames) == 4
        assert all(f.scale == 1.0 for f in frames)

    def test_random_frames_distinct(self, rng):
        frames = random_frames(5, rng)
        rotations = {tuple(np.round(f.rotation.ravel(), 6))
                     for f in frames}
        assert len(rotations) == 5


class TestSymmetricFrames:
    def test_symmetric_robots_observe_identically(self, rng, cube):
        config = Configuration(cube)
        rho = symmetricity(config)
        witness = rho.witness(rho.maximal[0])  # D4 on the cube
        frames = symmetric_frames(config, witness, rng)

        keys = []
        for i, (p, frame) in enumerate(zip(cube, frames)):
            local = [frame.observe(q, p) for q in cube]
            keys.append(observation_key(Observation(local, self_index=i)))
        # One orbit of 8 robots under D4 (order 8): all observations
        # identical.
        assert len(set(keys)) == 1

    def test_orbitwise_identical_observations_icosahedron(self, rng):
        pts = named_pattern("icosahedron")
        config = Configuration(pts)
        rho = symmetricity(config)
        spec = next(s for s in rho.maximal if str(s) == "T")
        witness = rho.witness(spec)
        frames = symmetric_frames(config, witness, rng)
        keys = []
        for i, (p, frame) in enumerate(zip(pts, frames)):
            local = [frame.observe(q, p) for q in pts]
            keys.append(observation_key(Observation(local, self_index=i)))
        # 12 robots under T (order 12): a single orbit again.
        assert len(set(keys)) == 1

    def test_sigma_preserved_under_any_algorithm(self, rng, cube):
        # Lemma 2: whatever the robots do, the configuration keeps a
        # supergroup of sigma(P).
        from repro.groups.subgroups import is_abstract_subgroup

        config = Configuration(cube)
        rho = symmetricity(config)
        spec = rho.maximal[0]
        witness = rho.witness(spec)
        frames = symmetric_frames(config, witness, rng)

        def arbitrary_algorithm(obs: Observation) -> np.ndarray:
            # Some deterministic nonsense move based on the view.
            far = max(obs.points, key=lambda p: float(np.linalg.norm(p)))
            return 0.3 * far + np.array([0.1, 0.05, -0.2])

        scheduler = FsyncScheduler(arbitrary_algorithm, frames)
        config = Configuration(cube)
        for _ in range(3):
            config = Configuration(scheduler.step(config))
            report = config.symmetry
            assert report.kind in ("finite", "collinear", "degenerate")
            if report.kind == "finite":
                assert is_abstract_subgroup(spec, report.group.spec)

    def test_rejects_non_free_witness(self, rng, cube):
        config = Configuration(cube)
        # C3 about a cube diagonal fixes two vertices: not free.
        bad = cyclic_group(3, axis=(1, 1, 1))
        with pytest.raises(SimulationError):
            symmetric_frames(config, bad, rng)
