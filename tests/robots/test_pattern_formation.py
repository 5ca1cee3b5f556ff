"""End-to-end tests for ψ_PF (Algorithm 6.1, Theorem 6.1)."""

from collections import Counter

import numpy as np
import pytest

from repro.core.configuration import Configuration
from repro.core.formability import is_formable
from repro.core.symmetricity import symmetricity
from repro.errors import SimulationError
from repro.patterns import polyhedra
from repro.patterns.library import compose_shells, named_pattern
from repro.robots.adversary import random_frames, symmetric_frames
from repro.robots.algorithms.pattern_formation import (
    make_pattern_formation_algorithm,
)
from repro.robots.scheduler import FsyncScheduler
from tests.conftest import generic_cloud


def run_formation(initial, target, frames=None, seed=0, max_rounds=30):
    if frames is None:
        frames = random_frames(len(initial), np.random.default_rng(seed))
    algorithm = make_pattern_formation_algorithm(target)
    scheduler = FsyncScheduler(algorithm, frames, target=target)
    return scheduler.run(
        initial, stop_condition=lambda c: c.is_similar_to(target),
        max_rounds=max_rounds)


class TestFigure1:
    """The paper's flagship example: cube → octagon / antiprism."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cube_to_octagon(self, cube, octagon, seed):
        result = run_formation(cube, octagon, seed=seed)
        assert result.reached
        assert result.rounds <= 8

    @pytest.mark.parametrize("seed", [0, 1])
    def test_cube_to_square_antiprism(self, cube, square_antiprism, seed):
        result = run_formation(cube, square_antiprism, seed=seed)
        assert result.reached

    def test_under_worst_case_frames(self, cube, octagon,
                                     square_antiprism):
        config = Configuration(cube)
        rho = symmetricity(config)
        witness = rho.witness(rho.maximal[0])
        for target in (octagon, square_antiprism):
            frames = symmetric_frames(config, witness,
                                      np.random.default_rng(3))
            result = run_formation(cube, target, frames=frames)
            assert result.reached


class TestVariedInstances:
    CASES = [
        ("generic8 -> cube",
         lambda: generic_cloud(8, seed=4), lambda: named_pattern("cube")),
        ("octahedron -> hexagon",
         lambda: named_pattern("octahedron"),
         lambda: polyhedra.regular_polygon_pattern(6)),
        ("octahedron -> triangular prism",
         lambda: named_pattern("octahedron"), lambda: polyhedra.prism(3)),
        ("prism6 -> antiprism6",
         lambda: polyhedra.prism(6), lambda: polyhedra.antiprism(6)),
        ("antiprism8 -> cube... (antiprism4)",
         lambda: named_pattern("square_antiprism"),
         lambda: named_pattern("cube")),
        ("composite -> 14-gon",
         lambda: compose_shells(named_pattern("octahedron"),
                                named_pattern("cube")),
         lambda: polyhedra.regular_polygon_pattern(14)),
        ("pyramid -> pentagon",
         lambda: polyhedra.pyramid(4),
         lambda: polyhedra.regular_polygon_pattern(5)),
    ]

    @pytest.mark.parametrize("name,initial_factory,target_factory", CASES,
                             ids=[c[0] for c in CASES])
    def test_formation_succeeds(self, name, initial_factory,
                                target_factory):
        initial = initial_factory()
        target = target_factory()
        assert is_formable(Configuration(initial), Configuration(target))
        result = run_formation(initial, target)
        assert result.reached

    def test_stability_after_formation(self, cube, octagon):
        # Once F is formed, psi_pf keeps every robot in place.
        result = run_formation(cube, octagon)
        frames = random_frames(8, np.random.default_rng(9))
        algorithm = make_pattern_formation_algorithm(octagon)
        scheduler = FsyncScheduler(algorithm, frames, target=octagon)
        after = scheduler.step(result.final)
        for a, b in zip(after, result.final.points):
            assert np.allclose(a, b, atol=1e-9)


class TestStopTest:
    def test_p_similar_to_f_evaluated_once_per_round(self, cube, octagon,
                                                     monkeypatch):
        """The runner's stop condition and ψ_PF's own stop test ask
        ``P(t) ≃ F`` of the same round's configuration; the second ask
        is answered from the first, so ``congruent_rotation`` sees each
        (P(t), F) pair once."""
        import repro.core.configuration as configuration

        pairs = Counter()
        congruent_rotation = configuration.congruent_rotation

        def counted(mine, theirs):
            pairs[mine.rel.tobytes(), theirs.rel.tobytes()] += 1
            return congruent_rotation(mine, theirs)

        monkeypatch.setattr(configuration, "congruent_rotation", counted)
        result = run_formation(cube, octagon, seed=0)
        assert result.reached
        assert sum(pairs.values()) <= len(result.positions)
        assert max(pairs.values()) == 1


class TestSpecialTargets:
    def test_point_formation(self, cube):
        target = [np.zeros(3)] * 8
        result = run_formation(cube, target)
        assert result.reached

    def test_multiplicity_target(self):
        from repro.groups.catalog import octahedral_group
        from repro.patterns.orbits import transitive_set

        initial = transitive_set(octahedral_group(), mu=1)
        target = named_pattern("cube") * 3
        result = run_formation(initial, target)
        assert result.reached

    def test_collinear_initial(self):
        initial = [np.array([0, 0, z], dtype=float)
                   for z in (-2.0, -1.0, 1.0, 2.0)]
        target = polyhedra.regular_polygon_pattern(4)
        result = run_formation(initial, target)
        assert result.reached

    def test_polygon_to_itself_rotated(self, octagon):
        from repro.geometry.rotations import rotation_about_axis

        rot = rotation_about_axis([1, 1, 0], 1.1)
        target = [2.0 * (rot @ p) + np.array([1.0, 2.0, 3.0])
                  for p in octagon]
        result = run_formation(octagon, target)
        assert result.reached
        assert result.rounds == 0  # already similar


class TestTargetViaObservation:
    def test_target_from_scheduler(self, cube, octagon):
        algorithm = make_pattern_formation_algorithm()  # no baked target
        frames = random_frames(8, np.random.default_rng(2))
        scheduler = FsyncScheduler(algorithm, frames, target=octagon)
        result = scheduler.run(
            cube, stop_condition=lambda c: c.is_similar_to(octagon),
            max_rounds=30)
        assert result.reached

    def test_missing_target_raises(self, cube):
        algorithm = make_pattern_formation_algorithm()
        frames = random_frames(8, np.random.default_rng(2))
        scheduler = FsyncScheduler(algorithm, frames)  # no target
        with pytest.raises(SimulationError):
            scheduler.step(Configuration(cube))


class TestPublicApi:
    def test_form_pattern_wrapper(self, cube, octagon):
        from repro import form_pattern

        result = form_pattern(cube, octagon, seed=1)
        assert result.reached

    def test_form_pattern_rejects_unsolvable(self, cube, octagon):
        from repro import UnsolvableError, form_pattern

        with pytest.raises(UnsolvableError):
            form_pattern(octagon, cube)

    def test_form_pattern_skip_check_runs_anyway(self, cube):
        from repro import form_pattern

        result = form_pattern(cube, cube, check=False)
        assert result.reached
