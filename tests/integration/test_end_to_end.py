"""End-to-end integration tests across all subsystems.

These runs exercise detection → symmetricity → ψ_SYM → embedding →
matching → similarity checking in one pipeline, over instance families
and both adversaries, mirroring the experiment harness.
"""

import numpy as np
import pytest

from repro import (
    Configuration,
    form_pattern,
    formability_report,
    is_formable,
    symmetric_frames,
    symmetricity,
)
from repro.geometry.transforms import Similarity
from repro.groups.subgroups import is_abstract_subgroup
from repro.patterns import polyhedra
from repro.patterns.library import compose_shells, named_pattern
from repro.robots.algorithms.pattern_formation import (
    make_pattern_formation_algorithm,
)
from repro.robots.scheduler import FsyncScheduler
from tests.conftest import generic_cloud


class TestTheorem11BothDirections:
    SOLVABLE = [
        ("cube", "octagon"),
        ("cube", "square_antiprism"),
        ("octahedron", "cube_like_prism"),
        ("square_antiprism", "cube"),
    ]

    def _points(self, name):
        if name == "cube_like_prism":
            return polyhedra.prism(3)
        return named_pattern(name)

    @pytest.mark.parametrize("initial,target", SOLVABLE)
    def test_solvable_instances_form(self, initial, target):
        p = self._points(initial)
        f = self._points(target)
        assert is_formable(Configuration(p), Configuration(f))
        result = form_pattern(p, f, seed=3)
        assert result.reached

    def test_unsolvable_instance_preserves_sigma(self, cube):
        # Lower bound: octagon -> cube with sigma(P) = C8 frames.
        octagon = named_pattern("octagon")
        config = Configuration(octagon)
        report = formability_report(config, Configuration(cube))
        assert not report.formable
        blocking = [g for g in report.blocking
                    if report.initial_symmetricity.witness(g) is not None]
        spec = sorted(blocking)[-1]
        witness = report.initial_symmetricity.witness(spec)
        frames = symmetric_frames(config, witness,
                                  np.random.default_rng(1))
        algorithm = make_pattern_formation_algorithm(cube)
        scheduler = FsyncScheduler(algorithm, frames, target=cube)
        current = config
        for _ in range(5):
            try:
                current = Configuration(scheduler.step(current))
            except Exception:
                break  # rejecting the instance is a valid outcome
            assert not current.is_similar_to(cube)
            gamma = current.symmetry
            if gamma.kind == "finite":
                assert is_abstract_subgroup(spec, gamma.group.spec)


class TestFullPipelineUnderSimilarity:
    def test_formation_commutes_with_input_similarity(self, rng):
        # Forming F from S(P) must still produce something similar to F.
        initial = named_pattern("cube")
        target = named_pattern("square_antiprism")
        sim = Similarity.random(rng)
        moved = sim.apply_all(initial)
        result = form_pattern(moved, target, seed=5)
        assert result.reached
        assert result.final.is_similar_to(target)

    def test_target_given_in_weird_coordinates(self, rng):
        # F's own coordinate system is irrelevant.
        initial = named_pattern("cube")
        sim = Similarity.random(rng)
        target = sim.apply_all(named_pattern("octagon"))
        result = form_pattern(initial, target, seed=2)
        assert result.reached


class TestAllRobotsAgree:
    def test_one_shot_convergence_from_terminal(self):
        # From a psi_sym-terminal configuration the whole formation
        # happens in ONE synchronized round — the strongest agreement
        # check (any disagreement would scatter the robots).
        initial = generic_cloud(8, seed=13)
        target = named_pattern("cube")
        result = form_pattern(initial, target, seed=13)
        assert result.reached
        assert result.rounds == 1


class TestScaleSweep:
    @pytest.mark.parametrize("n", [4, 6, 8, 12, 16])
    def test_generic_to_polygon_various_sizes(self, n):
        initial = generic_cloud(n, seed=n)
        target = polyhedra.regular_polygon_pattern(n)
        result = form_pattern(initial, target, seed=n)
        assert result.reached

    @pytest.mark.parametrize("l", [3, 4, 5])
    def test_prism_to_antiprism_family(self, l):
        result = form_pattern(polyhedra.prism(l), polyhedra.antiprism(l),
                              seed=l)
        assert result.reached


class TestCompositeInitialConfigurations:
    def test_figure26_composite(self):
        initial = compose_shells(named_pattern("octahedron"),
                                 named_pattern("cube"))
        rho = symmetricity(Configuration(initial))
        assert {str(s) for s in rho.maximal} == {"C2"}
        target = polyhedra.regular_polygon_pattern(14)
        result = form_pattern(initial, target, seed=0)
        assert result.reached

    def test_three_shell_composite(self):
        initial = compose_shells(named_pattern("tetrahedron"),
                                 named_pattern("octahedron"),
                                 named_pattern("cube"))
        target = polyhedra.antiprism(9)
        result = form_pattern(initial, target, seed=1)
        assert result.reached
