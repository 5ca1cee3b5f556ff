"""Tests for ψ_SYM (Algorithm 4.2) and Theorem 4.1."""

import numpy as np
import pytest

from repro.core.configuration import Configuration
from repro.core.symmetricity import symmetricity
from repro.geometry.polygons import regular_polygon_fold
from repro.groups.subgroups import is_abstract_subgroup
from repro.patterns import polyhedra
from repro.patterns.library import compose_shells, named_pattern
from repro.robots.adversary import random_frames, symmetric_frames
from repro.robots.algorithms.sym import is_sym_terminal, psi_sym
from repro.robots.scheduler import FsyncScheduler
from tests.conftest import generic_cloud


def run_sym(points, seed=0, frames=None, max_rounds=20):
    if frames is None:
        frames = random_frames(len(points), np.random.default_rng(seed))
    scheduler = FsyncScheduler(psi_sym, frames)
    return scheduler.run(points, stop_condition=is_sym_terminal,
                         max_rounds=max_rounds)


class TestTerminalPredicate:
    def test_trivial_group_is_terminal(self):
        assert is_sym_terminal(Configuration(generic_cloud(6, seed=2)))

    def test_regular_polygon_is_terminal(self):
        assert is_sym_terminal(Configuration(
            polyhedra.regular_polygon_pattern(7)))

    def test_free_orbit_is_terminal(self):
        assert is_sym_terminal(Configuration(polyhedra.prism(5)))

    def test_cube_is_not_terminal(self, cube):
        assert not is_sym_terminal(Configuration(cube))

    def test_pyramid_is_not_terminal(self):
        assert not is_sym_terminal(Configuration(polyhedra.pyramid(4)))

    def test_center_robot_is_not_terminal(self):
        pts = polyhedra.prism(4) + [np.zeros(3)]
        assert not is_sym_terminal(Configuration(pts))

    def test_collinear_not_terminal(self):
        pts = [np.array([0, 0, z], dtype=float) for z in (-2, -1, 1, 2)]
        assert not is_sym_terminal(Configuration(pts))


class TestTheorem41:
    CASES = [
        ("cube", lambda: named_pattern("cube")),
        ("octahedron", lambda: named_pattern("octahedron")),
        ("icosahedron", lambda: named_pattern("icosahedron")),
        ("cuboctahedron", lambda: named_pattern("cuboctahedron")),
        ("pyramid4", lambda: polyhedra.pyramid(4)),
        ("composite", lambda: compose_shells(
            named_pattern("octahedron"), named_pattern("cube"))),
        ("triple", lambda: compose_shells(
            named_pattern("tetrahedron"), named_pattern("cube"),
            named_pattern("octahedron"))),
    ]

    @pytest.mark.parametrize("name,factory", CASES,
                             ids=[c[0] for c in CASES])
    def test_reaches_terminal_within_seven_rounds(self, name, factory):
        points = factory()
        result = run_sym(points)
        assert result.reached
        assert result.rounds <= 7

    @pytest.mark.parametrize("name,factory", CASES,
                             ids=[c[0] for c in CASES])
    def test_final_group_in_rho(self, name, factory):
        points = factory()
        rho = symmetricity(Configuration(points))
        result = run_sym(points)
        final = result.final
        report = final.symmetry
        assert report.kind == "finite"
        assert (report.group.spec in rho.specs
                or regular_polygon_fold(final.points) is not None)

    @pytest.mark.parametrize("name,factory", CASES,
                             ids=[c[0] for c in CASES])
    def test_no_multiplicity_created(self, name, factory):
        points = factory()
        result = run_sym(points)
        for config in result.configurations:
            assert not config.has_multiplicity

    def test_regular_polygon_fixpoint(self):
        points = polyhedra.regular_polygon_pattern(6)
        result = run_sym(points)
        assert result.rounds == 0
        for a, b in zip(result.final.points, points):
            assert np.allclose(a, b)


class TestWorstCaseFrames:
    @pytest.mark.parametrize("name", ["cube", "tetrahedron",
                                      "icosahedron", "cuboctahedron"])
    def test_sigma_survives_exactly(self, name):
        points = named_pattern(name)
        config = Configuration(points)
        rho = symmetricity(config)
        for spec in rho.maximal:
            witness = rho.witness(spec)
            frames = symmetric_frames(config, witness,
                                      np.random.default_rng(5))
            result = run_sym(points, frames=frames)
            assert result.reached
            final_spec = result.final.symmetry.group.spec
            # Lemma 2 lower bound + Theorem 4.1 upper bound.
            assert is_abstract_subgroup(spec, final_spec)
            assert final_spec in rho.specs


class TestCollinearConfigurations:
    def test_symmetric_line_breaks_to_rho(self):
        points = [np.array([0, 0, z], dtype=float)
                  for z in (-2.0, -1.0, 1.0, 2.0)]
        rho = symmetricity(Configuration(points))
        result = run_sym(points)
        assert result.reached
        report = result.final.symmetry
        assert report.kind == "finite"
        assert report.group.spec in rho.specs

    def test_asymmetric_line(self):
        points = [np.array([0, 0, z], dtype=float)
                  for z in (-2.0, -0.5, 1.0, 2.0)]
        result = run_sym(points)
        assert result.reached
        assert result.final.symmetry.kind == "finite"

    def test_line_with_center_robot(self):
        points = [np.array([0, 0, z], dtype=float)
                  for z in (-1.0, 0.0, 1.0)]
        result = run_sym(points)
        assert result.reached


class TestCenterRobot:
    def test_center_robot_leaves_first(self):
        points = polyhedra.prism(4) + [np.zeros(3)]
        frames = random_frames(len(points), np.random.default_rng(1))
        scheduler = FsyncScheduler(psi_sym, frames)
        after = scheduler.step(Configuration(points))
        # The prism robots stay; the center robot moved off center.
        for i in range(8):
            assert np.allclose(after[i], points[i], atol=1e-9)
        assert float(np.linalg.norm(after[8])) > 1e-6
