"""Tests for the target embedding F̃ (Section 6.1)."""

import numpy as np
import pytest

from repro.core.configuration import Configuration
from repro.errors import EmbeddingError
from repro.geometry.rotations import random_rotation
from repro.patterns import polyhedra
from repro.patterns.library import named_pattern
from repro.robots.adversary import random_frames
from repro.robots.algorithms.embedding import _pick_canonical, embed_target
from repro.robots.algorithms.sym import is_sym_terminal, psi_sym
from repro.robots.scheduler import FsyncScheduler
from tests.conftest import generic_cloud


def terminal_config(points, seed=0) -> Configuration:
    """Run ψ_SYM to terminality and return the final configuration."""
    frames = random_frames(len(points), np.random.default_rng(seed))
    scheduler = FsyncScheduler(psi_sym, frames)
    return scheduler.run(points, stop_condition=is_sym_terminal,
                         max_rounds=20).final


class TestBasicProperties:
    def test_embedded_is_similar_to_target(self, octagon):
        config = terminal_config(named_pattern("cube"))
        embedded = embed_target(config, octagon)
        assert Configuration(embedded).is_similar_to(octagon)

    def test_enclosing_balls_agree(self, octagon):
        from repro.geometry.balls import smallest_enclosing_ball

        config = terminal_config(named_pattern("cube"))
        embedded = embed_target(config, octagon)
        ball = smallest_enclosing_ball(embedded)
        assert np.allclose(ball.center, config.center, atol=1e-6)
        assert ball.radius == pytest.approx(config.radius, rel=1e-6)

    def test_size_mismatch_rejected(self, octagon):
        config = terminal_config(named_pattern("cube"))
        with pytest.raises(EmbeddingError):
            embed_target(config, octagon[:-1])

    def test_unsolvable_rejected(self):
        # Terminal config with gamma = D5 (prism orbit), target generic.
        config = Configuration(polyhedra.prism(5))
        with pytest.raises(EmbeddingError):
            embed_target(config, generic_cloud(10, seed=3))


class TestEquivariance:
    """embed(R·P) must equal R·embed(P) — the frame-independence core."""

    @pytest.mark.parametrize("initial,target_name", [
        ("cube", "octagon"),
        ("cube", "square_antiprism"),
        ("octahedron", "pentagonal_prism_placeholder"),
    ])
    def test_rotation_equivariance(self, rng, initial, target_name):
        if target_name == "pentagonal_prism_placeholder":
            target = polyhedra.prism(3)
        else:
            target = named_pattern(target_name)
        config = terminal_config(named_pattern(initial))
        embedded = embed_target(config, target)
        rot = random_rotation(rng)
        moved = Configuration([rot @ p for p in config.points])
        embedded_moved = embed_target(moved, target)
        expected = sorted(tuple(np.round(rot @ p, 5)) for p in embedded)
        got = sorted(tuple(np.round(p, 5)) for p in embedded_moved)
        for a, b in zip(expected, got):
            assert np.allclose(a, b, atol=1e-4)

    def test_c1_equivariance(self, rng):
        config = Configuration(generic_cloud(8, seed=6))
        target = named_pattern("cube")
        embedded = embed_target(config, target)
        rot = random_rotation(rng)
        moved = Configuration([rot @ p for p in config.points])
        embedded_moved = embed_target(moved, target)
        expected = sorted(tuple(np.round(rot @ p, 5)) for p in embedded)
        got = sorted(tuple(np.round(p, 5)) for p in embedded_moved)
        for a, b in zip(expected, got):
            assert np.allclose(a, b, atol=1e-4)

    def test_invariance_under_gamma_p(self):
        # F̃ must be invariant under every rotation preserving P.
        config = terminal_config(named_pattern("pentagonal_prism"))
        group = config.rotation_group
        assert str(group.spec) == "D5"
        target = polyhedra.antiprism(5)
        embedded = embed_target(config, target)
        center = config.center
        key = sorted(tuple(np.round(p - center, 5)) for p in embedded)
        for mat in group.elements:
            rotated = sorted(tuple(np.round(mat @ (p - center), 5))
                             for p in embedded)
            for a, b in zip(key, rotated):
                assert np.allclose(a, b, atol=1e-4)


class TestPolygonSpecialCases:
    def test_polygon_to_itself(self, octagon):
        config = Configuration(octagon)
        embedded = embed_target(config, list(reversed(octagon)))
        assert Configuration(embedded).is_similar_to(octagon)

    def test_polygon_to_point(self, octagon):
        config = Configuration(octagon)
        target = [np.zeros(3)] * 8
        embedded = embed_target(config, target)
        assert all(np.allclose(p, config.center) for p in embedded)

    def test_polygon_to_other_pattern_rejected(self, octagon, cube):
        config = Configuration(octagon)
        with pytest.raises(EmbeddingError):
            embed_target(config, cube)


class TestGroupAlignment:
    def test_gamma_p_lands_on_free_axes(self, octagon):
        # After embedding, gamma(P)'s axes must be free axes of F̃.
        config = terminal_config(named_pattern("cube"))
        group = config.rotation_group
        embedded = embed_target(config, octagon)
        center = config.center
        slack = 1e-5 * config.radius
        for mat in group.elements:
            for p in embedded:
                image = center + mat @ (p - center)
                assert any(np.linalg.norm(image - q) <= slack
                           for q in embedded)

    def test_multiplicity_target(self):
        # 24 free-orbit robots -> cube vertices with multiplicity 3.
        from repro.groups.catalog import octahedral_group
        from repro.patterns.orbits import transitive_set

        initial = transitive_set(octahedral_group(), mu=1)
        config = Configuration(initial)
        target = named_pattern("cube") * 3
        embedded = embed_target(config, target)
        assert Configuration(embedded).is_similar_to(target)


class TestCanonicalPick:
    """``_pick_canonical``'s chiral tie-break on equal signatures."""

    PYRAMID = Configuration(
        [np.array([x, y, 0.0]) for x in (1.0, -1.0) for y in (1.0, -1.0)]
        + [np.array([0.0, 0.0, 1.5])])
    PLACED = [np.array([0.3, 0.2, 0.5]), np.array([-0.1, 0.4, 0.2])]

    def test_equal_chiral_signatures_of_one_set(self):
        # The reordered copy ties with the original on both signatures;
        # the mirror image ties on distances only.  The tie is one set,
        # so that set is chosen.
        mirrored = [p * np.array([-1.0, 1.0, 1.0]) for p in self.PLACED]
        chosen = _pick_canonical(
            self.PYRAMID, [self.PLACED, self.PLACED[::-1], mirrored])
        key = sorted(tuple(np.round(p, 9)) for p in chosen)
        assert key == sorted(tuple(np.round(p, 9)) for p in self.PLACED)

    def test_equal_chiral_signatures_of_two_sets(self):
        # A quarter turn about the pyramid's axis is a symmetry of P, so
        # the turned copy ties on every signature: the embedding is
        # ambiguous.
        quarter = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0],
                            [0.0, 0.0, 1.0]])
        turned = [quarter @ p for p in self.PLACED]
        with pytest.raises(EmbeddingError):
            _pick_canonical(self.PYRAMID, [self.PLACED, turned])
