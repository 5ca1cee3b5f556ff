"""Property-based tests (hypothesis) for the geometry substrate."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.geometry.balls import smallest_enclosing_ball
from repro.geometry.rotations import (
    is_rotation_matrix,
    rotation_about_axis,
    rotation_angle,
    rotation_axis,
)
from repro.core.configuration import Configuration
from repro.geometry.transforms import Similarity
from repro.geometry.vectors import normalize, orthonormal_basis_for

finite_floats = st.floats(min_value=-10.0, max_value=10.0,
                          allow_nan=False, allow_infinity=False)
unit_scale_floats = st.floats(min_value=0.1, max_value=10.0)


def vectors(min_norm: float = 1e-3):
    return st.tuples(finite_floats, finite_floats, finite_floats).map(
        np.array).filter(lambda v: float(np.linalg.norm(v)) > min_norm)


def point_clouds(min_size=2, max_size=12):
    return st.lists(
        st.tuples(finite_floats, finite_floats, finite_floats),
        min_size=min_size, max_size=max_size,
    ).map(lambda rows: np.array(rows, dtype=float))


angles = st.floats(min_value=-6.0, max_value=6.0)
seeds = st.integers(min_value=0, max_value=2 ** 31 - 1)


class TestRotationProperties:
    @settings(max_examples=60, deadline=None)
    @given(axis=vectors(), angle=angles)
    def test_rotation_is_orthogonal(self, axis, angle):
        assert is_rotation_matrix(rotation_about_axis(axis, angle))

    @settings(max_examples=60, deadline=None)
    @given(axis=vectors(), angle=angles)
    def test_rotation_preserves_lengths(self, axis, angle):
        rot = rotation_about_axis(axis, angle)
        v = np.array([1.3, -0.7, 2.1])
        assert np.isclose(np.linalg.norm(rot @ v), np.linalg.norm(v))

    @settings(max_examples=60, deadline=None)
    @given(axis=vectors(),
           angle=st.floats(min_value=0.01, max_value=3.1))
    def test_axis_angle_round_trip(self, axis, angle):
        rot = rotation_about_axis(axis, angle)
        assert np.isclose(rotation_angle(rot), angle, atol=1e-7)
        recovered = rotation_axis(rot)
        expected = normalize(axis)
        assert (np.allclose(recovered, expected, atol=1e-6)
                or np.allclose(recovered, -expected, atol=1e-6))

    @settings(max_examples=40, deadline=None)
    @given(axis=vectors(), a=angles, b=angles)
    def test_same_axis_rotations_commute(self, axis, a, b):
        ra = rotation_about_axis(axis, a)
        rb = rotation_about_axis(axis, b)
        assert np.allclose(ra @ rb, rb @ ra, atol=1e-9)


class TestBasisProperties:
    @settings(max_examples=60, deadline=None)
    @given(w=vectors())
    def test_orthonormal_right_handed(self, w):
        u, v, w_hat = orthonormal_basis_for(w)
        mat = np.column_stack([u, v, w_hat])
        assert np.allclose(mat.T @ mat, np.eye(3), atol=1e-9)
        assert np.isclose(np.linalg.det(mat), 1.0, atol=1e-9)


class TestEnclosingBallProperties:
    @settings(max_examples=60, deadline=None)
    @given(cloud=point_clouds())
    def test_containment(self, cloud):
        ball = smallest_enclosing_ball(cloud)
        for p in cloud:
            assert ball.contains(p)

    @settings(max_examples=40, deadline=None)
    @given(cloud=point_clouds(min_size=3), seed=seeds)
    def test_minimality_against_random_balls(self, cloud, seed):
        # No ball centered at a perturbed center with a smaller radius
        # contains all points.
        ball = smallest_enclosing_ball(cloud)
        rng = np.random.default_rng(seed)
        direction = rng.normal(size=3)
        if np.linalg.norm(direction) < 1e-12:
            return
        direction /= np.linalg.norm(direction)
        shifted = ball.center + 0.01 * max(ball.radius, 0.1) * direction
        needed = max(float(np.linalg.norm(p - shifted)) for p in cloud)
        assert needed >= ball.radius - 1e-7

    @settings(max_examples=40, deadline=None)
    @given(cloud=point_clouds(), seed=seeds)
    def test_similarity_equivariance(self, cloud, seed):
        rng = np.random.default_rng(seed)
        sim = Similarity.random(rng)
        ball = smallest_enclosing_ball(cloud)
        moved = smallest_enclosing_ball(
            [sim.apply(p) for p in cloud])
        assert np.allclose(moved.center, sim.apply(ball.center),
                           atol=1e-6 * max(1.0, ball.radius) * sim.scale)
        assert np.isclose(moved.radius, sim.scale * ball.radius,
                          rtol=1e-6, atol=1e-9)


class TestSimilarityProperties:
    @settings(max_examples=40, deadline=None)
    @given(cloud=point_clouds(min_size=3), seed=seeds)
    def test_similar_to_own_image(self, cloud, seed):
        rng = np.random.default_rng(seed)
        sim = Similarity.random(rng)
        assert Configuration(cloud).is_similar_to(
            [sim.apply(p) for p in cloud])

    @settings(max_examples=40, deadline=None)
    @given(cloud=point_clouds(min_size=3))
    def test_reflexive(self, cloud):
        assert Configuration(cloud).is_similar_to(list(cloud))

    @settings(max_examples=30, deadline=None)
    @given(cloud=point_clouds(min_size=4), seed=seeds)
    def test_symmetric_relation(self, cloud, seed):
        rng = np.random.default_rng(seed)
        sim = Similarity.random(rng)
        image = [sim.apply(p) for p in cloud]
        assert Configuration(cloud).is_similar_to(image) == \
            Configuration(image).is_similar_to(cloud)
