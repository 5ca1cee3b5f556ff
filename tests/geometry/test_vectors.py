"""Tests for basic vector utilities."""

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.geometry.vectors import (
    angle_between,
    are_parallel,
    are_perpendicular,
    centroid,
    cross,
    distance,
    is_unit,
    norm,
    normalize,
    orthonormal_basis_for,
)


class TestNormalize:
    def test_unit_result(self, rng):
        for _ in range(10):
            v = rng.normal(size=3)
            assert np.linalg.norm(normalize(v)) == pytest.approx(1.0)

    def test_direction_preserved(self):
        assert np.allclose(normalize([0, 0, 5]), [0, 0, 1])

    def test_zero_vector_raises(self):
        with pytest.raises(GeometryError):
            normalize([0, 0, 0])

    def test_wrong_shape_raises(self):
        with pytest.raises(GeometryError):
            normalize([1, 2])


class TestNormDistance:
    def test_norm(self):
        assert norm([3, 4, 0]) == pytest.approx(5.0)

    def test_distance(self):
        assert distance([1, 0, 0], [1, 3, 4]) == pytest.approx(5.0)


class TestAngles:
    def test_perpendicular(self):
        assert angle_between([1, 0, 0], [0, 1, 0]) == pytest.approx(
            np.pi / 2)

    def test_parallel(self):
        assert angle_between([1, 1, 1], [2, 2, 2]) == pytest.approx(0.0)

    def test_antiparallel(self):
        assert angle_between([1, 0, 0], [-1, 0, 0]) == pytest.approx(np.pi)


class TestPredicates:
    def test_is_unit(self):
        assert is_unit([1, 0, 0])
        assert not is_unit([1, 1, 0])

    def test_are_parallel(self):
        assert are_parallel([1, 2, 3], [-2, -4, -6])
        assert not are_parallel([1, 0, 0], [1, 0.1, 0])

    def test_are_perpendicular(self):
        assert are_perpendicular([1, 0, 0], [0, 0, 1])
        assert not are_perpendicular([1, 0, 0], [1, 1, 0])


class TestOrthonormalBasis:
    def test_right_handed_and_orthonormal(self, rng):
        for _ in range(20):
            w = rng.normal(size=3)
            u, v, w_hat = orthonormal_basis_for(w)
            mat = np.column_stack([u, v, w_hat])
            assert np.allclose(mat @ mat.T, np.eye(3), atol=1e-9)
            assert np.linalg.det(mat) == pytest.approx(1.0)

    def test_third_vector_parallel_to_input(self):
        _, _, w_hat = orthonormal_basis_for([0, 0, 7])
        assert np.allclose(w_hat, [0, 0, 1])

    def test_deterministic(self):
        a = orthonormal_basis_for([1, 2, 3])
        b = orthonormal_basis_for([1, 2, 3])
        for x, y in zip(a, b):
            assert np.allclose(x, y)


class TestCentroid:
    def test_mean(self):
        assert np.allclose(centroid([[0, 0, 0], [2, 0, 0]]), [1, 0, 0])

    def test_empty_raises(self):
        with pytest.raises(GeometryError):
            centroid([])


class TestCross:
    """``cross`` is ``np.cross`` over the last axis, bit for bit."""

    @staticmethod
    def _same_bits(a, b):
        return a.shape == b.shape and a.flags.c_contiguous \
            and a.tobytes() == np.ascontiguousarray(b).tobytes()

    def test_matches_np_cross_bit_for_bit(self, rng):
        for k in (1, 2, 7, 64):
            a = rng.normal(size=(k, 3)) * 10.0 ** rng.integers(-8, 8)
            b = rng.normal(size=(k, 3))
            assert self._same_bits(cross(a, b), np.cross(a, b))
            # One vector against rows, either way round.
            assert self._same_bits(cross(a[0], b), np.cross(a[0], b))
            assert self._same_bits(cross(a, b[0]), np.cross(a, b[0]))
            assert self._same_bits(cross(a[0], b[0]), np.cross(a[0], b[0]))
            # Every row against every row, by broadcasting.
            grid_a, grid_b = a[:, None, :], b[None, :, :]
            assert self._same_bits(cross(grid_a, grid_b),
                                   np.cross(grid_a, grid_b))

    def test_right_handed(self):
        x, y, z = np.eye(3)
        assert np.array_equal(cross(x, y), z)
        assert np.array_equal(cross(y, x), -z)
