"""Vector utilities on ``numpy`` 3-vectors.

Conventions: points and directions are ``numpy`` arrays of shape
``(3,)`` with dtype float64.  Functions accept anything convertible via
:func:`numpy.asarray`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import GeometryError
from repro.geometry.tolerance import DEFAULT_TOL, Tolerance

__all__ = [
    "as_vector",
    "norm",
    "normalize",
    "distance",
    "angle_between",
    "orthonormal_basis_for",
    "is_unit",
    "are_parallel",
    "are_perpendicular",
    "centroid",
    "cross",
]

# Cyclic shifts of (x, y, z), for the cross product.
_YZX = np.array([1, 2, 0])
_ZXY = np.array([2, 0, 1])


def as_vector(v) -> np.ndarray:
    """Return ``v`` as a float64 array of shape (3,)."""
    arr = np.asarray(v, dtype=float)
    if arr.shape != (3,):
        raise GeometryError(f"expected a 3-vector, got shape {arr.shape}")
    return arr


def norm(v) -> float:
    """Euclidean length of ``v``."""
    return float(np.linalg.norm(as_vector(v)))


def normalize(v, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Return ``v`` scaled to unit length.

    Raises
    ------
    GeometryError
        If ``v`` is the zero vector (within tolerance).
    """
    arr = as_vector(v)
    length = float(np.linalg.norm(arr))
    if tol.zero(length):
        raise GeometryError("cannot normalize a zero vector")
    return arr / length


def distance(a, b) -> float:
    """Euclidean distance between points ``a`` and ``b``."""
    return float(np.linalg.norm(as_vector(a) - as_vector(b)))


def angle_between(a, b, tol: Tolerance = DEFAULT_TOL) -> float:
    """Angle in radians between vectors ``a`` and ``b`` (in [0, pi])."""
    ua = normalize(a, tol)
    ub = normalize(b, tol)
    dot = float(np.clip(np.dot(ua, ub), -1.0, 1.0))
    return float(np.arccos(dot))


def is_unit(v, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Return True if ``v`` has unit length within tolerance."""
    return tol.close(float(np.linalg.norm(as_vector(v))), 1.0)


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.cross(a, b)`` over the last axis, without its call overhead.

    ``a`` and ``b`` are 3-vectors or ``(k, 3)`` rows that broadcast
    against each other.  Component ``k`` is ``a[k+1] * b[k+2] -
    a[k+2] * b[k+1]`` (indices mod 3): the products and difference
    ``np.cross`` forms, so the same bits in a C-ordered array.
    ``np.cross``'s argument handling costs more than the arithmetic
    for the handful of rows the kernels pass.
    """
    return np.ascontiguousarray(a[..., _YZX] * b[..., _ZXY]
                                - a[..., _ZXY] * b[..., _YZX])


def are_parallel(a, b, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Return True if ``a`` and ``b`` span the same line through 0."""
    ua = normalize(a, tol)
    ub = normalize(b, tol)
    cross = np.cross(ua, ub)
    return tol.zero(float(np.linalg.norm(cross)))


def are_perpendicular(a, b, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Return True if ``a`` and ``b`` are orthogonal within tolerance."""
    ua = normalize(a, tol)
    ub = normalize(b, tol)
    return tol.zero(float(np.dot(ua, ub)))


def orthonormal_basis_for(w, tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return a right-handed orthonormal basis ``(u, v, w̄)`` with ``w̄ ∥ w``.

    The returned third vector is ``w`` normalized; ``u`` and ``v`` are
    deterministic functions of ``w`` (no randomness), so repeated calls
    with the same axis give the same frame.
    """
    w_hat = normalize(w, tol)
    # Pick the coordinate axis least aligned with w to seed u.
    seed = np.zeros(3)
    seed[int(np.argmin(np.abs(w_hat)))] = 1.0
    u = seed - np.dot(seed, w_hat) * w_hat
    u = normalize(u, tol)
    v = np.cross(w_hat, u)
    return u, v, w_hat


def centroid(points: Iterable[Sequence[float]]) -> np.ndarray:
    """Arithmetic mean of a non-empty collection of points."""
    arr = np.asarray(list(points), dtype=float)
    if arr.size == 0:
        raise GeometryError("centroid of an empty point collection")
    return arr.mean(axis=0)
