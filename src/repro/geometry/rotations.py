"""Rotation matrices: construction, identification, and utilities.

Rotations are represented as 3x3 orthogonal matrices with determinant
+1 (elements of SO(3)).  The library identifies a non-identity rotation
by its *axis* (a unit vector, defined up to sign) and *angle* in
``(0, pi]``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GeometryError
from repro.geometry.tolerance import ALLCLOSE_RTOL, DEFAULT_TOL, Tolerance
from repro.geometry.vectors import normalize

__all__ = [
    "identity_rotation",
    "rotation_about_axis",
    "is_rotation_matrix",
    "rotation_angle",
    "rotation_axis",
    "rotation_aligning",
    "kabsch",
    "random_rotation",
    "haar_rotations",
    "rotation_order",
]

_MAX_ORDER_SEARCH = 400

_EYE3 = np.eye(3)
# The relative half of np.allclose's bound ``atol + rtol * |I|``.
_RTOL_EYE3 = ALLCLOSE_RTOL * _EYE3


def identity_rotation() -> np.ndarray:
    """The identity element of SO(3)."""
    return np.eye(3)


def rotation_about_axis(axis, angle: float) -> np.ndarray:
    """Rotation by ``angle`` radians about ``axis`` (Rodrigues formula).

    Positive angles follow the right-hand rule about ``axis``.
    """
    u = normalize(axis)
    c = float(np.cos(angle))
    s = float(np.sin(angle))
    ux, uy, uz = u
    cross = np.array([
        [0.0, -uz, uy],
        [uz, 0.0, -ux],
        [-uy, ux, 0.0],
    ])
    return c * np.eye(3) + s * cross + (1.0 - c) * np.outer(u, u)


def is_rotation_matrix(mat, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Return True if ``mat`` is orthogonal with determinant +1."""
    arr = np.asarray(mat, dtype=float)
    if arr.shape != (3, 3):
        return False
    # np.allclose(arr @ arr.T, I, atol=10 * tol.abs_tol) written out:
    # the same test |A Aᵀ - I| <= atol + rtol |I| (NaN and inf fail
    # it), without the call's overhead.
    residual = np.abs(arr @ arr.T - _EYE3)
    if not (residual <= 10 * tol.abs_tol + _RTOL_EYE3).all():
        return False
    return tol.close(float(np.linalg.det(arr)), 1.0)


def rotation_angle(mat, tol: Tolerance = DEFAULT_TOL) -> float:
    """Rotation angle of ``mat`` in ``[0, pi]``."""
    arr = np.asarray(mat, dtype=float)
    trace = float(np.clip((np.trace(arr) - 1.0) / 2.0, -1.0, 1.0))
    return float(np.arccos(trace))


def rotation_axis(mat, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Unit axis of the non-identity rotation ``mat``.

    The sign convention follows the right-hand rule: rotating by
    :func:`rotation_angle` about the returned axis reproduces ``mat``.
    For half-turns (angle pi) the axis sign is chosen canonically
    (first nonzero coordinate positive).

    Raises
    ------
    GeometryError
        If ``mat`` is (numerically) the identity.
    """
    arr = np.asarray(mat, dtype=float)
    angle = rotation_angle(arr, tol)
    if tol.zero(angle):
        raise GeometryError("identity rotation has no axis")
    if tol.close(angle, np.pi):
        # R = 2 u u^T - I  =>  u u^T = (R + I) / 2
        sym = (arr + np.eye(3)) / 2.0
        col = sym[:, int(np.argmax(np.diag(sym)))]
        u = normalize(col, tol)
        # Canonical sign: first coordinate with |.| > tol positive.
        for coord in u:
            if not tol.zero(float(coord)):
                if coord < 0:
                    u = -u
                break
        return u
    # Axis from the antisymmetric part.
    axis = np.array([
        arr[2, 1] - arr[1, 2],
        arr[0, 2] - arr[2, 0],
        arr[1, 0] - arr[0, 1],
    ])
    return normalize(axis, tol)


def rotation_aligning(a, b, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """A rotation mapping direction ``a`` onto direction ``b``.

    The rotation about ``a x b`` with the minimal angle is returned.
    When ``a`` and ``b`` are antiparallel, a half-turn about a
    deterministic perpendicular axis is used.
    """
    ua = normalize(a, tol)
    ub = normalize(b, tol)
    cross = np.cross(ua, ub)
    s = float(np.linalg.norm(cross))
    c = float(np.dot(ua, ub))
    if tol.zero(s):
        if c > 0:
            return np.eye(3)
        # Antiparallel: half turn about any perpendicular axis.
        from repro.geometry.vectors import orthonormal_basis_for

        u, _, _ = orthonormal_basis_for(ua, tol)
        return rotation_about_axis(u, np.pi)
    angle = float(np.arctan2(s, c))
    return rotation_about_axis(cross, angle)


def kabsch(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """The rotation minimizing ``Σ |R src_i - dst_i|²`` (det +1)."""
    h = np.asarray(src, dtype=float).T @ np.asarray(dst, dtype=float)
    u, _, vt = np.linalg.svd(h)
    rotation = vt.T @ u.T
    if np.linalg.det(rotation) < 0.0:
        correction = np.diag([1.0, 1.0, -1.0])
        rotation = vt.T @ correction @ u.T
    return rotation


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """A rotation drawn uniformly from SO(3) (Haar measure).

    Uses the QR decomposition of a Gaussian matrix with sign fixing.
    """
    return haar_rotations(rng.normal(size=(1, 3, 3)))[0]


def haar_rotations(gauss: np.ndarray) -> np.ndarray:
    """The rotations :func:`random_rotation` makes from a ``(k, 3, 3)``
    stack of Gaussian matrices, in one stacked pass.

    ``Q`` of each matrix's QR decomposition, its columns signed by
    ``R``'s diagonal, with the first column negated where the
    determinant is negative.  NumPy factors and multiplies a stack one
    matrix at a time with the same routines, so row ``i`` is bit for
    bit the rotation that matrix ``i`` alone would give.
    """
    q, r = np.linalg.qr(gauss)
    signs = np.zeros_like(q)
    signs[:, [0, 1, 2], [0, 1, 2]] = np.sign(np.diagonal(r, axis1=1,
                                                         axis2=2))
    q = q @ signs
    q[np.linalg.det(q) < 0, :, 0] *= -1.0
    return q


def rotation_order(mat, tol: Tolerance = DEFAULT_TOL,
                   max_order: int = _MAX_ORDER_SEARCH) -> int | None:
    """Smallest ``k >= 1`` with ``mat^k = I``, or None if none ≤ max_order.

    Works on the rotation angle: the order is the smallest ``k`` such
    that ``k * angle`` is a multiple of ``2 pi``.
    """
    arr = np.asarray(mat, dtype=float)
    angle = rotation_angle(arr, tol)
    if tol.zero(angle):
        return 1
    for k in range(2, max_order + 1):
        total = k * angle / (2.0 * np.pi)
        if tol.close(total, round(total)) and round(total) >= 1:
            return k
    return None
