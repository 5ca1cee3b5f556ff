"""Reference per-object kernels, frozen as an oracle.

Copies of five kernels as they stood before they became array passes
or scalar loops:

* the closure-based subgroup enumeration (``_generic_subgroups``):
  pairwise joins of every subgroup found so far, closed on Python sets
  over the integer Cayley table until no join is new;
* hull-face ordering, one face at a time (``ConvexPolyhedron.
  _merge_faces`` with the per-face ``_cyclic_order`` it called);
* the per-robot random frame (``random_rotation`` and
  ``LocalFrame.random``): one QR decomposition per robot;
* the orthogonality test through ``np.allclose``
  (``is_rotation_matrix``);
* Welzl's smallest enclosing ball with one NumPy distance pass per
  recursion step, over a shuffled list of per-point arrays
  (``smallest_enclosing_ball`` and its ``_welzl``).

The bodies are verbatim apart from methods turned into functions
(``self.vertices`` and ``self._tol`` became parameters).  The
equivalence suite in ``test_equivalence_kernels.py`` holds the
production kernels to these answers.  Do not "improve" this file — its
value is that it does not share code paths with what it checks.
"""

from __future__ import annotations

import itertools
import random

import numpy as np
from scipy.spatial import ConvexHull

from repro.errors import GeometryError, GroupError
from repro.geometry.balls import (
    _HULL_PRUNE_MIN,
    _THIN_SHELL,
    Ball,
    _ball_from_points,
    _boundary_candidates,
)
from repro.geometry.convex import Face
from repro.geometry.tolerance import DEFAULT_TOL, Tolerance
from repro.groups.group import RotationGroup, element_key


# ----------------------------------------------------------------------
# Subgroup lattice: closure of pairwise joins on integer sets
# ----------------------------------------------------------------------
def generic_subgroups(group: RotationGroup,
                      tol: Tolerance) -> list[RotationGroup]:
    """Subgroup enumeration via an integer Cayley table.

    Elements are mapped to indices once; all closures then run on
    integer sets, which keeps the order-60 icosahedral group cheap.
    """
    elements = group.elements
    order = len(elements)
    stack = np.stack(elements)
    index_of = {element_key(m): i for i, m in enumerate(elements)}
    # All pairwise products at once: products[i, j] = E_i @ E_j.
    products = np.einsum("aij,bjk->abik", stack, stack)
    keys = np.round(products.reshape(order * order, 9), 5) + 0.0
    table = np.empty(order * order, dtype=np.int64)
    for flat, row in enumerate(keys):
        key = tuple(row.tolist())
        if key not in index_of:
            raise GroupError("element set is not closed under products")
        table[flat] = index_of[key]
    rows = table.reshape(order, order).tolist()
    identity = index_of[element_key(np.eye(3))]
    full = frozenset(range(order))
    divisors = [d for d in range(1, order + 1) if order % d == 0]

    def _forced_full(size: int) -> bool:
        # Lagrange: the closure's order divides ``order`` and is at
        # least ``size``; if the only such divisor is ``order`` itself
        # the closure must be the whole group.
        return next(d for d in divisors if d >= size) == order

    def close(seed) -> frozenset:
        # Plain-set closure: at order <= 60 the sets are tiny, so
        # Python-level products beat array indexing by a wide margin.
        current = set(seed)
        current.add(identity)
        if _forced_full(len(current)):
            return full
        frontier = list(current)
        while frontier:
            fresh = []
            members = list(current)
            for i in frontier:
                row = rows[i]
                for j in members:
                    k = row[j]
                    if k not in current:
                        current.add(k)
                        fresh.append(k)
                    k = rows[j][i]
                    if k not in current:
                        current.add(k)
                        fresh.append(k)
            if fresh and _forced_full(len(current)):
                return full
            frontier = fresh
        return frozenset(current)

    def powers(i: int) -> frozenset:
        # <E_i> directly via the Cayley table.
        current = {identity}
        j = i
        while j not in current:
            current.add(j)
            j = rows[j][i]
        return frozenset(current)

    subgroups: set[frozenset] = {frozenset([identity])}
    subgroups.update(powers(i) for i in range(order))
    join_cache: dict[frozenset, frozenset] = {}
    changed = True
    while changed:
        changed = False
        current = list(subgroups)
        for sub_a, sub_b in itertools.combinations(current, 2):
            if sub_a <= sub_b or sub_b <= sub_a:
                continue
            union = sub_a | sub_b
            joined = join_cache.get(union)
            if joined is None:
                joined = close(union)
                join_cache[union] = joined
            if joined not in subgroups:
                subgroups.add(joined)
                changed = True
    return [RotationGroup([elements[i] for i in sub], tol=tol)
            for sub in subgroups]


# ----------------------------------------------------------------------
# Hull faces: one cyclic order per face
# ----------------------------------------------------------------------
def merge_faces(points: np.ndarray, hull: ConvexHull,
                tol: Tolerance = DEFAULT_TOL) -> list[Face]:
    """Group hull simplices by (normal, offset) into true faces.

    A simplex joins the first face whose first simplex has its
    normal and offset within the slack, or starts a new face.  So
    each face's first simplex is the first one no earlier face
    claimed, and faces come in the order of their first simplices.
    """
    scale = float(np.abs(points).max())
    slack = 1e3 * tol.abs_tol * max(1.0, scale)
    centroid = points.mean(axis=0)
    normals = np.array(hull.equations[:, :3], dtype=float)
    offsets = np.array(hull.equations[:, 3], dtype=float)
    # Ensure outward orientation relative to the centroid.
    inward = normals @ centroid + offsets > 0
    normals[inward] *= -1.0
    offsets[inward] *= -1.0
    close = np.linalg.norm(normals[:, None] - normals[None], axis=2) \
        <= slack
    close &= np.abs(offsets[:, None] - offsets[None]) <= slack
    simplices = hull.simplices.tolist()
    unclaimed = np.ones(len(offsets), dtype=bool)
    faces = []
    for first in range(len(offsets)):
        if not unclaimed[first]:
            continue
        members = np.flatnonzero(unclaimed & close[first])
        unclaimed[members] = False
        vertices = sorted({i for j in members for i in simplices[j]})
        normal = normals[first]
        ordered = cyclic_order(points, vertices, normal)
        faces.append(Face(
            vertex_indices=tuple(ordered),
            normal=normal / np.linalg.norm(normal),
            center=points[ordered].mean(axis=0),
        ))
    return faces


def cyclic_order(points: np.ndarray, indices: list[int],
                 normal) -> list[int]:
    """Order face vertices counter-clockwise about the normal."""
    pts = points[indices]
    center = pts.mean(axis=0)
    n = np.asarray(normal, dtype=float)
    n = n / np.linalg.norm(n)
    rel0 = pts[0] - center
    u = rel0 - float(np.dot(rel0, n)) * n
    u = u / np.linalg.norm(u)
    # n × u written out: np.cross computes the same products and
    # differences, at many times the call overhead.
    v = np.array([n[1] * u[2] - n[2] * u[1],
                  n[2] * u[0] - n[0] * u[2],
                  n[0] * u[1] - n[1] * u[0]])
    angles = np.arctan2((pts - center) @ v, (pts - center) @ u)
    order = np.argsort(angles)
    return [indices[i] for i in order]


# ----------------------------------------------------------------------
# Random frames: one QR per robot
# ----------------------------------------------------------------------
def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """A rotation drawn uniformly from SO(3) (Haar measure).

    Uses the QR decomposition of a Gaussian matrix with sign fixing.
    """
    gauss = rng.normal(size=(3, 3))
    q, r = np.linalg.qr(gauss)
    q = q @ np.diag(np.sign(np.diag(r)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_frame(rng: np.random.Generator,
                 scale_range: tuple[float, float] = (0.25, 4.0)
                 ) -> tuple[np.ndarray, float]:
    """``LocalFrame.random``'s draws: (rotation, scale)."""
    low, high = scale_range
    scale = float(np.exp(rng.uniform(np.log(low), np.log(high))))
    return random_rotation(rng), scale


# ----------------------------------------------------------------------
# Orthogonality through np.allclose
# ----------------------------------------------------------------------
def is_rotation_matrix(mat, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Return True if ``mat`` is orthogonal with determinant +1."""
    arr = np.asarray(mat, dtype=float)
    if arr.shape != (3, 3):
        return False
    if not np.allclose(arr @ arr.T, np.eye(3), atol=10 * tol.abs_tol):
        return False
    return tol.close(float(np.linalg.det(arr)), 1.0)


# ----------------------------------------------------------------------
# Smallest enclosing ball: one NumPy distance pass per recursion step
# ----------------------------------------------------------------------
def smallest_enclosing_ball(points, tol: Tolerance = DEFAULT_TOL,
                            seed: int = 0) -> Ball:
    """Smallest enclosing ball ``B(P)`` of a non-empty point set.

    Implements Welzl's randomized move-to-front algorithm.  The
    shuffle uses a deterministic seed so results are reproducible.
    Large inputs are pre-pruned to their convex-hull vertices (see
    :data:`_HULL_PRUNE_MIN`); the recursion then runs on the support
    superset only.
    """
    pts = [np.asarray(p, dtype=float) for p in points]
    if not pts:
        raise GeometryError("smallest enclosing ball of an empty set")
    if len(pts) >= _HULL_PRUNE_MIN:
        arr = np.asarray(pts, dtype=float)
        radii = np.linalg.norm(arr - arr.mean(axis=0), axis=1)
        rmax = float(radii.max())
        if rmax <= 0.0 or float(radii.min()) < _THIN_SHELL * rmax:
            pts = list(_boundary_candidates(arr, tol))
    rng = random.Random(seed)
    shuffled = pts[:]
    rng.shuffle(shuffled)
    return _welzl(np.asarray(shuffled, dtype=float), [], tol)


def _welzl(points: np.ndarray, boundary: list[np.ndarray],
           tol: Tolerance) -> Ball:
    """Welzl's recursion with a vectorized violation scan.

    Instead of testing containment point by point in Python, each pass
    finds the first point outside the current ball with one batched
    distance computation; the recursion (and therefore the computed
    ball) is identical to the sequential formulation.
    """
    if len(boundary) == 4:
        return _ball_from_points(boundary)
    ball = _ball_from_points(boundary)
    start = 0
    while start < len(points):
        tail = points[start:]
        distances = np.linalg.norm(tail - ball.center, axis=1)
        limit = (ball.radius + tol.abs_tol
                 + tol.rel_tol * max(ball.radius, 1.0))
        violations = np.nonzero(distances > limit)[0]
        if violations.size == 0:
            break
        first = start + int(violations[0])
        ball = _welzl(points[:first], boundary + [points[first]], tol)
        start = first + 1
    return ball
