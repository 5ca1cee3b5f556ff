"""Convex polyhedra: faces, adjacency, and face centers.

The go-to-center algorithm (Algorithm 4.1 of the paper) moves each
robot toward the center of an *adjacent face* of the polyhedron the
configuration forms.  scipy's ``ConvexHull`` returns a triangulation;
this module merges coplanar triangles back into the true faces so a
cube has 6 square faces, a cuboctahedron has 8 triangles + 6 squares,
and so on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull

from repro.errors import GeometryError
from repro.geometry.tolerance import DEFAULT_TOL, Tolerance

__all__ = ["Face", "ConvexPolyhedron"]


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two ``(f, 3)`` arrays, each the BLAS
    product ``np.dot`` takes for one pair of vectors."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _norms(a: np.ndarray) -> np.ndarray:
    """Row norms of an ``(f, 3)`` array as ``np.linalg.norm`` takes one
    vector's: the square root of its dot product with itself."""
    return np.sqrt(_dots(a, a))


@dataclass(frozen=True)
class Face:
    """A (merged, planar) face of a convex polyhedron.

    Attributes
    ----------
    vertex_indices:
        Indices into the polyhedron's vertex array, in cyclic order
        around the face (counter-clockwise seen from outside).
    normal:
        Outward unit normal.
    center:
        Arithmetic mean of the face's vertices.
    """

    vertex_indices: tuple[int, ...]
    normal: np.ndarray
    center: np.ndarray

    @property
    def size(self) -> int:
        """Number of vertices on the face."""
        return len(self.vertex_indices)


class ConvexPolyhedron:
    """Convex hull of a 3D point set with merged coplanar faces."""

    def __init__(self, points, tol: Tolerance = DEFAULT_TOL) -> None:
        self.vertices = np.asarray(list(points), dtype=float)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise GeometryError("ConvexPolyhedron expects Nx3 points")
        if len(self.vertices) < 4:
            raise GeometryError("need at least 4 points for a 3D hull")
        self._tol = tol
        try:
            hull = ConvexHull(self.vertices)
        except Exception as exc:  # scipy raises QhullError on flat input
            raise GeometryError(f"convex hull failed: {exc}") from exc
        if len(hull.vertices) != len(self.vertices):
            raise GeometryError(
                "some points are not vertices of their convex hull")
        self.faces = self._merge_faces(hull)

    def _merge_faces(self, hull: ConvexHull) -> list[Face]:
        """Group hull simplices by (normal, offset) into true faces.

        A simplex joins the first face whose first simplex has its
        normal and offset within the slack, or starts a new face.  So
        each face's first simplex is the first one no earlier face
        claimed, and faces come in the order of their first simplices.
        The faces of each size are then ordered in one stacked pass.
        """
        scale = float(np.abs(self.vertices).max())
        slack = 1e3 * self._tol.abs_tol * max(1.0, scale)
        centroid = self.vertices.mean(axis=0)
        normals = np.array(hull.equations[:, :3], dtype=float)
        offsets = np.array(hull.equations[:, 3], dtype=float)
        # Ensure outward orientation relative to the centroid.
        inward = normals @ centroid + offsets > 0
        normals[inward] *= -1.0
        offsets[inward] *= -1.0
        close = np.linalg.norm(normals[:, None] - normals[None], axis=2) \
            <= slack
        close &= np.abs(offsets[:, None] - offsets[None]) <= slack
        unclaimed = np.ones(len(offsets), dtype=bool)
        firsts = []
        vertex_sets = []
        for first in range(len(offsets)):
            if not unclaimed[first]:
                continue
            members = np.flatnonzero(unclaimed & close[first])
            unclaimed[members] = False
            firsts.append(first)
            vertex_sets.append(np.unique(hull.simplices[members]))
        faces: dict[int, Face] = {}
        for size in sorted({len(v) for v in vertex_sets}):
            slots = [i for i, v in enumerate(vertex_sets) if len(v) == size]
            ordered, units, centers = self._cyclic_orders(
                np.array([vertex_sets[i] for i in slots]),
                normals[[firsts[i] for i in slots]])
            for slot, indices, unit, center in zip(
                    slots, ordered.tolist(), units, centers):
                faces[slot] = Face(vertex_indices=tuple(indices),
                                   normal=unit, center=center)
        return [faces[slot] for slot in range(len(firsts))]

    def _cyclic_orders(self, indices: np.ndarray, normals: np.ndarray):
        """Order the vertices of ``(f, k)`` faces of one size ``k``
        counter-clockwise about their ``(f, 3)`` normals.

        Returns the reordered indices, the unit normals and the centres
        of the reordered vertices.  Each face gets the per-face float
        expressions bit for bit: the dot products and norms go through
        the same BLAS products as ``np.dot`` and ``np.linalg.norm`` on
        one vector.  That matters for a square face, whose opposite
        vertex sits at ±π: the sign of the last bit of its angle picks
        where the vertex tuple starts.
        """
        pts = self.vertices[indices]
        center = pts.mean(axis=1)
        n = normals / _norms(normals)[:, None]
        rel = pts - center[:, None]
        u = rel[:, 0] - _dots(rel[:, 0], n)[:, None] * n
        u = u / _norms(u)[:, None]
        # n × u written out, as np.cross computes it.
        v = np.stack([n[:, 1] * u[:, 2] - n[:, 2] * u[:, 1],
                      n[:, 2] * u[:, 0] - n[:, 0] * u[:, 2],
                      n[:, 0] * u[:, 1] - n[:, 1] * u[:, 0]], axis=1)
        angles = np.arctan2((rel @ v[:, :, None])[:, :, 0],
                            (rel @ u[:, :, None])[:, :, 0])
        ordered = np.take_along_axis(indices, np.argsort(angles, axis=1),
                                     axis=1)
        return ordered, n, self.vertices[ordered].mean(axis=1)

    def faces_of_vertex(self, vertex_index: int) -> list[Face]:
        """Faces incident to a given vertex (the 'adjacent faces')."""
        return [f for f in self.faces if vertex_index in f.vertex_indices]

    def face_sizes(self) -> list[int]:
        """Sorted list of face vertex counts (a shape fingerprint)."""
        return sorted(f.size for f in self.faces)

    def edge_lengths(self) -> list[float]:
        """All edge lengths (each edge once)."""
        seen: set[tuple[int, int]] = set()
        lengths: list[float] = []
        for face in self.faces:
            idx = face.vertex_indices
            for i in range(len(idx)):
                a, b = idx[i], idx[(i + 1) % len(idx)]
                key = (min(a, b), max(a, b))
                if key not in seen:
                    seen.add(key)
                    lengths.append(float(np.linalg.norm(
                        self.vertices[a] - self.vertices[b])))
        return lengths

    def min_edge_length(self) -> float:
        """Shortest edge length of the hull."""
        return min(self.edge_lengths())
