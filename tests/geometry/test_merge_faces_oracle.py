"""``ConvexPolyhedron._merge_faces`` against a frozen copy of its loop.

The production method groups Qhull's simplices with array operations.
``_reference_merge_faces`` below is the per-simplex Python loop it
replaced, copied verbatim with the cyclic vertex order it called: each
simplex is compared with every face group made so far and joins the
first within the slack.  Both must yield the same faces in the same
order, with the same vertex tuples, normals and centres, bit for bit.
Do not "improve" the copy — its value is that it does not share code
with what it checks.
"""

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from repro.geometry.convex import ConvexPolyhedron, Face
from repro.geometry.transforms import Similarity
from repro.patterns import polyhedra
from repro.patterns.library import named_pattern

SEVEN = ("tetrahedron", "octahedron", "cube", "cuboctahedron",
         "icosahedron", "dodecahedron", "icosidodecahedron")


def _reference_merge_faces(poly: ConvexPolyhedron,
                           hull: ConvexHull) -> list[Face]:
    scale = float(np.abs(poly.vertices).max())
    slack = 1e3 * poly._tol.abs_tol * max(1.0, scale)
    groups: list[dict] = []
    centroid = poly.vertices.mean(axis=0)
    for simplex, eq in zip(hull.simplices, hull.equations):
        normal = eq[:3]
        offset = eq[3]
        if float(np.dot(normal, centroid)) + offset > 0:
            normal = -normal
            offset = -offset
        placed = False
        for group in groups:
            if (np.linalg.norm(group["normal"] - normal) <= slack
                    and abs(group["offset"] - offset) <= slack):
                group["vertices"].update(int(i) for i in simplex)
                placed = True
                break
        if not placed:
            groups.append({
                "normal": normal.copy(),
                "offset": float(offset),
                "vertices": set(int(i) for i in simplex),
            })
    faces = []
    for group in groups:
        ordered = _reference_cyclic_order(poly.vertices,
                                          sorted(group["vertices"]),
                                          group["normal"])
        pts = poly.vertices[list(ordered)]
        faces.append(Face(
            vertex_indices=tuple(ordered),
            normal=group["normal"] / np.linalg.norm(group["normal"]),
            center=pts.mean(axis=0),
        ))
    return faces


def _reference_cyclic_order(vertices, indices, normal) -> list[int]:
    pts = vertices[indices]
    center = pts.mean(axis=0)
    n = np.asarray(normal, dtype=float)
    n = n / np.linalg.norm(n)
    rel0 = pts[0] - center
    u = rel0 - float(np.dot(rel0, n)) * n
    u = u / np.linalg.norm(u)
    v = np.cross(n, u)
    angles = np.arctan2((pts - center) @ v, (pts - center) @ u)
    order = np.argsort(angles)
    return [indices[i] for i in order]


def _assert_same_faces(points) -> None:
    poly = ConvexPolyhedron(points)
    expected = _reference_merge_faces(poly, ConvexHull(poly.vertices))
    assert len(poly.faces) == len(expected)
    for got, want in zip(poly.faces, expected):
        assert got.vertex_indices == want.vertex_indices
        assert np.array_equal(got.normal, want.normal)
        assert np.array_equal(got.center, want.center)


@pytest.mark.parametrize("name", SEVEN)
@pytest.mark.parametrize("seed", range(4))
def test_seven_polyhedra_under_similarities(name, seed):
    rng = np.random.default_rng(seed)
    similarity = Similarity.random(rng)
    _assert_same_faces(similarity.apply_all(named_pattern(name)))


@pytest.mark.parametrize("k", range(3, 9))
def test_prisms_and_antiprisms(k):
    rng = np.random.default_rng(k)
    for shape in (polyhedra.prism(k), polyhedra.antiprism(k)):
        _assert_same_faces(shape)
        _assert_same_faces(Similarity.random(rng).apply_all(shape))


@pytest.mark.parametrize("seed", range(8))
def test_random_clouds(seed):
    rng = np.random.default_rng(100 + seed)
    points = rng.normal(size=(int(rng.integers(6, 40)), 3))
    # Only hull vertices are accepted: keep the cloud's hull vertices.
    points = points[np.sort(ConvexHull(points).vertices)]
    _assert_same_faces(list(points))
