"""Array-pass kernels against their frozen per-object references.

The subgroup lattice, the hull-face order, the random frames and the
orthogonality test each became one pass over stacked arrays; Welzl's
violation scan became a scalar loop.  The references in
``kernel_oracle`` are the code they replaced.  Lattices must agree as
sets (their order is now documented, not the closure's set order);
faces, frames, verdicts and enclosing balls must agree bit for bit.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.spatial import ConvexHull

import kernel_oracle as oracle
from repro.core.configuration import Configuration
from repro.errors import GeometryError
from repro.geometry.balls import smallest_enclosing_ball
from repro.geometry.convex import ConvexPolyhedron
from repro.geometry.rotations import is_rotation_matrix, random_rotation
from repro.geometry.tolerance import DEFAULT_TOL, Tolerance
from repro.geometry.transforms import Similarity
from repro.groups.catalog import (
    dihedral_group,
    group_from_spec,
    icosahedral_group,
    octahedral_group,
    tetrahedral_group,
)
from repro.groups.group import GroupSpec, RotationGroup, element_key
from repro.groups.subgroups import _generic_subgroups
from repro.patterns import polyhedra
from repro.patterns.library import named_pattern
from repro.patterns.orbits import generic_seed, transitive_set
from repro.robots.adversary import random_frames
from repro.robots.model import LocalFrame

GOC_POLYHEDRA = ("tetrahedron", "octahedron", "cube", "cuboctahedron",
                 "icosahedron", "dodecahedron", "icosidodecahedron")

CATALOG = {"T": tetrahedral_group, "O": octahedral_group,
           "I": icosahedral_group, "D2": lambda: dihedral_group(2)}


# ----------------------------------------------------------------------
# Subgroup lattices
# ----------------------------------------------------------------------
def _signature(subgroups) -> set:
    return {(str(sub.spec),
             frozenset(element_key(m) for m in sub.elements),
             frozenset((axis.line_key(), axis.fold, axis.oriented,
                        axis.occupied) for axis in sub.axes))
            for sub in subgroups}


def _assert_same_lattice(group: RotationGroup) -> None:
    tol = DEFAULT_TOL
    got = _generic_subgroups(group, tol)
    want = oracle.generic_subgroups(group, tol)
    assert len(got) == len(want)
    assert _signature(got) == _signature(want)
    # The documented order: by order, then by the bitmask over the
    # parent's element indices; elements in parent-index order.
    index = {element_key(m): i for i, m in enumerate(group.elements)}
    masks = []
    for sub in got:
        members = [index[element_key(m)] for m in sub.elements]
        assert members == sorted(members)
        masks.append((sub.order, sum(1 << i for i in members)))
    assert masks == sorted(masks)
    # Axes and type taken from the parent's per-element lines equal
    # what each subgroup derives from its own elements, bit for bit.
    for sub in got:
        derived = RotationGroup(sub.elements, tol=tol)
        assert derived.spec == sub.spec
        assert [(a.fold, a.oriented, a.occupied) for a in derived.axes] \
            == [(a.fold, a.oriented, a.occupied) for a in sub.axes]
        for a, b in zip(derived.axes, sub.axes):
            assert a.direction.tobytes() == b.direction.tobytes()


@pytest.mark.parametrize("name", sorted(CATALOG))
@pytest.mark.parametrize("seed", range(3))
def test_catalog_lattices_under_random_rotations(name, seed):
    rotation = random_rotation(np.random.default_rng(seed))
    _assert_same_lattice(CATALOG[name]().transformed(rotation))


@pytest.mark.parametrize("name", GOC_POLYHEDRA)
def test_detected_lattices_of_the_goc_polyhedra(name):
    rng = np.random.default_rng(sum(map(ord, name)))
    for _ in range(2):
        points = Similarity.random(rng).apply_all(named_pattern(name))
        _assert_same_lattice(Configuration(points).symmetry.group)


# ----------------------------------------------------------------------
# Hull faces
# ----------------------------------------------------------------------
def _assert_same_faces(points) -> list[int]:
    poly = ConvexPolyhedron(points)
    want = oracle.merge_faces(poly.vertices, ConvexHull(poly.vertices))
    assert len(poly.faces) == len(want)
    for got, ref in zip(poly.faces, want):
        assert got.vertex_indices == ref.vertex_indices
        assert all(type(i) is int for i in got.vertex_indices)
        assert got.normal.tobytes() == ref.normal.tobytes()
        assert got.center.tobytes() == ref.center.tobytes()
    return poly.face_sizes()


@pytest.mark.parametrize("name", GOC_POLYHEDRA)
def test_goc_polyhedra_faces_under_similarities(name):
    rng = np.random.default_rng(7 + sum(map(ord, name)))
    for _ in range(12):
        sizes = _assert_same_faces(
            Similarity.random(rng).apply_all(named_pattern(name)))
        if name in ("cube", "cuboctahedron"):
            assert 4 in sizes  # squares: opposite vertex at ±π


@pytest.mark.parametrize("k", (3, 4, 6, 8, 9, 12))
def test_large_faces_of_prisms_and_antiprisms(k):
    rng = np.random.default_rng(k)
    for shape in (polyhedra.prism(k), polyhedra.antiprism(k)):
        _assert_same_faces(shape)
        _assert_same_faces(Similarity.random(rng).apply_all(shape))


# ----------------------------------------------------------------------
# Random frames
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", (0, 1, 4, 30))
def test_random_frames_match_one_frame_at_a_time(n):
    for seed in range(100):
        got = random_frames(n, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        want = [LocalFrame.random(rng) for _ in range(n)]
        rng = np.random.default_rng(seed)
        reference = [oracle.random_frame(rng) for _ in range(n)]
        assert len(got) == len(want) == n
        for frame, one, (rotation, scale) in zip(got, want, reference):
            assert frame.rotation.tobytes() == one.rotation.tobytes()
            assert frame.rotation.tobytes() == rotation.tobytes()
            assert frame.scale == one.scale == scale


def test_random_frames_leave_the_stream_where_the_loop_does():
    rng = np.random.default_rng(3)
    random_frames(5, rng, scale_range=(0.5, 2.0))
    ref = np.random.default_rng(3)
    for _ in range(5):
        oracle.random_frame(ref, (0.5, 2.0))
    assert rng.random() == ref.random()


# ----------------------------------------------------------------------
# Orthogonality verdicts
# ----------------------------------------------------------------------
def _near(value: float, count: int = 40) -> list[float]:
    """``value`` and its ``count`` float neighbours on either side,
    plus relative nudges that clear any rounding in ``R Rᵀ``."""
    out = [value]
    up = down = value
    for _ in range(count):
        up = np.nextafter(up, np.inf)
        down = np.nextafter(down, -np.inf)
        out += [up, down]
    out += [value * (1.0 + f) for f in (-1e-3, -1e-6, 1e-6, 1e-3)]
    return out


@pytest.mark.parametrize("tol", (DEFAULT_TOL, Tolerance(1e-6, 1e-3)))
def test_verdicts_at_the_bound_off_the_diagonal(tol):
    atol = 10 * tol.abs_tol
    verdicts = set()
    for delta in _near(atol) + [-d for d in _near(atol)]:
        for i, j in ((0, 1), (2, 0), (1, 2)):
            mat = np.eye(3)
            mat[i, j] = delta
            verdict = is_rotation_matrix(mat, tol)
            assert verdict == oracle.is_rotation_matrix(mat, tol)
            verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize("tol", (DEFAULT_TOL, Tolerance(1e-6, 1e-3)))
def test_verdicts_at_the_bound_on_the_diagonal(tol):
    # diag(a, 1/a, 1) has determinant 1 to rounding, so only the
    # orthogonality test decides; its diagonal bound is atol + rtol.
    bound = 10 * tol.abs_tol + 1e-5
    verdicts = set()
    for residual in _near(bound) + [-r for r in _near(bound)]:
        a = np.sqrt(1.0 + residual)
        mat = np.diag([a, 1.0 / a, 1.0])
        verdict = is_rotation_matrix(mat, tol)
        assert verdict == oracle.is_rotation_matrix(mat, tol)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_verdicts_on_rotations_reflections_and_scalings():
    rng = np.random.default_rng(11)
    for _ in range(200):
        rotation = random_rotation(rng)
        for mat in (rotation, -rotation, 1.001 * rotation,
                    rotation + rng.normal(scale=1e-6, size=(3, 3))):
            assert is_rotation_matrix(mat) == oracle.is_rotation_matrix(mat)


def test_nan_inf_and_wrong_shapes_fail_as_before():
    cases = []
    for bad in (np.nan, np.inf, -np.inf):
        for i, j in ((0, 0), (1, 2)):
            mat = np.eye(3)
            mat[i, j] = bad
            cases.append(mat)
    cases += [np.eye(2), np.eye(4), np.zeros(3), np.eye(3)[None],
              np.eye(3)[:, :, None], [[1, 0, 0], [0, 1, 0], [0, 0, 1]]]
    with np.errstate(invalid="ignore"):
        for mat in cases:
            assert is_rotation_matrix(mat) == oracle.is_rotation_matrix(mat)
            if np.asarray(mat).shape != (3, 3) or not np.isfinite(mat).all():
                assert not is_rotation_matrix(mat)


# ----------------------------------------------------------------------
# Smallest enclosing ball
# ----------------------------------------------------------------------
def _assert_same_ball(points, seed: int = 0) -> None:
    """The centre bytes and radius of the oracle, or its GeometryError."""
    try:
        want = oracle.smallest_enclosing_ball(points, seed=seed)
    except GeometryError as exc:
        with pytest.raises(GeometryError) as info:
            smallest_enclosing_ball(points, seed=seed)
        assert str(info.value) == str(exc)
        return
    got = smallest_enclosing_ball(points, seed=seed)
    assert got.center.tobytes() == want.center.tobytes()
    assert type(got.radius) is type(want.radius)
    assert np.float64(got.radius).tobytes() == \
        np.float64(want.radius).tobytes()


def _unit(rng: np.random.Generator) -> np.ndarray:
    direction = rng.normal(size=3)
    return direction / np.linalg.norm(direction)


def _family(name: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` points of one shape Welzl's branches and ties care about."""
    if name == "generic":
        return rng.normal(size=(n, 3))
    if name == "collinear":
        return np.outer(rng.normal(size=n), _unit(rng))
    frame = random_rotation(rng)
    if name == "coplanar":
        flat = np.column_stack([rng.normal(size=(n, 2)), np.zeros(n)])
        return flat @ frame.T
    if name == "nearly_planar":
        heights = rng.choice([-1.0, 1.0], size=n) \
            * 10.0 ** rng.uniform(-12, -3, size=n)
        flat = np.column_stack([rng.normal(size=(n, 2)), heights])
        return flat @ frame.T
    if name == "duplicate":
        distinct = rng.normal(size=(max(1, n // 3), 3))
        return distinct[rng.integers(len(distinct), size=n)]
    if name == "lattice":
        # Integer points of a small cube: many on one sphere at once.
        return rng.integers(-1, 2, size=(n, 3)).astype(float)
    if name == "sphere":
        return np.array([_unit(rng) for _ in range(n)])
    raise ValueError(name)


BALL_FAMILIES = ("generic", "collinear", "coplanar", "nearly_planar",
                 "duplicate", "lattice", "sphere")


def _free_orbit_points(spec_text: str, seed: int) -> list:
    """``test_free_orbit_detection_round_trip``'s two shells."""
    group = group_from_spec(GroupSpec.parse(spec_text))
    rot = random_rotation(np.random.default_rng(seed))
    moved = group.transformed(rot)
    seed_a = generic_seed(moved)
    points = transitive_set(moved, seed=seed_a)
    points += transitive_set(moved, seed=1.7 * (moved.elements[0] @ (
        seed_a + 0.21 * rot @ np.array([0.3, -0.5, 0.4]))))
    return points


@pytest.mark.parametrize("family", BALL_FAMILIES)
def test_balls_of_every_family_and_size(family):
    rng = np.random.default_rng(sum(map(ord, family)))
    for n in range(1, 41):
        points = _family(family, n, rng)
        _assert_same_ball(points)
        _assert_same_ball(list(points), seed=n)


@pytest.mark.parametrize("exponent", range(-8, 9, 2))
def test_balls_at_every_scale_with_far_offsets(exponent):
    scale = 10.0 ** exponent
    rng = np.random.default_rng(exponent + 8)
    for family in BALL_FAMILIES:
        for n in (2, 3, 4, 5, 9, 17, 33):
            points = _family(family, n, rng)
            for offset in (0.0, 1e3, 1e6):
                shift = offset * scale * _unit(rng)
                _assert_same_ball(scale * points + shift)


@pytest.mark.parametrize("spec_text,seed", [("D3", 35050), ("D4", 1525),
                                            ("C3", 0), ("T", 7)])
def test_balls_of_nearly_planar_free_orbits(spec_text, seed):
    points = _free_orbit_points(spec_text, seed)
    _assert_same_ball(points)
    _assert_same_ball(Configuration(points).points)


@pytest.mark.parametrize("family", BALL_FAMILIES)
@pytest.mark.parametrize("n", (512, 700))
def test_large_balls_on_both_hull_paths(family, n):
    # Thin shells skip the hull (``sphere``); every other family is
    # pruned to its hull vertices, flat ones through the rank checks.
    rng = np.random.default_rng(n + len(family))
    _assert_same_ball(_family(family, n, rng))
    _assert_same_ball(1e-6 * _family(family, n, rng) + 5.0)


def test_degenerate_supports_and_the_empty_set():
    # Coplanar and repeated supports reach the collinear and coplanar
    # fallbacks of the circumball helpers; where the oracle raises, the
    # scan must raise the same error.
    for points in ([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]],
                   [[0, 0, 0]] * 4, [[0, 0, 0], [0, 0, 0], [1, 0, 0]]):
        for seed in range(6):
            _assert_same_ball(np.asarray(points, dtype=float), seed=seed)
    with pytest.raises(GeometryError):
        smallest_enclosing_ball([])


def test_balls_with_a_point_on_the_scan_limit():
    # The third point of each triple lies on the containment limit of
    # the first two's diametral ball, give or take a few ulps: only the
    # scan's exact distance bits and comparison decide whether it joins
    # the boundary.  Every visiting order is tried.
    tol = DEFAULT_TOL
    rng = np.random.default_rng(2024)
    for _ in range(40):
        scale = 10.0 ** int(rng.integers(-3, 4))
        shift = scale * rng.normal(size=3)
        a = shift - scale * _unit(rng)
        b = 2.0 * shift - a
        center = (a + b) / 2.0
        radius = float(np.linalg.norm(a - center))
        limit = radius + tol.abs_tol + tol.rel_tol * max(radius, 1.0)
        direction = _unit(rng)
        for ulps in range(-3, 4):
            reach = limit + ulps * float(np.spacing(limit))
            p = center + reach * direction
            for order in itertools.permutations((a, b, p)):
                _assert_same_ball(list(order))


_COORDINATES = st.one_of(
    st.integers(-2, 2).map(float),
    st.sampled_from([0.5, -0.5, 1e-9, -1e-9, 1.0 + 2.0 ** -52]),
    st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False))


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.tuples(_COORDINATES, _COORDINATES, _COORDINATES),
                     min_size=1, max_size=40),
       exponent=st.integers(-8, 8),
       offset=st.sampled_from([0.0, 1.0, 1e4, -1e7]),
       seed=st.integers(0, 3))
def test_balls_of_drawn_point_lists(rows, exponent, offset, seed):
    scale = 10.0 ** exponent
    _assert_same_ball(scale * (np.asarray(rows) + offset), seed=seed)


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(BALL_FAMILIES), n=st.integers(1, 40),
       draw=st.integers(0, 2 ** 32 - 1), exponent=st.integers(-8, 8))
@example(family="nearly_planar", n=12, draw=35050, exponent=0)
def test_balls_of_drawn_families(family, n, draw, exponent):
    rng = np.random.default_rng(draw)
    points = 10.0 ** exponent * (_family(family, n, rng)
                                 + 1e3 * _unit(rng))
    _assert_same_ball(points)
