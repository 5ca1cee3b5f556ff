"""Randomized equivalence: batched round engine vs the round oracle.

Over 200 seeded configurations are replayed through both the
production round pipeline (einsum Look phase, vectorized local views,
KD-tree matching kernels, indexed round cache ON and OFF) and the
frozen pre-batching implementation in ``round_oracle``.  Local views
must agree *exactly* (they are rounded tuples); Look-phase and
matching destinations must agree to float noise.

Swarm-scale cases (a 128-gon and a 64-prism, where nearly every robot
is a meridian candidate, and a 100-robot T swarm with free orbits of
one radius) pin the local-view kernel at the swarm workload's sizes,
on a fixed sample of robots.

Orbit ordering computes one view per orbit, its first robot's.  That
rests on Theorem 3.1: the members of a ``γ(P)``-orbit have equal
views.  The premise is checked on every zoo configuration against the
oracle's views, and on the swarm-scale cases against the kernel's.

The matching zoo deliberately includes the two delicate regimes named
by the paper: multiset targets with ``k·j`` points on a ``k``-fold
axis (Definition 6), and half-step rotated target orbits whose
nearest-target ties exercise the Lemma 14 chirality rule.
"""

import numpy as np
import pytest

from round_oracle import (
    oracle_local_view,
    oracle_match,
    oracle_ordered_orbits,
    oracle_step,
)

from repro import perf
import repro.core.local_views as local_views
from repro.core.configuration import Configuration
from repro.core.decomposition import orbit_decomposition
from repro.core.local_views import local_view, ordered_orbits
from repro.errors import ReproError
from repro.geometry.rotations import rotation_about_axis
from repro.groups import catalog
from repro.patterns import polyhedra
from repro.patterns.library import named_pattern, pattern_names
from repro.robots.adversary import random_frames
from repro.robots.algorithms.embedding import embed_target
from repro.robots.algorithms.go_to_center import go_to_center_algorithm
from repro.robots.algorithms.matching import match_configuration_to_pattern
from repro.robots.algorithms.pattern_formation import (
    make_pattern_formation_algorithm,
)
from repro.robots.scheduler import FsyncScheduler, set_batched_compute


@pytest.fixture(autouse=True)
def fresh_caches():
    perf.clear_caches()
    perf.set_enabled(True)
    yield
    perf.set_enabled(True)
    perf.clear_caches()


def _random_rotation(rng) -> np.ndarray:
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def _posed(points, rng):
    rot = _random_rotation(rng)
    scale = float(rng.uniform(0.5, 3.0))
    shift = rng.normal(size=3)
    return [rot @ (scale * np.asarray(p, dtype=float)) + shift
            for p in points], rot, scale, shift


def _view_zoo(seed: int):
    """Configuration families exercising every local-view branch."""
    rng = np.random.default_rng(seed)
    family = seed % 6
    if family == 0:  # generic cloud
        n = int(rng.integers(4, 25))
        return [rng.normal(size=3) for _ in range(n)]
    if family == 1:  # polyhedron in a random pose (orbit radius ties)
        name = pattern_names()[seed % len(pattern_names())]
        return _posed(named_pattern(name), rng)[0]
    if family == 2:  # prism / antiprism / pyramid
        k = int(rng.integers(3, 9))
        builder = (polyhedra.prism, polyhedra.antiprism,
                   polyhedra.pyramid)[seed % 3]
        return _posed(builder(k), rng)[0]
    if family == 3:  # center-occupied (the sentinel view)
        n = int(rng.integers(4, 12))
        pts = [rng.normal(size=3) for _ in range(n)]
        center = Configuration(pts).center
        return pts + [center]
    if family == 4:  # near-axis points (meridian degeneracies)
        k = int(rng.integers(3, 7))
        pts = list(polyhedra.pyramid(k))
        pts.append(np.array([0.0, 0.0, float(rng.uniform(0.2, 0.8))]))
        return _posed(pts, rng)[0]
    # family == 5: two concentric shells (inner-ball gap clustering)
    k = int(rng.integers(3, 7))
    inner = [0.5 * p for p in polyhedra.regular_polygon_pattern(k)]
    outer = list(polyhedra.antiprism(k))
    return _posed(inner + outer, rng)[0]


def _assert_orbits_share_views(config, group, views):
    """Every member of every ``group``-orbit has its first member's
    view (Theorem 3.1), the premise of one view per orbit."""
    for orbit in orbit_decomposition(config, group):
        for j in orbit[1:]:
            assert views[j] == views[orbit[0]], (orbit[0], j)


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("seed", range(72))
def test_local_views_and_orbit_order_match_oracle(seed, enabled):
    perf.set_enabled(enabled)
    points = _view_zoo(seed)
    config = Configuration(points)
    views = [oracle_local_view(config, i) for i in range(config.n)]
    for i in range(config.n):
        assert local_view(config, i) == views[i]
    report = config.symmetry
    if report.kind == "finite":
        _assert_orbits_share_views(config, report.group, views)
        try:
            expected = oracle_ordered_orbits(config, report.group)
        except ReproError:
            expected = None
        if expected is not None:
            assert ordered_orbits(config, report.group) == expected


def _t_swarm(rng):
    """A tetrahedron inside eight free T-orbits, the first four of one
    radius: ``ordered_orbits`` can separate those four only by views."""
    group = catalog.tetrahedral_group()
    points = [np.asarray(p, dtype=float) for p in named_pattern("tetrahedron")]
    for radius in (2.0, 2.0, 2.0, 2.0, 2.4, 2.8, 3.2, 3.6):
        direction = rng.normal(size=3)
        points.extend(group.orbit(radius * direction / np.linalg.norm(direction)))
    return points


def _swarm_scale_case(name: str):
    """(points, sampled indices) at the swarm workload's sizes.

    On the regular 128-gon and the 64-prism every robot but the viewer
    is a meridian candidate.  The frozen oracle spends about half a
    second on one such view, so only a fixed sample is compared (all
    views of those two shapes are equal).
    """
    rng = np.random.default_rng(128)
    if name == "ngon128":
        return _posed(polyhedra.regular_polygon_pattern(128), rng)[0], (77,)
    if name == "prism64":
        return _posed(polyhedra.prism(64), rng)[0], (100,)
    return _posed(_t_swarm(rng), rng)[0], (0, 4, 50, 99)


@pytest.mark.parametrize("name", ["ngon128", "prism64", "t_swarm"])
def test_swarm_scale_views_and_orbit_order_match_oracle(name):
    points, sample = _swarm_scale_case(name)
    config = Configuration(points)
    report = config.symmetry
    assert report.kind == "finite"
    if name == "t_swarm":
        assert (config.n, str(report.spec)) == (100, "T")
    expected = oracle_ordered_orbits(config, report.group)
    assert ordered_orbits(config, report.group) == expected
    for i in sample:
        assert local_view(config, i) == oracle_local_view(config, i)
    views = [local_view(config, i) for i in range(config.n)]
    _assert_orbits_share_views(config, report.group, views)


def _i_swarm(rng):
    """An icosahedron inside two free I-orbits of one radius (n = 132)."""
    group = catalog.icosahedral_group()
    points = [np.asarray(p, dtype=float) for p in named_pattern("icosahedron")]
    for _ in range(2):
        direction = rng.normal(size=3)
        points.extend(group.orbit(2.0 * direction / np.linalg.norm(direction)))
    return points


def _min_over_members_order(config, group):
    """The frozen oracle's rule on the kernel's views: radius ties broken
    by the smallest view over all of an orbit's members."""
    scale = config.radius
    orbits = orbit_decomposition(config, group)
    return sorted(orbits, key=lambda orbit: (
        round(float(np.linalg.norm(config.points[orbit[0]] - config.center))
              / scale, 6),
        min(local_view(config, j) for j in orbit)))


def test_tied_free_orbits_of_an_i_swarm_order_as_min_over_members():
    """Two free I-orbits of one radius, which only views can order.  The
    oracle spends seconds on this input, so the kernel's views stand in
    for it; they are pinned to the oracle on the cases above."""
    points = _posed(_i_swarm(np.random.default_rng(132)),
                    np.random.default_rng(7))[0]
    config = Configuration(points)
    report = config.symmetry
    assert (config.n, str(report.spec)) == (132, "I")
    orbits = ordered_orbits(config, report.group)
    assert [len(orbit) for orbit in orbits] == [12, 60, 60]
    assert orbits == _min_over_members_order(config, report.group)
    views = [local_view(config, i) for i in range(config.n)]
    _assert_orbits_share_views(config, report.group, views)


@pytest.fixture
def view_count(monkeypatch):
    """The number of local views computed (memo misses) so far."""
    count = [0]
    compute = local_views._compute_local_view

    def counted(memo, index):
        count[0] += 1
        return compute(memo, index)

    monkeypatch.setattr(local_views, "_compute_local_view", counted)
    return count


def test_ordering_computes_one_view_per_tied_orbit(view_count):
    """Four free T-orbits of one radius cost four views, not 48."""
    points = _posed(_t_swarm(np.random.default_rng(128)),
                    np.random.default_rng(5))[0]
    config = Configuration(points)
    ordered_orbits(config, config.rotation_group)
    assert view_count[0] == 4


def test_target_ordering_computes_one_view_per_target_orbit(view_count):
    """A generic swarm's targets in a regular 128-gon: 128 entries of
    one radius, one ``γ(F̃)``-orbit, one view."""
    rng = np.random.default_rng(128)
    config = Configuration(list(rng.normal(size=(128, 3))))
    embedded = embed_target(config, polyhedra.regular_polygon_pattern(128))
    ordered_orbits(config, config.rotation_group)
    before = view_count[0]
    match_configuration_to_pattern(config, embedded)
    assert view_count[0] - before == 1


@pytest.mark.parametrize("points", [
    [np.array([0.3, -1.2, 0.5]), np.array([1.1, 0.4, -0.7])],
    [np.array([0.2, 0.1, -0.3]) + t * np.array([1.0, -2.0, 0.5])
     for t in (-1.5, -0.4, 0.0, 0.9, 1.5)],
], ids=["two_robots", "collinear"])
def test_views_without_a_meridian_candidate_match_oracle(points):
    """Every other robot lies on the viewer's axis: the view holds the
    viewer's radius and the sorted heights, with no meridian entry (a
    robot at ``b(P)`` gets the one-entry sentinel)."""
    config = Configuration(points)
    for i in range(config.n):
        view = local_view(config, i)
        assert view == oracle_local_view(config, i)
        assert len(view[0]) == 1


def _step_zoo(seed: int):
    """(algorithm, frames, points, target) for one Look-phase replay."""
    rng = np.random.default_rng(seed)
    if seed % 2 == 0:
        n = int(rng.integers(4, 13))
        points = [rng.normal(size=3) for _ in range(n)]
        target = polyhedra.regular_polygon_pattern(n)
        algorithm = make_pattern_formation_algorithm(target)
    else:
        name = ("cube", "octahedron", "icosahedron")[seed % 3]
        points = list(named_pattern(name))
        target = None
        algorithm = go_to_center_algorithm
    frames = random_frames(len(points), rng)
    return algorithm, frames, points, target


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("seed", range(40))
def test_batched_step_matches_serial_oracle(seed, enabled):
    """The einsum Look phase must reproduce the per-robot observe loop
    (same algorithm on both sides — the Compute phase is shared)."""
    perf.set_enabled(enabled)
    algorithm, frames, points, target = _step_zoo(seed)
    scheduler = FsyncScheduler(algorithm, frames, target=target)
    batched = scheduler.step(Configuration(points))
    perf.clear_caches()
    serial = oracle_step(algorithm, frames, points, target=target)
    scale = max(Configuration(points).radius, 1.0)
    for a, b in zip(batched, serial):
        assert float(np.linalg.norm(a - b)) <= 1e-7 * scale


def _cyclic_instance(seed: int):
    """A C_k-symmetric swarm and a compatible embedded target F̃.

    ``P`` is a union of free C_k orbits of generic points; ``F̃``
    rotates and re-scales each orbit about the axis.  Variants by
    seed: half-step rotations (equidistant nearest-target ties →
    Lemma 14 chirality rule) and a Definition 6 multiset orbit whose
    ``k`` targets collapse onto the k-fold axis.
    """
    rng = np.random.default_rng(10_000 + seed)
    k = int(rng.integers(3, 7))
    orbit_count = int(rng.integers(2, 4))
    tie_break = seed % 3 == 1
    multiset_axis = seed % 3 == 2

    axis = np.array([0.0, 0.0, 1.0])
    points: list[np.ndarray] = []
    targets: list[np.ndarray] = []
    for o in range(orbit_count):
        radius = float(rng.uniform(0.6, 2.0)) + o
        height = float(rng.uniform(-0.8, 0.8))
        phase = float(rng.uniform(0, 2 * np.pi))
        base = np.array([radius * np.cos(phase),
                         radius * np.sin(phase), height])
        orbit = [rotation_about_axis(axis, 2 * np.pi * j / k) @ base
                 for j in range(k)]
        points.extend(orbit)
        if multiset_axis and o == orbit_count - 1:
            # k robots head to one point ON the k-fold axis: the
            # stabilizer has size k, multiplicity k·1 (Definition 6).
            targets.extend([np.array([0.0, 0.0, height + 0.3])] * k)
        else:
            angle = np.pi / k if tie_break else float(rng.uniform(0, 2))
            twist = rotation_about_axis(axis, angle)
            factor = 1.0 if tie_break else float(rng.uniform(0.7, 1.3))
            targets.extend(_scale_about(twist @ p, axis, factor)
                           for p in orbit)
    pose_rot = _random_rotation(rng)
    pose_shift = rng.normal(size=3)
    points = [pose_rot @ p + pose_shift for p in points]
    targets = [pose_rot @ f + pose_shift for f in targets]
    return points, targets


def _scale_about(p, axis, factor):
    height = float(p @ axis)
    return factor * (p - height * axis) + height * axis


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("seed", range(80))
def test_matching_kernels_match_oracle(seed, enabled):
    perf.set_enabled(enabled)
    points, targets = _cyclic_instance(seed)
    config = Configuration(points)
    oracle_config = Configuration(points)
    try:
        expected = oracle_match(oracle_config, targets)
        expected_error = None
    except ReproError as exc:
        expected, expected_error = None, type(exc)
    if expected_error is not None:
        with pytest.raises(expected_error):
            match_configuration_to_pattern(config, targets)
        return
    actual = match_configuration_to_pattern(config, targets)
    scale = max(config.radius, 1.0)
    for a, b in zip(actual, expected):
        assert float(np.linalg.norm(a - b)) <= 1e-7 * scale


@pytest.mark.parametrize("shape", ["ngon", "prism"])
@pytest.mark.parametrize("n", [8, 14, 20, 32])
def test_generic_swarm_matching_into_a_larger_group_matches_oracle(n, shape):
    """A generic swarm (``G = C_1``) embedded into a regular n-gon or a
    prism, whose ``γ(F̃)`` is dihedral: F̃'s entries of one radius are
    then ordered with one view per ``γ(F̃)``-orbit, and the oracle takes
    the smallest view over all of them."""
    rng = np.random.default_rng(n)
    points = list(rng.normal(size=(n, 3)))
    target = (polyhedra.regular_polygon_pattern(n) if shape == "ngon"
              else polyhedra.prism(n // 2))
    config = Configuration(points)
    assert str(config.symmetry.spec) == "C1"
    embedded = embed_target(config, target)
    actual = match_configuration_to_pattern(config, embedded)
    expected = oracle_match(Configuration(points), embedded)
    scale = max(config.radius, 1.0)
    for a, b in zip(actual, expected):
        assert float(np.linalg.norm(a - b)) <= 1e-7 * scale


@pytest.mark.parametrize("seed", range(12))
def test_psi_pf_destinations_cache_on_equals_cache_off(seed):
    """The round cache's conjugated destinations must agree with the
    direct per-robot computation for every robot of a round.

    This property is about the per-robot reference path (the batched
    strategy queries the cache once, in the world frame), so the
    reference engine is forced with ``set_batched_compute(False)``.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 13))
    points = [rng.normal(size=3) for _ in range(n)]
    target = polyhedra.regular_polygon_pattern(n)
    frames = random_frames(n, rng)
    algorithm = make_pattern_formation_algorithm(target)
    scheduler = FsyncScheduler(algorithm, frames, target=target)

    set_batched_compute(False)
    try:
        perf.set_enabled(True)
        perf.clear_caches()
        cached = scheduler.step(Configuration(points))
        assert perf.cache_stats()["round"]["hits"] > 0
        perf.set_enabled(False)
        direct = scheduler.step(Configuration(points))
    finally:
        set_batched_compute(True)
    scale = max(Configuration(points).radius, 1.0)
    for a, b in zip(cached, direct):
        assert float(np.linalg.norm(a - b)) <= 1e-6 * scale
