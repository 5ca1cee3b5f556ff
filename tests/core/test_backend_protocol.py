"""The NumPy/SciPy building blocks of the hot kernels and their
``backend`` performance counters: the sized neighbour index
(:mod:`repro.geometry.neighbors`) and the Kabsch solve.

Oracles are ``scipy.spatial.cKDTree`` and the frozen Kabsch
expression; both must match byte for byte, which is what keeps the
frozen-oracle equivalence suites stable.
"""

import numpy as np
from scipy.spatial import cKDTree

from repro.geometry.neighbors import (
    DENSE_INDEX_CUTOVER,
    DenseNeighborIndex,
    neighbor_index,
)
from repro.geometry.rotations import kabsch
from repro.obs import metrics as _metrics


def _rng():
    return np.random.default_rng(2026)


def _points(rng, n):
    return rng.normal(size=(n, 3))


class TestCounters:
    def test_backend_counters_are_performance_not_logical(self):
        logical, performance = _metrics.split_performance(
            {"backend.neighbor_index.dense": 3, "scheduler.rounds": 2})
        assert "backend.neighbor_index.dense" in performance
        assert "backend.neighbor_index.dense" not in logical
        assert "scheduler.rounds" in logical


class TestEquivalence:
    def test_kabsch(self):
        rng = _rng()
        src = _points(rng, 12)
        rot = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        rot *= np.linalg.det(rot)  # force det +1
        dst = src @ rot.T
        solved = kabsch(src, dst)
        np.testing.assert_allclose(solved, rot, atol=1e-10)
        assert np.linalg.det(solved) > 0
        # Byte-stability against the frozen oracle expression.
        u, _, vt = np.linalg.svd(src.T @ dst)
        d = np.sign(np.linalg.det(vt.T @ u.T))
        oracle = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
        assert solved.tobytes() == oracle.tobytes()

    def test_neighbor_index(self):
        # Dense below the cutover, the k-d tree above it: both answer
        # every query exactly like scipy's cKDTree.
        rng = _rng()
        for n in (30, DENSE_INDEX_CUTOVER + 30):
            stored, queries = _points(rng, n), _points(rng, 9)
            index = neighbor_index(stored)
            tree = cKDTree(stored)
            dist, idx = index.query(queries, k=1,
                                    distance_upper_bound=1.5)
            odist, oidx = tree.query(queries, k=1,
                                     distance_upper_bound=1.5)
            assert np.array_equal(idx, oidx)
            assert dist.tobytes() == odist.tobytes()
            balls = index.query_ball_point(queries, 1.0)
            oballs = tree.query_ball_point(queries, 1.0)
            assert [sorted(b) for b in balls] == \
                [sorted(b) for b in oballs]
            pairs = {tuple(sorted(p)) for p in
                     index.query_pairs(0.8, output_type="ndarray")}
            assert pairs == {tuple(sorted(p))
                             for p in tree.query_pairs(0.8)}


class TestDenseNeighborIndex:
    """The small-n dense/k-d hybrid behind ``neighbor_index``."""

    def _counters(self):
        metrics = _metrics.backend_metrics()
        return (metrics.get("backend.neighbor_index.dense", 0),
                metrics.get("backend.neighbor_index.kd", 0),
                metrics.get("backend.neighbor_index.dense_promotions", 0))

    def test_cutover_routes_by_size(self):
        rng = _rng()
        dense0, kd0, _ = self._counters()
        small = neighbor_index(_points(rng, DENSE_INDEX_CUTOVER))
        assert isinstance(small, DenseNeighborIndex)
        large = neighbor_index(_points(rng, DENSE_INDEX_CUTOVER + 1))
        assert isinstance(large, cKDTree)
        dense1, kd1, _ = self._counters()
        assert (dense1 - dense0, kd1 - kd0) == (1, 1)

    def test_cutover_gauge_in_cache_stats(self):
        neighbor_index(_points(_rng(), 8))
        metrics = _metrics.backend_metrics()
        assert metrics["backend.neighbor_index.dense_cutover"] == \
            DENSE_INDEX_CUTOVER

    def test_heavy_query_promotes_to_spatial_index(self):
        rng = _rng()
        stored = _points(rng, 200)
        index = neighbor_index(stored)
        tree = cKDTree(stored)
        _, _, promoted0 = self._counters()
        # 200 queries x 200 points > the dense work limit: the index
        # must hand off to a k-d tree, once.
        queries = _points(rng, 200)
        dist, idx = index.query(queries)
        _, _, promoted1 = self._counters()
        assert promoted1 == promoted0 + 1
        odist, oidx = tree.query(queries)
        assert np.array_equal(idx, oidx)
        assert dist.tobytes() == odist.tobytes()
        # A second heavy query reuses the promoted structure: the
        # promotion is paid once per index, not per call.
        index.query(queries)
        _, _, promoted2 = self._counters()
        assert promoted2 == promoted1

    def test_dense_semantics_match_ckdtree(self):
        rng = _rng()
        stored = _points(rng, 12)
        index = neighbor_index(stored)
        tree = cKDTree(stored)
        # Misses report inf distance and index m, exactly like scipy.
        far = stored + 100.0
        dist, idx = index.query(far, k=1, distance_upper_bound=0.5)
        odist, oidx = tree.query(far, k=1, distance_upper_bound=0.5)
        assert np.array_equal(idx, oidx)
        assert np.all(np.isinf(dist)) and np.all(idx == len(stored))
        # Exact ties resolve to the lowest stored index.
        twin = np.vstack([stored[3], stored])
        tie = neighbor_index(twin)
        _, tie_idx = tie.query(stored[3])
        assert tie_idx == 0
        # Single-point query_ball_point returns a flat list, like
        # scipy's 1-d input path.
        ball = index.query_ball_point(stored[0], 1.0)
        assert ball == sorted(tree.query_ball_point(stored[0], 1.0))
