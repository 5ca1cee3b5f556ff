"""The NumPy/SciPy building blocks of the hot kernels and their
``backend`` performance counters: the neighbour index
(:mod:`repro.geometry.neighbors`) and the Kabsch solve.

The Kabsch oracle is the frozen expression; it must match byte for
byte, which is what keeps the frozen-oracle equivalence suites stable.
"""

import numpy as np
from scipy.spatial import cKDTree

from repro.geometry.neighbors import neighbor_index
from repro.geometry.rotations import kabsch
from repro.obs import metrics as _metrics


def _rng():
    return np.random.default_rng(2026)


def _points(rng, n):
    return rng.normal(size=(n, 3))


class TestCounters:
    def test_backend_counters_are_performance_not_logical(self):
        logical, performance = _metrics.split_performance(
            {"backend.neighbor_index.kd": 3, "scheduler.rounds": 2})
        assert "backend.neighbor_index.kd" in performance
        assert "backend.neighbor_index.kd" not in logical
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
        # A plain k-d tree at every size, each one counted.
        rng = _rng()
        for n in (3, 30, 300):
            before = _metrics.backend_metrics().get(
                "backend.neighbor_index.kd", 0)
            index = neighbor_index(_points(rng, n))
            assert type(index) is cKDTree
            assert index.n == n
            assert _metrics.backend_metrics()[
                "backend.neighbor_index.kd"] == before + 1
