"""Nearest-neighbour indexes over a fixed ``(m, 3)`` point set, sized.

:func:`neighbor_index` is the one constructor the detection,
decomposition and matching kernels use.  At or below
:data:`DENSE_INDEX_CUTOVER` stored points it returns the brute-force
:class:`DenseNeighborIndex`; above it a plain
``scipy.spatial.cKDTree``.  Both answer with ``cKDTree``'s method names
and semantics — ``query`` (``k=1``), ``query_ball_point`` and
``query_pairs(r, output_type="ndarray")`` — so call sites never know
which one they hold.  The split is counted on the
``backend.neighbor_index.dense`` / ``.kd`` / ``.dense_promotions``
performance counters (the ``backend`` section of ``--cache-stats``).
"""

from __future__ import annotations

import os
from typing import Any

import numpy as np
from scipy.spatial import cKDTree

from repro.obs import metrics as _metrics

__all__ = ["DENSE_INDEX_CUTOVER", "DenseNeighborIndex", "neighbor_index"]

#: Stored-point count at or below which :func:`neighbor_index` serves
#: queries from the brute-force :class:`DenseNeighborIndex` instead of
#: a k-d tree.  Building a k-d tree costs more than the whole O(m²)
#: dense sweep for small supports, and the small-``n`` detection/
#: matching workloads build a fresh index per verifier — the crossover
#: sits near a few hundred points (measured on
#: ``test_detection_scaling``).  Override with
#: ``REPRO_DENSE_INDEX_CUTOVER`` (0 disables the dense path).
DENSE_INDEX_CUTOVER = int(os.environ.get("REPRO_DENSE_INDEX_CUTOVER", "256"))

#: Distance-matrix entries (queries × stored points) a single dense
#: query may compute before the :class:`DenseNeighborIndex` promotes
#: itself to a k-d tree.  Brute force wins only while the whole
#: workload is smaller than a tree *build*; past this much work per
#: call the tree's pruned traversal wins by widening margins
#: (measured: a 256-point regular polygon's verifier queries run 20×
#: faster on the k-d tree).
_DENSE_QUERY_WORK = 4_096


class DenseNeighborIndex:
    """Brute-force NumPy index with lazy k-d tree promotion.

    Semantics mirror ``cKDTree`` exactly: squared-distance comparisons
    (as ``cKDTree`` performs internally), closed balls, misses as
    ``inf``/``m``, ``k=1`` ties to the lowest stored index.
    Construction is free (the points are stored as-is), which is the
    whole point — the small-``n`` detection and matching paths build a
    fresh index per call, where the tree build dominates the handful
    of tiny queries that follow.  The first query whose dense cost
    exceeds :data:`_DENSE_QUERY_WORK` builds the k-d tree once and
    delegates everything after, so a dense index can never lose more
    than one bounded brute-force pass.
    """

    def __init__(self, points: Any) -> None:
        self._points = np.asarray(points, dtype=float).reshape(-1, 3)
        self._tree: cKDTree | None = None

    def _promote(self) -> cKDTree:
        if self._tree is None:
            self._tree = cKDTree(self._points)
            _metrics.inc("backend.neighbor_index.dense_promotions")
        return self._tree

    def _sq_distances(self, queries: np.ndarray) -> np.ndarray:
        diff = queries[:, None, :] - self._points[None, :, :]
        return np.einsum("qmi,qmi->qm", diff, diff)

    def query(self, points: Any, k: int = 1,
              distance_upper_bound: float = np.inf) -> Any:
        """Distances and indices of the nearest stored points.

        Misses (beyond the bound) report ``inf`` distance and an index
        equal to the stored point count; ``k > 1`` goes to the tree.
        """
        queries = np.asarray(points, dtype=float)
        single = queries.ndim == 1
        queries = queries.reshape(-1, 3)
        m = len(self._points)
        if k != 1 or len(queries) * m > _DENSE_QUERY_WORK:
            return self._promote().query(
                points, k=k, distance_upper_bound=distance_upper_bound)
        d2 = self._sq_distances(queries)
        idx = np.argmin(d2, axis=1)
        dist = np.sqrt(d2[np.arange(len(idx)), idx])
        miss = ~(dist <= distance_upper_bound)
        dist[miss] = np.inf
        idx = np.where(miss, m, idx).astype(np.intp)
        if single:
            return float(dist[0]), int(idx[0])
        return dist, idx

    def query_ball_point(self, points: Any, r: float) -> Any:
        """Indices of stored points within ``r`` of each query."""
        queries = np.asarray(points, dtype=float)
        single = queries.ndim == 1
        queries = queries.reshape(-1, 3)
        if len(queries) * len(self._points) > _DENSE_QUERY_WORK:
            return self._promote().query_ball_point(
                np.asarray(points, dtype=float), r)
        within = self._sq_distances(queries) <= r * r
        hits = [np.nonzero(row)[0].tolist() for row in within]
        return hits[0] if single else hits

    def query_pairs(self, r: float, output_type: str) -> np.ndarray:
        """``(k, 2)`` array of stored-point pairs within ``r``.

        Only ``output_type="ndarray"`` is served: the one form the
        kernels ask a ``cKDTree`` for.
        """
        if output_type != "ndarray":
            raise ValueError("DenseNeighborIndex.query_pairs serves "
                             "output_type='ndarray' only")
        m = len(self._points)
        if m * m > _DENSE_QUERY_WORK:
            return self._promote().query_pairs(r, output_type="ndarray")
        d2 = self._sq_distances(self._points)
        close = np.triu(d2 <= r * r, 1)
        ii, jj = np.nonzero(close)
        return np.column_stack([ii, jj]).astype(np.intp)


def neighbor_index(points: Any) -> "DenseNeighborIndex | cKDTree":
    """A neighbour index over ``points``, sized to fit.

    At or below :data:`DENSE_INDEX_CUTOVER` stored points the
    brute-force :class:`DenseNeighborIndex` answers every query faster
    than a k-d tree can be *built* (the small-``n`` detection and
    matching paths construct a fresh index per round, so build cost
    dominates); above it a ``cKDTree`` takes over.
    """
    pts = np.asarray(points, dtype=float)
    if len(pts) <= DENSE_INDEX_CUTOVER:
        _metrics.inc("backend.neighbor_index.dense")
        return DenseNeighborIndex(pts)
    _metrics.inc("backend.neighbor_index.kd")
    return cKDTree(pts)
