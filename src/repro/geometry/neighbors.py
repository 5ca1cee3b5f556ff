"""Nearest-neighbour index over a fixed ``(m, 3)`` point set.

:func:`neighbor_index` is the one constructor the detection,
decomposition and matching kernels use.  It returns a plain
``scipy.spatial.cKDTree`` at every size; the kernels call its
``query`` (``k=1``), ``query_ball_point`` and
``query_pairs(r, output_type="ndarray")``.  Every construction is
counted on the ``backend.neighbor_index.kd`` performance counter (the
``backend`` section of ``--cache-stats``).
"""

from __future__ import annotations

from typing import Any

import numpy as np
from scipy.spatial import cKDTree

from repro.obs import metrics as _metrics

__all__ = ["neighbor_index"]


def neighbor_index(points: Any) -> cKDTree:
    """A k-d tree over ``points``, counted on ``backend.neighbor_index.kd``."""
    _metrics.inc("backend.neighbor_index.kd")
    return cKDTree(np.asarray(points, dtype=float))
