"""repro — pattern formation for synchronous mobile robots in 3D.

A full reproduction of *"Pattern Formation Problem for Synchronous
Mobile Robots in the Three Dimensional Euclidean Space"* (Yamauchi,
Uehara, Yamashita; PODC 2016 brief announcement / full version):

* rotation groups ``C_k, D_l, T, O, I`` and symmetry detection
  (``γ(P)``) — :mod:`repro.groups`;
* symmetricity ``ϱ(P)`` and the formability characterization
  ``ϱ(P) ⊆ ϱ(F)`` (Theorem 1.1) — :mod:`repro.core`;
* the oblivious FSYNC algorithms ``go-to-center``, ``ψ_SYM`` and
  ``ψ_PF`` with a full Look–Compute–Move simulator and worst-case
  adversary — :mod:`repro.robots`;
* pattern generators, the 2D Suzuki–Yamashita baseline, plane
  formation (DISC 2015), and the experiment harness —
  :mod:`repro.patterns`, :mod:`repro.twod`,
  :mod:`repro.planeformation`, :mod:`repro.analysis`.

Quickstart::

    import numpy as np
    from repro import form_pattern, is_formable, Configuration
    from repro.patterns import named_pattern

    cube = named_pattern("cube")
    octagon = named_pattern("octagon")
    assert is_formable(Configuration(cube), Configuration(octagon))
    result = form_pattern(cube, octagon, seed=1)
    assert result.reached
"""

from __future__ import annotations

import numpy as np

from repro.core import (
    Configuration,
    formability_report,
    is_formable,
    symmetricity,
    symmetricity_of_multiset,
)
from repro.errors import ReproError, UnsolvableError
from repro.groups import GroupSpec, detect_rotation_group
from repro.robots import (
    ExecutionResult,
    FsyncScheduler,
    LocalFrame,
    random_frames,
    symmetric_frames,
)
from repro.robots.algorithms import (
    make_pattern_formation_algorithm,
    psi_sym,
)

__version__ = "1.0.0"

__all__ = [
    "Configuration",
    "GroupSpec",
    "ExecutionResult",
    "FsyncScheduler",
    "LocalFrame",
    "ReproError",
    "UnsolvableError",
    "detect_rotation_group",
    "formability_report",
    "form_pattern",
    "is_formable",
    "make_pattern_formation_algorithm",
    "psi_sym",
    "random_frames",
    "symmetric_frames",
    "symmetricity",
    "symmetricity_of_multiset",
    "__version__",
]


def form_pattern(initial_points, target_points, seed: int = 0,
                 frames: list[LocalFrame] | None = None,
                 max_rounds: int = 30,
                 check: bool = True) -> ExecutionResult:
    """Run the full ``ψ_PF`` pipeline from ``P`` to ``F``.

    Convenience wrapper: validates solvability (Theorem 1.1), draws
    random local coordinate systems (or uses ``frames``), runs the
    FSYNC simulation until the configuration is similar to ``F``.

    Raises
    ------
    UnsolvableError
        If ``check`` is on and ``ϱ(P) ⊄ ϱ(F)``.
    """
    initial = Configuration(initial_points)
    target = Configuration(target_points)
    if check:
        report = formability_report(initial, target)
        if not report.formable:
            raise UnsolvableError(report.explain())
    if frames is None:
        frames = random_frames(initial.n, np.random.default_rng(seed))
    algorithm = make_pattern_formation_algorithm(target.points)
    scheduler = FsyncScheduler(algorithm, frames, target=target.points)
    return scheduler.run(
        initial,
        stop_condition=lambda c: c.is_similar_to(target),
        max_rounds=max_rounds)
