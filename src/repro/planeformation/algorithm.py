"""Plane formation built on the pattern-formation substrate.

Characterization ([21], DISC 2015): FSYNC robots cannot form a plane
from ``P`` iff ``γ(P)`` is a 3D rotation group (``T``, ``O``, ``I``)
and no robot is on its rotation axes — equivalently, iff the
symmetricity ``ϱ(P)`` contains a 3D group.  Since ``T`` is the minimal
3D group, the test is simply ``T ∉ ϱ(P)``.

Algorithm: run ``ψ_SYM`` until terminal — the surviving group
``G = γ(P') ∈ ϱ(P)`` is then cyclic or dihedral (or trivial).  The
robots agree on the plane through ``b(P')`` perpendicular to the
principal axis and on a *planar landing pattern*: one ring per orbit
of the ``G``-decomposition, each ring a free ``G``-orbit in the plane
(radius fixed by the orbit's agreed rank, azimuth chosen off the
secondary axes so the orbit stays free).  The rings depend on an
in-plane reference direction and on the sign of the principal axis,
and a detected group fixes both only as the detecting frame saw them;
so the rings are built for every such choice and one is picked by
the embedding's rotation-invariant joint signature.  The landing
pattern is thus an equivariant function of ``P'`` alone, and robots
reach it with the standard matching ``M(P, F̃)`` machinery — distinct
robots land on distinct points by construction.

Because every robot's landing point is a function of ``P'``, the
batched path computes the landing and its matching once per round in
the world frame; non-terminal rounds run ``ψ_SYM``'s batched path.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.configuration import Configuration
from repro.core.decomposition import oriented_axis_direction
from repro.core.local_views import ordered_orbits
from repro.core.symmetricity import symmetricity
from repro.errors import SimulationError, UnsolvableError
from repro.geometry.tolerance import DEFAULT_TOL
from repro.geometry.vectors import orthonormal_basis_for
from repro.groups.group import GroupKind
from repro.robots.algorithms.matching import match_configuration_to_pattern
from repro.robots.algorithms.sym import (
    _dihedral_axes,
    is_sym_terminal,
    psi_sym,
)
from repro.robots.model import Observation

__all__ = ["is_plane_formable", "make_plane_formation_algorithm",
           "is_coplanar"]


def is_plane_formable(config: Configuration) -> bool:
    """True iff the plane formation problem is solvable from ``P``."""
    rho = symmetricity(config)
    return all(spec.is_2d for spec in rho.specs)


def is_coplanar(points, slack_scale: float | None = None) -> bool:
    """True if all points lie on one plane (within tolerance)."""
    if slack_scale is None:
        slack_scale = DEFAULT_TOL.geometric_slack(1.0)
    arr = np.asarray([np.asarray(p, dtype=float) for p in points])
    centered = arr - arr.mean(axis=0)
    if len(arr) <= 3:
        return True
    _, singular, _ = np.linalg.svd(centered, full_matrices=False)
    scale = max(float(singular[0]), 1e-300)
    return float(singular[-1]) <= slack_scale * scale


class _PlaneFormation:
    """Plane formation as a callable: per-robot reference + batched
    strategy.

    The batched path (``compute_batch``) makes the coplanarity and
    ``ψ_SYM``-terminal checks once on the world configuration; both
    are similarity invariants.  A non-terminal round forwards to
    ``ψ_SYM``'s own batched path.  A terminal round computes the
    landing pattern and its matching once and maps the matched world
    destinations into every robot's frame with one einsum — sound
    because both are functions of ``P`` alone, so each row is the one
    the robot's own observation yields.
    """

    def __call__(self, observation: Observation) -> np.ndarray:
        config = Configuration(observation.points)
        if is_coplanar(config.points):
            return observation.own_position()
        if not is_sym_terminal(config):
            return psi_sym(observation)
        return _landing_destinations(config)[observation.self_index]

    def compute_batch(self, batch) -> np.ndarray:
        config = batch.config
        if is_coplanar(config.points):
            return batch.own_rows()
        if not is_sym_terminal(config):
            return psi_sym.compute_batch(batch)
        return batch.to_local(_landing_destinations(config))


def make_plane_formation_algorithm() -> Callable[[Observation], np.ndarray]:
    """Build the oblivious plane-formation algorithm.

    The returned algorithm implements
    :class:`repro.robots.model.BatchedAlgorithm`, so the scheduler
    computes whole rounds in one call.
    """
    return _PlaneFormation()


def _landing_destinations(config: Configuration) -> list[np.ndarray]:
    """Every robot's landing point in a ``ψ_SYM``-terminal ``P``."""
    group = config.rotation_group
    if group is not None and group.spec.is_3d:
        raise UnsolvableError(
            "plane formation unsolvable: a 3D rotation group "
            "survived symmetry breaking (T in varrho(P))")
    landing = _planar_landing_pattern(config)
    return match_configuration_to_pattern(config, landing)


def _agreed_frames(config: Configuration
                   ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Every in-plane basis ``(u, v)`` the robots could agree on.

    The plane is normal to the principal axis ``w`` when the surviving
    group is nontrivial; ``u`` is an in-plane reference direction (a
    secondary axis for dihedral groups, the first off-axis orbit's
    azimuth for cyclic ones) and ``v = w × u``.  A group's axis
    directions carry no sign and its secondary axes no order, so one
    basis per choice is returned: ``±s`` for every secondary axis
    ``s`` of a dihedral group (the sign of ``w`` is absorbed there by
    the half-turns about ``s``), and ``±w`` for a cyclic group whose
    axis ``P`` does not orient.  For ``C_1`` the canonical frame of
    the configuration gives the only basis.
    """
    group = config.rotation_group
    if group is None:
        raise SimulationError("agreed frame needs a finite rotation group")
    if group.is_trivial:
        from repro.robots.algorithms.embedding import _canonical_frame

        frame = _canonical_frame(config)
        return [(frame[:, 0], frame[:, 1])]
    if group.spec.kind is GroupKind.DIHEDRAL:
        w, secondary = _dihedral_axes(config, group)
        frames = []
        for axis in secondary:
            s = axis / np.linalg.norm(axis)
            frames += [(u, np.cross(w, u)) for u in (s, -s)]
        return frames
    w = group.principal_axis.direction
    oriented = oriented_axis_direction(config, w, group)
    u = _first_offaxis_azimuth(config, w)
    return [(u, np.cross(d, u))
            for d in ([w, -w] if oriented is None else [oriented])]


def _first_offaxis_azimuth(config: Configuration,
                           w: np.ndarray) -> np.ndarray:
    group = config.rotation_group
    center = config.center
    slack = DEFAULT_TOL.geometric_slack(config.radius)
    for orbit in ordered_orbits(config, group):
        rel = config.points[orbit[0]] - center
        perp = rel - float(np.dot(rel, w)) * w
        if float(np.linalg.norm(perp)) > slack:
            return perp / np.linalg.norm(perp)
    # All robots on the axis: collinear, handled before we get here.
    u, _, _ = orthonormal_basis_for(w)
    return u


def _planar_landing_pattern(config: Configuration) -> list[np.ndarray]:
    """One free in-plane ``G``-orbit (ring) per orbit of ``P``.

    The rings are built in every agreed frame, and the candidates are
    ranked by the embedding's rotation-invariant joint signature, so
    the pattern is a function of ``P`` and not of the frame that
    happened to detect ``γ(P)``.
    """
    from repro.robots.algorithms.embedding import _pick_canonical

    candidates = [_rings(config, u, v) for u, v in _agreed_frames(config)]
    return _pick_canonical(config, candidates)


def _rings(config: Configuration, u: np.ndarray,
           v: np.ndarray) -> list[np.ndarray]:
    """The landing rings in the in-plane frame ``(u, v)``."""
    group = config.rotation_group
    center = config.center
    radius = config.radius
    orbits = ordered_orbits(config, group)
    rings: list[np.ndarray] = []
    count = len(orbits)
    if group.spec.kind is GroupKind.DIHEDRAL:
        sector = np.pi / group.spec.param
    elif group.spec.param >= 2:
        sector = 2.0 * np.pi / group.spec.param
    else:
        sector = 2.0 * np.pi
    for i, orbit in enumerate(orbits):
        ring_radius = radius * (1.0 + i) / (count + 1.0)
        # Keep the azimuth strictly inside one sector so the in-plane
        # orbit is free (off every secondary axis).
        phi = sector * (0.25 + 0.5 * (i + 1.0) / (count + 2.0))
        seed = center + ring_radius * (np.cos(phi) * u + np.sin(phi) * v)
        ring = [center + mat @ (seed - center) for mat in group.elements]
        distinct = []
        for p in ring:
            if not any(np.linalg.norm(p - q)
                       <= DEFAULT_TOL.coincidence_slack(radius)
                       for q in distinct):
                distinct.append(p)
        if len(distinct) != len(orbit):
            raise SimulationError(
                "landing ring is not a free orbit (azimuth hit an axis)")
        rings.extend(distinct)
    return rings
