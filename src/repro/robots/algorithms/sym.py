"""Algorithm 4.2 — ``ψ_SYM``: show the symmetricity of the swarm.

``ψ_SYM`` translates any initial configuration ``P`` into a terminal
configuration ``P'`` with ``γ(P') ∈ ϱ(P)`` (Theorem 4.1) by repeatedly
removing occupied rotation axes:

* a robot at ``b(P)`` leaves the center (*go-to-sphere*);
* when several orbits share the enclosing sphere, the last orbit
  jumps outward (*Expand*) so the enclosing ball stays pinned while
  inner orbits move;
* the first orbit occupying rotation axes is brought strictly inside
  every other orbit (*Shrink*), then sent off its axes —
  *go-to-sphere* for cyclic groups / occupied principal axes,
  *go-to-corner* for occupied secondary axes of dihedral groups, and
  *go-to-center* (Algorithm 4.1) for the polyhedral groups.

Terminal configurations satisfy: ``γ(P') = C_1``, or ``P'`` is a
regular polygon, or no robot is on any rotation axis of ``γ(P')`` —
and then every orbit of the ``γ(P')``-decomposition has exactly
``|γ(P')|`` robots, which is what the pattern formation phase needs.

Deviations from the paper's pseudo-code (documented in DESIGN.md):

* *Expand* sends the last orbit to radius ``2·rad(B(P))`` (the paper's
  text says ``2·rad(I(P))``, which can move the outermost orbit
  *inward* and cannot achieve the procedure's stated purpose of
  pinning the enclosing ball; we read it as a typo).
* Collinear configurations (infinite rotation groups, which the paper
  leaves implicit) are handled by moving the innermost orbit off the
  line, after which the finite machinery applies.
"""

from __future__ import annotations

import numpy as np

from repro.core.configuration import Configuration
from repro.core.decomposition import principal_axis_of_d2
from repro.core.local_views import ordered_orbits
from repro.errors import GeometryError, SimulationError
from repro.geometry.polygons import regular_polygon_fold
from repro.geometry.rotations import rotation_about_axis
from repro.geometry.tolerance import DEFAULT_TOL, canonical_round
from repro.groups.group import GroupKind, RotationGroup
from repro.robots.algorithms.go_to_center import (
    EPSILON_FRACTION,
    _goc_round_info,
    _local_face_choice,
    go_to_center_destination,
)
from repro.robots.model import Observation

__all__ = ["psi_sym", "is_sym_terminal"]

_GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))


def is_sym_terminal(config: Configuration) -> bool:
    """True if ``ψ_SYM`` outputs 'stay' at every robot of ``config``."""
    report = config.symmetry
    if report.kind == "degenerate":
        return True
    if report.kind == "collinear":
        return False
    if report.center_occupied:
        return False
    group = report.group
    if group.is_trivial:
        return True
    if regular_polygon_fold(config.points) is not None:
        return True
    return not any(axis.occupied for axis in group.axes)


class _PsiSym:
    """``ψ_SYM`` as a callable: per-robot reference + batched strategy.

    The batched path (``compute_batch``) runs the branch analysis of
    :func:`_psi_sym_move` once in the world frame — every predicate it
    evaluates (symmetry kind, center occupancy, orbit ordering, the
    Expand guard, which orbit sits on occupied axes) is similarity-
    invariant, so the decision is the one each robot reaches from its
    own observation.  Frame-*independent* moves (Expand, Shrink) are
    then pure vectorized radial formulas.  Frame-*dependent* moves
    (go-to-sphere, leaving a line, go-to-corner, go-to-center — the
    symmetry-breaking choices, at most one orbit of at most ``|G|``
    robots) take their invariant part from the same world analysis:
    the inner radius, the group's axes, the ``D_2`` principal axis, the
    reference prism's corners and the polyhedron's face combinatorics.
    Each mover then makes only its local choice on those quantities
    mapped into its own frame — :func:`_free_direction`,
    :func:`_nearest_corner` or
    :func:`~repro.robots.algorithms.go_to_center._local_face_choice`,
    the same functions the per-robot path calls.
    """

    def __call__(self, observation: Observation) -> np.ndarray:
        """``ψ_SYM`` for one robot: next position in local coordinates."""
        move = _psi_sym_move(observation)
        return observation.own_position() if move is None else move

    def compute_batch(self, batch) -> np.ndarray:
        config = batch.config
        report = config.symmetry
        destinations = np.array(batch.own_rows(), dtype=float)
        if report.kind == "degenerate":
            return destinations

        center = config.center
        radius = float(config.radius)
        slack = DEFAULT_TOL.geometric_slack(radius)
        world = np.asarray(batch.points, dtype=float)
        dists = np.linalg.norm(world - center, axis=1)
        positive = dists[dists > slack]
        inner = float(positive.min()) if positive.size else radius

        def radial_rows(movers, target_radius: float) -> None:
            rel = world[movers] - center
            r = np.linalg.norm(rel, axis=1)
            wdest = center + rel * (target_radius / r)[:, None]
            destinations[movers] = batch.to_local_rows(movers, wdest)

        def sphere_rows(movers, avoid_lines, equator_normal) -> None:
            # go-to-sphere: each mover's free direction, found in its
            # own frame (R_iᵀ of the world lines), mapped back out.
            wdest = np.empty((len(movers), 3))
            for j, i in enumerate(movers):
                rot = batch.rotations[i]
                direction = _free_direction(
                    [line @ rot for line in avoid_lines],
                    None if equator_normal is None else equator_normal @ rot)
                wdest[j] = center + (inner / 2.0) * (rot @ direction)
            destinations[movers] = batch.to_local_rows(movers, wdest)

        def corner_rows(movers, principal, secondary) -> None:
            corners = np.asarray(
                _prism_corners(center, inner, principal, secondary))
            for i in movers:
                scale = float(batch.scales[i])
                local = ((corners - world[i]) @ batch.rotations[i]) / scale
                destinations[i] = _nearest_corner(
                    list(local), batch.local[i][i],
                    DEFAULT_TOL.geometric_slack(radius / scale))

        def center_rows(selected, movers) -> None:
            if not movers:
                return
            # An orbit that is all of P is the round's configuration.
            orbit = config if selected == list(range(batch.n)) \
                else world[selected]
            info = _goc_round_info(orbit, 1.0)
            if info is None:
                raise GeometryError(
                    "go-to-center applies only to the seven transitive "
                    "polyhedra")
            _, admissible, edge = info  # unit radius: ratio = edge
            for i in movers:
                k = selected.index(i)
                epsilon = edge / float(batch.scales[i]) * EPSILON_FRACTION
                destinations[i] = _local_face_choice(
                    batch.local[i][selected], k, admissible[k], epsilon)

        at_center = np.nonzero(dists <= slack)[0]
        if at_center.size:
            sphere_rows(at_center, *_sphere_constraints(config, report.group))

        if report.kind == "collinear":
            movers = np.nonzero((dists > slack)
                                & (dists <= inner + 10 * slack))[0]
            sphere_rows(movers, [report.line_direction], None)
            return destinations

        group = report.group
        if group.is_trivial:
            return destinations
        if regular_polygon_fold(config.points) is not None:
            return destinations
        if not any(axis.occupied for axis in group.axes):
            return destinations

        orbits = ordered_orbits(config, group)

        def off_center(orbit) -> list[int]:
            return [i for i in orbit if dists[i] > slack]

        def shrink_rows(orbit: list[int]) -> None:
            # "others" excludes the whole selected orbit (the
            # per-robot _shrink semantics), even though only its
            # off-center members move.
            orbit_set = set(orbit)
            others = dists[[i for i in range(batch.n)
                            if i not in orbit_set]]
            radial_rows(off_center(orbit), float(others.min()) / 2.0)

        if group.spec.kind is not GroupKind.CYCLIC:
            on_ball = {int(i) for i
                       in np.nonzero(dists >= radius - 10 * slack)[0]}
            if on_ball != set(orbits[-1]):
                radial_rows(off_center(orbits[-1]), 2.0 * radius)
                return destinations

        kind = group.spec.kind
        if kind is GroupKind.CYCLIC:
            axis = group.axes[0].direction
            selected = _first_orbit_on_lines(config, orbits, [axis])
            if selected is None:
                return destinations
            if selected != orbits[0]:
                shrink_rows(selected)
            else:
                sphere_rows(off_center(selected),
                            *_sphere_constraints(config, group))
            return destinations

        if kind is GroupKind.DIHEDRAL:
            principal, secondary = _dihedral_axes(config, group)
            on_principal = _first_orbit_on_lines(config, orbits,
                                                 [principal])
            if on_principal is not None:
                if on_principal != orbits[0]:
                    shrink_rows(on_principal)
                else:
                    corner_rows(off_center(on_principal), principal,
                                secondary)
                return destinations
            on_secondary = _first_orbit_on_lines(config, orbits, secondary)
            if on_secondary is None \
                    or on_secondary == list(range(config.n)):
                return destinations
            if on_secondary != orbits[0]:
                shrink_rows(on_secondary)
            else:
                corner_rows(off_center(on_secondary), principal, secondary)
            return destinations

        lines = _polyhedral_lines(group)
        if not lines:
            return destinations
        selected = _first_orbit_on_lines(config, orbits, lines)
        if selected is None:
            return destinations
        if selected != orbits[0]:
            shrink_rows(selected)
        else:
            center_rows(selected, off_center(selected))
        return destinations


psi_sym = _PsiSym()


def _psi_sym_move(observation: Observation) -> np.ndarray | None:
    pts = observation.points
    config = Configuration(pts)
    report = config.symmetry
    if report.kind == "degenerate":
        return None
    center = config.center
    own = pts[observation.self_index]
    slack = DEFAULT_TOL.geometric_slack(config.radius)

    if float(np.linalg.norm(own - center)) <= slack:
        return _go_to_sphere(observation, config, group=report.group)

    if report.kind == "collinear":
        return _collinear_move(observation, config)

    group = report.group
    if group.is_trivial:
        return None
    if regular_polygon_fold(pts) is not None:
        return None
    if not any(axis.occupied for axis in group.axes):
        return None

    orbits = ordered_orbits(config, group)

    # Expand: pin the smallest enclosing ball on a unique last orbit
    # before anything inside it starts moving.
    if group.spec.kind is not GroupKind.CYCLIC:
        on_ball = {i for i, p in enumerate(pts)
                   if float(np.linalg.norm(p - center))
                   >= config.radius - 10 * slack}
        if on_ball != set(orbits[-1]):
            if observation.self_index in orbits[-1]:
                return _expand(observation, config)
            return None

    kind = group.spec.kind
    if kind is GroupKind.CYCLIC:
        return _cyclic_case(observation, config, group, orbits)
    if kind is GroupKind.DIHEDRAL:
        return _dihedral_case(observation, config, group, orbits)
    return _polyhedral_case(observation, config, group, orbits)


# ----------------------------------------------------------------------
# Case analysis
# ----------------------------------------------------------------------
def _cyclic_case(observation, config, group, orbits):
    axis = group.axes[0].direction
    selected = _first_orbit_on_lines(config, orbits, [axis])
    if selected is None:
        return None
    if observation.self_index not in selected:
        return None
    if selected != orbits[0]:
        return _shrink(observation, config, selected)
    return _go_to_sphere(observation, config, group)


def _dihedral_axes(config, group) -> tuple[np.ndarray, list[np.ndarray]]:
    """The principal axis of a dihedral ``γ(P)`` and its secondary axes."""
    if group.spec.param == 2:
        principal = principal_axis_of_d2(config, group)
    else:
        principal = group.principal_axis.direction
    secondary = [a.direction for a in group.axes
                 if float(abs(np.dot(a.direction, principal)))
                 < DEFAULT_TOL.geometric_slack(1.0)]
    return principal, secondary


def _dihedral_case(observation, config, group, orbits):
    principal, secondary = _dihedral_axes(config, group)

    on_principal = _first_orbit_on_lines(config, orbits, [principal])
    if on_principal is not None:
        if observation.self_index not in on_principal:
            return None
        if on_principal != orbits[0]:
            return _shrink(observation, config, on_principal)
        return _go_to_corner(observation, config, principal, secondary)

    on_secondary = _first_orbit_on_lines(config, orbits, secondary)
    if on_secondary is None or on_secondary == list(range(config.n)):
        return None
    if observation.self_index not in on_secondary:
        return None
    if on_secondary != orbits[0]:
        return _shrink(observation, config, on_secondary)
    return _go_to_corner(observation, config, principal, secondary)


def _polyhedral_lines(group) -> list[np.ndarray]:
    """The occupied axes of the highest occupied fold (empty if none)."""
    occupied_folds = sorted({a.fold for a in group.axes if a.occupied},
                            reverse=True)
    if not occupied_folds:
        return []
    return [a.direction for a in group.axes
            if a.fold == occupied_folds[0] and a.occupied]


def _polyhedral_case(observation, config, group, orbits):
    lines = _polyhedral_lines(group)
    if not lines:
        return None
    selected = _first_orbit_on_lines(config, orbits, lines)
    if selected is None:
        return None
    if observation.self_index not in selected:
        return None
    if selected != orbits[0]:
        return _shrink(observation, config, selected)
    element = [observation.points[i] for i in selected]
    own_in_element = selected.index(observation.self_index)
    return go_to_center_destination(element, own_in_element)


def _first_orbit_on_lines(config, orbits, lines) -> list[int] | None:
    """First (agreed-order) orbit whose points lie on the given axes."""
    center = config.center
    slack = DEFAULT_TOL.alignment_slack(config.radius)
    for orbit in orbits:
        p = config.points[orbit[0]] - center
        for line in lines:
            if float(np.linalg.norm(np.cross(line, p))) <= slack:
                return orbit
    return None


# ----------------------------------------------------------------------
# Procedures (Algorithm 4.3)
# ----------------------------------------------------------------------
def _expand(observation, config) -> np.ndarray:
    """Move radially outward to radius ``2·rad(B(P))``."""
    own = observation.points[observation.self_index]
    center = config.center
    rel = own - center
    radius = float(np.linalg.norm(rel))
    return center + rel * (2.0 * config.radius / radius)


def _shrink(observation, config, movers: list[int]) -> np.ndarray:
    """Move radially inward to half the others' innermost radius."""
    own = observation.points[observation.self_index]
    center = config.center
    mover_set = set(movers)
    others = [float(np.linalg.norm(p - center))
              for i, p in enumerate(observation.points)
              if i not in mover_set]
    inner = min(others)
    rel = own - center
    radius = float(np.linalg.norm(rel))
    return center + rel * (inner / 2.0 / radius)


def _go_to_sphere(observation, config,
                  group: RotationGroup | None) -> np.ndarray:
    """Leave the occupied axis: move to a free point on the half-``I(P)``
    sphere, avoiding every rotation axis (and the equator for 2D
    groups).  The direction is chosen deterministically from the
    robot's local frame — the symmetry-breaking degree of freedom.
    """
    center = config.center
    slack = DEFAULT_TOL.geometric_slack(config.radius)
    radii = [float(np.linalg.norm(p - center)) for p in observation.points]
    positive = [r for r in radii if r > slack]
    inner = min(positive) if positive else config.radius
    target_radius = inner / 2.0
    direction = _free_direction(*_sphere_constraints(config, group))
    return center + target_radius * direction


def _sphere_constraints(config, group: RotationGroup | None):
    """What a go-to-sphere direction must avoid, in ``config``'s frame.

    Returns the rotation axes of ``group`` and, for 2D groups, the
    normal of the equator (the principal axis).
    """
    if group is None or group.is_trivial:
        return [], None
    avoid_lines = [a.direction for a in group.axes]
    equator_normal = None
    if group.spec.is_2d:
        if group.spec.kind is GroupKind.DIHEDRAL and group.spec.param == 2:
            equator_normal = principal_axis_of_d2(config, group)
        else:
            principal = group.principal_axis
            if principal is not None:
                equator_normal = principal.direction
    return avoid_lines, equator_normal


def _free_direction(avoid_lines, equator_normal,
                    clearance: float = 0.05) -> np.ndarray:
    """Deterministic unit direction clear of the given axis lines and
    (optionally) of the plane perpendicular to ``equator_normal``.

    All vectors are in the robot's local coordinates; the fixed seed
    direction below is therefore frame-dependent, which is the point.
    """
    seed = np.array([0.5338, 0.2676, 0.8020])
    seed /= np.linalg.norm(seed)
    spin_axis = np.array([0.2763, 0.8906, -0.3614])
    spin_axis /= np.linalg.norm(spin_axis)
    candidate = seed
    for step in range(512):
        ok = all(float(np.linalg.norm(np.cross(candidate, line)))
                 > clearance for line in avoid_lines)
        if ok and equator_normal is not None:
            ok = abs(float(np.dot(candidate, equator_normal))) > clearance
        if ok:
            return candidate
        tilt = rotation_about_axis(spin_axis,
                                   _GOLDEN_ANGLE * (step + 1))
        candidate = tilt @ seed
    raise SimulationError("could not find a direction clear of all axes")


def _go_to_corner(observation, config, principal,
                  secondary) -> np.ndarray:
    """Move to the nearest vertex of the reference prism (Figure 27).

    The prism is inscribed in ``Ball(b(P), rad(I(P))/2)``: its vertices
    lie on the cylinder of radius ``rad(I(P))/4`` around the principal
    axis, in the planes spanned by the principal axis and each
    secondary axis.  Ties among nearest vertices are broken by the
    robot's local lexicographic order — the symmetry-breaking choice.
    """
    center = config.center
    own = observation.points[observation.self_index]
    slack = DEFAULT_TOL.geometric_slack(config.radius)
    radii = [float(np.linalg.norm(p - center)) for p in observation.points]
    positive = [r for r in radii if r > slack]
    inner = min(positive) if positive else config.radius
    corners = _prism_corners(center, inner, principal, secondary)
    return _nearest_corner(corners, own, slack)


def _prism_corners(center, inner: float, principal,
                   secondary) -> list[np.ndarray]:
    """The reference prism's vertices for inner radius ``inner``."""
    rho = inner / 4.0
    height = inner * np.sqrt(3.0) / 4.0
    z_hat = np.asarray(principal, dtype=float)
    z_hat = z_hat / np.linalg.norm(z_hat)
    corners = []
    for s in secondary:
        s_hat = np.asarray(s, dtype=float)
        s_hat = s_hat / np.linalg.norm(s_hat)
        for u in (s_hat, -s_hat):
            for z in (height, -height):
                corners.append(center + rho * u + z * z_hat)
    return corners


def _nearest_corner(corners, own, slack: float) -> np.ndarray:
    """The corner nearest ``own``; ties go to the lexicographically
    smallest corner in the robot's own coordinates."""
    best_distance = min(float(np.linalg.norm(c - own)) for c in corners)
    nearest = [c for c in corners
               if float(np.linalg.norm(c - own)) <= best_distance + slack]
    return min(nearest, key=lambda c: tuple(canonical_round(c, 9).tolist()))


# ----------------------------------------------------------------------
# Collinear configurations (infinite groups; see module docstring)
# ----------------------------------------------------------------------
def _collinear_move(observation, config) -> np.ndarray | None:
    """Innermost orbit leaves the line; everyone else keeps it."""
    report = config.symmetry
    center = config.center
    line = report.line_direction
    slack = DEFAULT_TOL.geometric_slack(config.radius)
    radii = [float(np.linalg.norm(p - center)) for p in observation.points]
    inner = min(r for r in radii if r > slack)
    own_r = radii[observation.self_index]
    if own_r > inner + 10 * slack:
        return None
    # This robot is innermost (alone, or with its antipodal partner in
    # the D_inf case): leave the line to half the innermost radius.
    direction = _free_direction([line], None)
    return center + (inner / 2.0) * direction
