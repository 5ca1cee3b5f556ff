"""The 2D baseline formation algorithm (Suzuki–Yamashita style).

Characterization: FSYNC robots in the plane form ``F`` from ``P`` iff
``ρ(P)`` divides ``ρ(F)``.  The oblivious algorithm mirrors the 3D
construction in miniature:

* a robot at the circle center leaves it (the 2D symmetry breaking —
  the only one available in the plane);
* the target is embedded by aligning scale, center, and a reference
  angle taken from the first ``C_ρ``-orbit of ``P``;
* robots move to nearest matched targets, orbit rank by orbit rank,
  with counterclockwise tie-breaking.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.geometry.tolerance import (
    ANGLE_WRAP_EPS,
    AXIS_NORM_FLOOR,
    DEFAULT_TOL,
)

from repro.errors import MatchingError, UnsolvableError
from repro.twod.sim import Observation2D
from repro.twod.symmetricity import (
    center_2d,
    rotation_group_order_2d,
    symmetricity_2d,
)

__all__ = ["is_formable_2d", "make_formation_algorithm_2d",
           "are_similar_2d"]


def is_formable_2d(initial, target) -> bool:
    """The divisibility characterization ``ρ(P) | ρ(F)``."""
    p = [np.asarray(q, dtype=float)[:2] for q in initial]
    f = [np.asarray(q, dtype=float)[:2] for q in target]
    if len(p) != len(f):
        return False
    return symmetricity_2d(f) % symmetricity_2d(p) == 0


def are_similar_2d(first, second, slack: float | None = None) -> bool:
    """Similarity in the plane (rotation + scale + translation only;
    reflections are excluded, as in the 3D model's chirality)."""
    if slack is None:
        slack = DEFAULT_TOL.geometric_slack(1.0)
    a = [np.asarray(p, dtype=float)[:2] for p in first]
    b = [np.asarray(p, dtype=float)[:2] for p in second]
    if len(a) != len(b):
        return False
    a_arr = np.asarray(a) - np.mean(a, axis=0)
    b_arr = np.asarray(b) - np.mean(b, axis=0)
    rms_a = float(np.sqrt((a_arr ** 2).sum() / len(a)))
    rms_b = float(np.sqrt((b_arr ** 2).sum() / len(b)))
    if rms_a <= slack or rms_b <= slack:
        return rms_a <= slack and rms_b <= slack
    a_arr /= rms_a
    b_arr /= rms_b
    i0 = int(np.argmax(np.linalg.norm(a_arr, axis=1)))
    p0 = a_arr[i0]
    r0 = float(np.linalg.norm(p0))
    for q0 in b_arr:
        if abs(float(np.linalg.norm(q0)) - r0) > 10 * slack:
            continue
        cos = float(np.dot(p0, q0)) / (r0 * r0)
        sin = float(p0[0] * q0[1] - p0[1] * q0[0]) / (r0 * r0)
        rot = np.array([[cos, -sin], [sin, cos]])
        if _multiset_close(a_arr @ rot.T, b_arr, 100 * slack):
            return True
    return False


def _multiset_close(a, b, slack) -> bool:
    remaining = list(range(len(b)))
    for p in a:
        hit = None
        for pos, j in enumerate(remaining):
            if float(np.linalg.norm(p - b[j])) <= slack:
                hit = pos
                break
        if hit is None:
            return False
        remaining.pop(hit)
    return True


def make_formation_algorithm_2d(
        target_points) -> Callable[[Observation2D], np.ndarray]:
    """Build the oblivious 2D formation algorithm for target ``F``."""
    target = [np.asarray(p, dtype=float)[:2] for p in target_points]

    def psi_2d(observation: Observation2D) -> np.ndarray:
        points = [np.asarray(p, dtype=float) for p in observation.points]
        own = points[observation.self_index]
        if are_similar_2d(points, target):
            return own
        center = center_2d(points)
        scale = max(float(np.linalg.norm(p - center)) for p in points)
        slack = DEFAULT_TOL.geometric_slack(scale)

        if float(np.linalg.norm(own - center)) <= slack:
            return _leave_center(points, observation.self_index, center)
        if any(float(np.linalg.norm(p - center)) <= slack for p in points):
            # The center robot breaks the symmetry first; wait.
            return own

        if not is_formable_2d(points, target):
            raise UnsolvableError(
                "2D instance violates the divisibility condition")
        if _is_gather_target(target):
            return center
        rho = rotation_group_order_2d(points, center=center)
        embedded = _embed_2d(points, center, scale, rho, target)
        destinations = _match_2d(points, center, rho, embedded)
        return destinations[observation.self_index]

    return psi_2d


def _is_gather_target(target) -> bool:
    first = target[0]
    return all(float(np.linalg.norm(p - first))
               <= DEFAULT_TOL.coincidence_slack(1.0) for p in target)


def _leave_center(points, self_index, center) -> np.ndarray:
    """The center robot walks off c(P), enabling ρ(P') = 1."""
    others = [float(np.linalg.norm(p - center))
              for i, p in enumerate(points) if i != self_index]
    inner = min(r for r in others if r > AXIS_NORM_FLOOR)
    direction = np.array([0.7432, 0.6690])  # local frame dependent
    return center + (inner / 2.0) * direction


# ----------------------------------------------------------------------
# Embedding
# ----------------------------------------------------------------------
def _angle(v) -> float:
    a = float(np.arctan2(v[1], v[0])) % (2.0 * np.pi)
    if a >= 2.0 * np.pi - ANGLE_WRAP_EPS:
        a = 0.0
    return a


def _orbits_2d(points, center, rho, slack):
    """C_rho orbits as index lists (requires the group to act)."""
    rel = [p - center for p in points]
    unassigned = set(range(len(points)))
    step = 2.0 * np.pi / rho
    cos, sin = np.cos(step), np.sin(step)
    rot = np.array([[cos, -sin], [sin, cos]])
    orbits = []
    while unassigned:
        seed = min(unassigned)
        orbit = [seed]
        current = rel[seed]
        for _ in range(rho - 1):
            current = rot @ current
            hit = None
            for j in unassigned:
                if j in orbit:
                    continue
                if float(np.linalg.norm(rel[j] - current)) <= 10 * slack:
                    hit = j
                    break
            if hit is None:
                # A stabilizer hit (the image is a point already in the
                # orbit, e.g. the center) is fine; otherwise the group
                # does not act.
                if any(float(np.linalg.norm(rel[j] - current)) <= 10 * slack
                       for j in orbit):
                    continue
                raise MatchingError("C_rho does not act on the points")
            orbit.append(hit)
        for j in orbit:
            unassigned.discard(j)
        orbits.append(orbit)
    return orbits


def _orbit_view(points, center, scale, orbit_member) -> tuple:
    """Rotation-invariant view of a point: the configuration in polar
    coordinates relative to the point's own angle."""
    rel = [(p - center) / scale for p in points]
    theta0 = _angle(rel[orbit_member])
    entries = []
    for r in rel:
        radius = float(np.linalg.norm(r))
        delta = (_angle(r) - theta0) % (2.0 * np.pi)
        if delta >= 2.0 * np.pi - ANGLE_WRAP_EPS:
            delta = 0.0
        entries.append((round(radius, 6), round(delta, 6)))
    return tuple(sorted(entries))


def _ordered_orbits_2d(points, center, scale, orbits):
    keyed = []
    for orbit in orbits:
        radius = round(float(
            np.linalg.norm(points[orbit[0]] - center)) / scale, 6)
        view = min(_orbit_view(points, center, scale, j) for j in orbit)
        keyed.append(((radius, view), orbit))
    keyed.sort(key=lambda item: item[0])
    return [orbit for _, orbit in keyed]


def _embed_2d(points, center, scale, rho, target):
    """Rotate/scale/translate ``F`` into ``P``'s circle, aligning the
    reference angles of the first orbits on both sides."""
    f_center = center_2d(target)
    f_scale = max(float(np.linalg.norm(p - f_center)) for p in target)
    slack = DEFAULT_TOL.geometric_slack(scale)
    orbits = _orbits_2d(points, center, rho, slack)
    ordered = _ordered_orbits_2d(points, center, scale, orbits)
    theta_p = _angle(points[ordered[0][0]] - center)

    f_rel = [p - f_center for p in target]
    off = [r for r in f_rel
           if float(np.linalg.norm(r))
           > DEFAULT_TOL.coincidence_slack(1.0) * f_scale]
    if not off:
        return [center.copy() for _ in target]
    ref = min(off, key=lambda r: (round(float(np.linalg.norm(r)), 9),
                                  round(_angle(r), 9)))
    theta_f = _angle(ref)
    spin = theta_p - theta_f
    cos, sin = np.cos(spin), np.sin(spin)
    rot = np.array([[cos, -sin], [sin, cos]])
    factor = scale / f_scale
    return [center + factor * (rot @ r) for r in f_rel]


# ----------------------------------------------------------------------
# Matching
# ----------------------------------------------------------------------
def _match_2d(points, center, rho, embedded):
    scale = max(float(np.linalg.norm(p - center)) for p in points)
    slack = DEFAULT_TOL.geometric_slack(scale)
    orbits = _orbits_2d(points, center, rho, slack)
    ordered = _ordered_orbits_2d(points, center, scale, orbits)

    positions, mults = _collapse_2d(embedded, slack)
    entries = _target_orbits_2d(points, positions, mults, center, rho,
                                scale, slack)

    slots = []
    for entry in entries:
        for _ in range(entry["capacity"]):
            slots.append(entry)
    if len(slots) != len(ordered):
        raise MatchingError("2D orbit/capacity mismatch")

    destinations = [None] * len(points)
    for orbit, entry in zip(ordered, slots):
        _match_orbit_2d(points, center, orbit, entry, destinations, slack)
    assert all(d is not None for d in destinations)
    return destinations


def _collapse_2d(points, slack):
    distinct, mults = [], []
    for p in points:
        for i, q in enumerate(distinct):
            if float(np.linalg.norm(p - q)) <= slack:
                mults[i] += 1
                break
        else:
            distinct.append(p)
            mults.append(1)
    return distinct, mults


def _target_orbits_2d(points, positions, mults, center, rho, scale, slack):
    orbits = _orbits_2d(positions, center, rho, slack) if positions else []
    # Points at the center are fixed by every rotation; _orbits_2d puts
    # each in a singleton orbit, which is correct.
    entries = []
    for orbit in orbits:
        stabilizer = rho // len(orbit)
        mult = mults[orbit[0]]
        if mult % stabilizer != 0:
            raise MatchingError("2D multiplicity/stabilizer mismatch")
        entries.append({
            "positions": [positions[i] for i in orbit],
            "per_position": stabilizer,
            "capacity": mult // stabilizer,
        })
    def invariant_key(entry):
        radius = round(float(
            np.linalg.norm(entry["positions"][0] - center)) / scale, 6)
        # Distance profiles to the robots are rotation invariant, so
        # every observer orders the target orbits identically.
        profile = tuple(sorted(
            tuple(sorted(round(float(np.linalg.norm(f - p)) / scale, 6)
                         for p in points))
            for f in entry["positions"]))
        return (radius, profile)

    keyed = sorted((invariant_key(e), e) for e in entries)
    for (key_a, _), (key_b, _) in zip(keyed, keyed[1:]):
        if key_a == key_b:
            raise MatchingError("2D target orbits are not totally ordered")
    return [e for _, e in keyed]


def _match_orbit_2d(points, center, orbit, entry, destinations, slack):
    positions = entry["positions"]
    per_position = entry["per_position"]
    chosen = {}
    for robot in orbit:
        p = points[robot]
        dists = [float(np.linalg.norm(p - f)) for f in positions]
        d_min = min(dists)
        ties = [j for j, d in enumerate(dists) if d <= d_min + 10 * slack]
        if len(ties) == 1:
            chosen[robot] = ties[0]
        else:
            chosen[robot] = _ccw_pick(p - center,
                                      [positions[j] - center for j in ties],
                                      ties)
    counts = [0] * len(positions)
    for robot in orbit:
        counts[chosen[robot]] += 1
    if any(c != per_position for c in counts):
        raise MatchingError(f"2D nearest matching unbalanced: {counts}")
    for robot in orbit:
        destinations[robot] = positions[chosen[robot]].copy()


def _ccw_pick(p_rel, candidates_rel, ties):
    """Counterclockwise tie-break: the paper's 2D screw rule."""
    best = None
    best_delta = None
    theta_p = _angle(p_rel)
    for idx, f_rel in zip(ties, candidates_rel):
        delta = (_angle(f_rel) - theta_p) % (2.0 * np.pi)
        if best_delta is None or delta < best_delta:
            best_delta = delta
            best = idx
    return best
