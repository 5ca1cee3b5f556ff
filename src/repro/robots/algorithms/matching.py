"""Section 6.2 — assigning final positions: the matching ``M(P, F̃)``.

``P`` and the embedded target ``F̃`` are decomposed into orbits of
``G = γ(P)`` (every ``P``-orbit is free, of size ``|G|``; ``F̃``'s
orbits are free too for plain targets, while multiset targets may put
``k·j`` robots on ``k``-fold axes, Definition 6).  Both orbit lists
are put in an agreed order and matched rank-to-rank; inside an orbit
pair every robot heads to its nearest target position, with nearest
ties (which by Lemma 14 form cycles around a rotation axis) broken by
a chirality rule: among tied targets ``f, f'`` the robot picks the one
with positive triple product ``det[p - c, f - c, f' - c]`` — a
rotation-invariant, handedness-aware rule all robots share.

Point-set membership tests run on a k-d neighbour index
(:func:`repro.geometry.neighbors.neighbor_index`) and the
distance/triple-product profiles on batched array kernels; the greedy
orderings and the Lemma 14 tie-break are semantically identical to the
straightforward quadratic loops (pinned by the property tests against
the frozen oracle in ``tests/properties/round_oracle.py``).
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.core.configuration import Configuration
from repro.core.decomposition import orbit_decomposition
from repro.core.local_views import orbit_views, ordered_orbits
from repro.errors import MatchingError
from repro.geometry.neighbors import neighbor_index
from repro.geometry.tolerance import DEFAULT_TOL, canonical_round
from repro.groups.group import RotationGroup

__all__ = ["match_configuration_to_pattern"]


def match_configuration_to_pattern(config: Configuration,
                                   embedded) -> list[np.ndarray]:
    """Destination of every robot (indexed like ``config.points``).

    ``embedded`` is ``F̃`` in the same coordinates as ``config`` (see
    :func:`repro.robots.algorithms.embedding.embed_target`).
    """
    from repro.obs import metrics as _metrics

    _metrics.inc("matching.calls")
    _metrics.inc("matching.robots", config.n)
    targets = [np.asarray(p, dtype=float) for p in embedded]
    if len(targets) != config.n:
        raise MatchingError("embedded pattern size must match the swarm")
    slack = config.tol.geometric_slack(config.radius)

    direct = _direct_cases(config, targets, slack)
    if direct is not None:
        _metrics.inc("matching.direct")
        return direct

    group = config.rotation_group
    if group is None:
        raise MatchingError("matching requires a finite rotation group")

    p_orbits = ordered_orbits(config, group)
    positions, multiplicities = _collapse(targets, slack)
    f_orbits = _target_position_orbits(config, group, positions,
                                       multiplicities, slack)

    assignments = _assign_orbits(config, group, p_orbits, f_orbits)
    _metrics.inc("matching.orbit_matches", len(assignments))
    destinations: list[np.ndarray | None] = [None] * config.n
    for orbit, (orbit_positions, per_position) in assignments:
        _match_within_orbit(config, group, orbit, orbit_positions,
                            per_position, destinations, slack)
    assert all(d is not None for d in destinations)
    return destinations  # type: ignore[return-value]


# ----------------------------------------------------------------------
# Degenerate shortcuts
# ----------------------------------------------------------------------
def _direct_cases(config, targets, slack) -> list[np.ndarray] | None:
    """F̃ already equals P, or F̃ is a single gathering point."""
    distinct, _ = _collapse(targets, slack)
    if len(distinct) == 1:
        return [distinct[0].copy() for _ in range(config.n)]
    if len(distinct) == config.n and _same_point_set(
            config.points, targets, slack):
        return [p.copy() for p in config.points]
    return None


def _same_point_set(a, b, slack) -> bool:
    """Greedy multiset equality: each ``a`` point consumes the lowest-
    indexed unconsumed ``b`` point within ``slack``."""
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    if a_arr.shape != b_arr.shape:
        return False
    candidates = neighbor_index(b_arr).query_ball_point(a_arr, slack)
    used = [False] * len(b_arr)
    for near in candidates:
        hit = None
        for i in sorted(near):
            if not used[i]:
                hit = i
                break
        if hit is None:
            return False
        used[hit] = True
    return True


def _collapse(points, slack):
    """Distinct positions with multiplicities, earliest point first.

    A point joins the earliest *representative* within ``slack`` (not
    merely the earliest earlier point — the clustering is representative
    -anchored, not chained), else becomes a new representative.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    neighbors = neighbor_index(pts).query_ball_point(pts, slack)
    distinct: list[np.ndarray] = []
    multiplicities: list[int] = []
    slot_of: dict[int, int] = {}
    for k in range(n):
        hit = None
        for j in sorted(neighbors[k]):
            if j < k and j in slot_of:
                hit = j
                break
        if hit is None:
            slot_of[k] = len(distinct)
            distinct.append(pts[k].copy())
            multiplicities.append(1)
        else:
            multiplicities[slot_of[hit]] += 1
    return distinct, multiplicities


# ----------------------------------------------------------------------
# Target-side orbits and the agreed ordering
# ----------------------------------------------------------------------
def _target_position_orbits(config, group: RotationGroup, positions,
                            multiplicities, slack):
    """G-orbits of F̃'s distinct positions, in agreed order.

    Returns a list of entries ``(positions, per_position, capacity)``:
    ``per_position`` robots of each assigned P-orbit land on each
    position; ``capacity`` counts how many P-orbits the entry absorbs.
    """
    center = config.center
    tree = neighbor_index(np.asarray(positions, dtype=float))
    unassigned = list(range(len(positions)))
    orbits: list[list[int]] = []
    while unassigned:
        seed = unassigned[0]
        members: list[int] = []
        for mat in group.elements:
            image = center + mat @ (positions[seed] - center)
            idx = _find_index(tree, image, slack)
            if idx is None:
                raise MatchingError(
                    "gamma(P) does not act on the embedded pattern")
            if idx not in members:
                members.append(idx)
        if multiplicities[seed] != multiplicities[members[0]]:
            raise MatchingError("inconsistent multiplicities on an orbit")
        for idx in members:
            if idx in unassigned:
                unassigned.remove(idx)
        orbits.append(sorted(members))

    entries = []
    for orbit in orbits:
        stabilizer = group.order // len(orbit)
        mult = multiplicities[orbit[0]]
        if mult % stabilizer != 0:
            raise MatchingError(
                "multiplicity not divisible by the stabilizer size "
                "(embedded pattern violates Definition 6)")
        capacity = mult // stabilizer
        entries.append({
            "positions": [positions[i] for i in orbit],
            "per_position": stabilizer,
            "capacity": capacity,
        })
    return _order_target_orbits(config, entries)


def _order_target_orbits(config, entries):
    """Order F̃'s orbits: radius, then intra-F̃ local views, then the
    distance profile to P (breaking ties between orbits that are
    symmetric inside F̃ but not relative to P).

    Only entries whose radius another entry shares ever compare their
    views, so only they get one (:func:`_tied_entry_views`).
    """
    center = config.center
    scale = max(config.radius, 1e-300)
    points = np.asarray(config.points, dtype=float)
    radii = [float(canonical_round(
        np.linalg.norm(e["positions"][0] - center) / scale, 6))
        for e in entries]
    views = _tied_entry_views(entries, radii)

    def key(ei):
        pos = np.asarray(entries[ei]["positions"], dtype=float)
        dists = canonical_round(np.linalg.norm(
            pos[:, None, :] - points[None, :, :], axis=2) / scale, 6)
        dists = np.atleast_2d(dists)
        dists.sort(axis=1)
        profile = sorted(map(tuple, dists.tolist()))
        return (radii[ei], views.get(ei, ()), tuple(profile))

    keys = [key(ei) for ei in range(len(entries))]
    order = sorted(range(len(entries)), key=keys.__getitem__)
    # Distance profiles are reflection-blind; separate remaining ties
    # with a handedness-aware signature (cf. the embedding step).
    resolved: list[int] = []
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and keys[order[j + 1]] == keys[order[i]]:
            j += 1
        if j == i:
            resolved.append(order[i])
        else:
            tied = order[i:j + 1]
            chiral = sorted(
                (_orbit_chiral_key(config, entries[ei]["positions"]), ei)
                for ei in tied)
            for (a, _), (b, _) in zip(chiral, chiral[1:]):
                if a == b:
                    raise MatchingError(
                        "embedded pattern orbits are not totally ordered")
            resolved.extend(ei for _, ei in chiral)
        i = j + 1
    return [entries[ei] for ei in resolved]


def _tied_entry_views(entries, radii) -> dict[int, tuple]:
    """Intra-F̃ local view of every entry whose radius is shared.

    An entry's view is the smallest view of its positions inside F̃.
    Positions in one ``γ(F̃)``-orbit have equal views (Theorem 3.1), so
    each ``γ(F̃)``-orbit that holds such an entry's position gets one
    view (:func:`orbit_views`); an entry is a ``G``-orbit, so it lies
    in one ``γ(F̃)``-orbit when ``G ⊆ γ(F̃)``.  A collinear or
    degenerate F̃ has no finite ``γ(F̃)``: every position is then its
    own orbit.
    """
    shared = {r for r, count in Counter(radii).items() if count > 1}
    if not shared:
        return {}
    f_config = Configuration([p for e in entries for p in e["positions"]])
    group = f_config.rotation_group
    f_orbits = ([[i] for i in range(f_config.n)] if group is None
                else orbit_decomposition(f_config, group))
    orbit_of = np.empty(f_config.n, dtype=int)
    for k, orbit in enumerate(f_orbits):
        orbit_of[orbit] = k
    spans = np.cumsum([0] + [len(e["positions"]) for e in entries])
    wanted = {ei: set(orbit_of[spans[ei]:spans[ei + 1]].tolist())
              for ei, r in enumerate(radii) if r in shared}
    needed = sorted(set().union(*wanted.values()))
    view_of = dict(zip(needed,
                       orbit_views(f_config, [f_orbits[k] for k in needed])))
    return {ei: min(view_of[k] for k in ks) for ei, ks in wanted.items()}


def _orbit_chiral_key(config, positions) -> tuple:
    """Rotation-invariant, reflection-sensitive key of a target orbit
    relative to the robots (triple-product profile).

    For each target position the profile holds, per robot pair, the
    pair's (distance-to-target, radius) keys in sorted order and the
    triple product ``det[f, p, q]`` with ``p, q`` in key order (made
    unsigned when the keys tie — the sign is then not agreed).  All
    pairs are evaluated at once: the determinants are the dot products
    of ``f`` with the precomputed pairwise cross products.
    """
    center = config.center
    scale = max(config.radius, 1e-300)
    rel_p = (np.asarray(config.points, dtype=float) - center) / scale
    n = len(rel_p)
    radii = canonical_round(np.linalg.norm(rel_p, axis=1), 6)
    iu, ju = np.triu_indices(n, k=1)
    cross = np.cross(rel_p[iu], rel_p[ju])
    r_i, r_j = radii[iu], radii[ju]
    profile = []
    for f in positions:
        rel_f = (np.asarray(f, dtype=float) - center) / scale
        d = canonical_round(np.linalg.norm(rel_p - rel_f, axis=1), 6)
        d_i, d_j = d[iu], d[ju]
        swap = (d_j < d_i) | ((d_j == d_i) & (r_j < r_i))
        equal = (d_j == d_i) & (r_j == r_i)
        dets = cross @ rel_f
        dets = np.where(swap, -dets, dets)
        dets = np.where(equal, np.abs(dets), dets)
        dets = canonical_round(dets, 5)
        ka_d = np.where(swap, d_j, d_i)
        ka_r = np.where(swap, r_j, r_i)
        kb_d = np.where(swap, d_i, d_j)
        kb_r = np.where(swap, r_i, r_j)
        rows = sorted(zip(ka_d.tolist(), ka_r.tolist(), kb_d.tolist(),
                          kb_r.tolist(), np.atleast_1d(dets).tolist()))
        profile.append(tuple(
            ((ad, ar), (bd, br), det) for ad, ar, bd, br, det in rows))
    profile.sort()
    return tuple(profile)


def _find_index(tree, image, slack) -> int | None:
    near = tree.query_ball_point(np.asarray(image, dtype=float), 10 * slack)
    return min(near) if near else None


# ----------------------------------------------------------------------
# Rank-to-rank orbit assignment
# ----------------------------------------------------------------------
def _assign_orbits(config, group, p_orbits, f_entries):
    """Pair each P-orbit (in order) with target capacity (in order)."""
    slots = []
    for entry in f_entries:
        for _ in range(entry["capacity"]):
            slots.append((entry["positions"], entry["per_position"]))
    if len(slots) != len(p_orbits):
        raise MatchingError(
            f"orbit count mismatch: {len(p_orbits)} robot orbits vs "
            f"{len(slots)} target capacity slots")
    for orbit, slot in zip(p_orbits, slots):
        expected = slot[1] * len(slot[0])
        if len(orbit) != expected:
            raise MatchingError(
                "orbit sizes do not line up with target capacities")
    return list(zip(p_orbits, slots))


# ----------------------------------------------------------------------
# Within-orbit nearest matching with the chirality rule
# ----------------------------------------------------------------------
def _match_within_orbit(config, group, orbit, positions, per_position,
                        destinations, slack):
    center = config.center
    pts = np.asarray([config.points[r] for r in orbit], dtype=float)
    pos = np.asarray(positions, dtype=float)
    dists = np.linalg.norm(pts[:, None, :] - pos[None, :, :], axis=2)
    tied_mask = dists <= dists.min(axis=1, keepdims=True) + 10 * slack

    chosen: dict[int, int] = {}
    for row, robot in enumerate(orbit):
        ties = np.nonzero(tied_mask[row])[0].tolist()
        if len(ties) == 1:
            chosen[robot] = ties[0]
        elif len(ties) == 2:
            chosen[robot] = _chirality_pick(
                group,
                config.points[robot] - center,
                positions[ties[0]] - center,
                positions[ties[1]] - center, ties, slack)
        else:
            raise MatchingError(
                f"robot has {len(ties)} nearest targets; Lemma 14 "
                "guarantees at most two for free orbits")

    counts = [0] * len(positions)
    for robot in orbit:
        counts[chosen[robot]] += 1
    if any(c != per_position for c in counts):
        raise MatchingError(
            "nearest matching is unbalanced; chirality rule failed "
            f"(counts {counts}, expected {per_position} each)")
    for robot in orbit:
        destinations[robot] = positions[chosen[robot]].copy()


def _chirality_pick(group, p_rel, f0_rel, f1_rel, ties, slack):
    """Resolve a two-way nearest tie — the paper's screw rule.

    By Lemma 14 the conflict lies on a cycle generated by the group
    element ``g`` with ``g f0 = f1``, around ``g``'s (unique) rotation
    axis.  Comparing the triple products ``det[axis, p, f]`` of the two
    candidates picks a consistent direction around that axis: the rule
    commutes with ``g`` (the axis is fixed by ``g``), so symmetric
    robots make compatible choices and the matching stays perfect.

    A plain ``det[p, f0, f1]`` comparison is used first (it is the
    cheaper equivalent when non-degenerate) with the axis rule as the
    robust fallback for the coplanar/antipodal cases.
    """
    from repro.obs import metrics as _metrics

    _metrics.inc("matching.tie_breaks")
    det = float(np.linalg.det(np.column_stack([p_rel, f0_rel, f1_rel])))
    scale = (np.linalg.norm(p_rel) * np.linalg.norm(f0_rel)
             * np.linalg.norm(f1_rel))
    if abs(det) > DEFAULT_TOL.abs_tol * max(scale, 1e-300):
        return ties[0] if det > 0 else ties[1]

    from repro.geometry.rotations import rotation_angle, rotation_axis

    picks = set()
    for mat in group.elements:
        if float(np.linalg.norm(mat @ f0_rel - f1_rel)) > 10 * slack:
            continue
        if rotation_angle(mat) < DEFAULT_TOL.coincidence_slack(1.0):
            continue
        axis = rotation_axis(mat)
        s0 = float(np.linalg.det(np.column_stack([axis, p_rel, f0_rel])))
        s1 = float(np.linalg.det(np.column_stack([axis, p_rel, f1_rel])))
        if abs(s0 - s1) <= DEFAULT_TOL.coincidence_slack(1.0) * max(scale,
                                                                    1e-300):
            continue
        picks.add(ties[0] if s0 > s1 else ties[1])
    if len(picks) != 1:
        raise MatchingError(
            "degenerate chirality tie between nearest targets")
    return picks.pop()
