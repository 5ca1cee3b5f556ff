"""Section 6.1 — fixing an image ``F̃`` of the target pattern in ``P``.

Given a ``ψ_SYM``-terminal configuration ``P`` (with ``γ(P) ∈ ϱ(F)``)
and the target pattern ``F``, every robot must compute the *same*
embedded copy ``F̃`` with ``B(F̃) = B(P)`` and with the arrangement of
``γ(P)`` overlapping free rotation axes of ``γ(F̃)``.

The construction here is *equivariant*: every choice is made either
from the target pattern ``F`` alone (which all robots share verbatim)
or from rotation-invariant signatures of ``P``'s geometry — so
``embed(R·P, F) = R·embed(P, F)`` for every rotation ``R``, which both
makes all robots agree (they observe similarity copies of the same
``P``) and forces ``F̃`` to be invariant under every symmetry of ``P``.

Construction outline:

* pick a *witness* ``W``: a concrete subgroup of ``γ(F)`` with
  ``W ≅ γ(P)`` acting freely on ``F`` (recorded by the symmetricity
  computation); chosen canonically from ``F``'s data;
* enumerate the rotations aligning ``W``'s axis arrangement onto
  ``γ(P)``'s (finite for dihedral/polyhedral groups; for cyclic groups
  the residual spin about the axis is fixed with the paper's
  *reference polygon*: the first free orbit of ``P`` and of ``F``);
* scale/translate so ``B(F̃) = B(P)``;
* among the finitely many surviving candidates (e.g. the two
  icosahedral extensions of a tetrahedral arrangement, Figure 28),
  pick the one minimizing a rotation-invariant joint signature of
  ``(P, F̃)``.
"""

from __future__ import annotations

import numpy as np

from repro.core.configuration import Configuration
from repro.core.decomposition import oriented_axis_direction
from repro.core.local_views import ordered_orbits
from repro.core.symmetricity import symmetricity_of_multiset
from repro.errors import EmbeddingError
from repro.geometry.polygons import regular_polygon_fold
from repro.geometry.tolerance import (
    AXIS_NORM_FLOOR,
    DEFAULT_TOL,
    canonical_round,
)
from repro.groups.group import GroupKind, GroupSpec, RotationGroup

__all__ = ["embed_target"]


def embed_target(config: Configuration, target_points) -> list[np.ndarray]:
    """Compute ``F̃``: the target pattern fixed in ``P``'s ball.

    ``config`` must be a ``ψ_SYM``-terminal configuration and the
    instance must be solvable (``γ(P) ∈ ϱ(F)`` up to the regular
    polygon special case).  Returns the embedded points in the same
    coordinate system as ``config``.
    """
    target = [np.asarray(p, dtype=float) for p in target_points]
    if len(target) != config.n:
        raise EmbeddingError("target pattern size must match the swarm")

    target_config = Configuration(target)
    if target_config.symmetry.kind == "degenerate":
        # The point of multiplicity n: always formable; gather at b(P).
        return [config.center.copy() for _ in range(config.n)]

    special = _polygon_case(config, target_config)
    if special is not None:
        return special

    group = config.rotation_group
    if group is None:
        raise EmbeddingError(
            "embedding requires a finite rotation group "
            "(run psi_sym to terminality first)")

    if group.is_trivial:
        return _embed_with_frames(config, target_config)

    witness = _canonical_witness(target_config, group.spec)
    if witness is None:
        raise EmbeddingError(
            f"gamma(P) = {group.spec} is not in varrho(F): unsolvable")

    if group.spec.kind is GroupKind.CYCLIC:
        candidates = _cyclic_alignments(config, group, target_config, witness)
    else:
        candidates = _arrangement_alignments(config, group,
                                             target_config, witness)
    if not candidates:
        raise EmbeddingError("no alignment of gamma(P) onto free axes of F")
    return _pick_canonical(config, candidates)


# ----------------------------------------------------------------------
# Special case: regular polygons
# ----------------------------------------------------------------------
def _polygon_case(config: Configuration,
                  target_config: Configuration) -> list[np.ndarray] | None:
    """Handle ``P`` = regular n-gon (ψ_SYM leaves it intact).

    Any solvable target from a regular ``n``-gon is either similar to
    the ``n``-gon itself (the only free ``C_n``-orbit of ``n`` points)
    or the point of multiplicity ``n``, which :func:`embed_target`
    has already gathered; see DESIGN.md.
    """
    fold = regular_polygon_fold(config.points)
    if fold is None or fold < 3:
        return None
    if config.is_similar_to(target_config):
        return [p.copy() for p in config.points]
    raise EmbeddingError(
        "from a regular polygon only the polygon itself or the point "
        "of multiplicity n is formable")


# ----------------------------------------------------------------------
# Witness selection (target side — choices here need no equivariance)
# ----------------------------------------------------------------------
def _canonical_witness(target_config: Configuration,
                       spec: GroupSpec) -> RotationGroup | None:
    """A concrete subgroup of ``γ(F)`` of type ``spec`` acting freely
    on ``F`` (Definition 5/6 witness), chosen deterministically."""
    rho = symmetricity_of_multiset(target_config)
    arrangements = rho.witnesses.get(spec)
    if not arrangements:
        return None
    return min(arrangements,
               key=lambda g: sorted(a.line_key() for a in g.axes))


# ----------------------------------------------------------------------
# Trivial group: canonical frames on both sides
# ----------------------------------------------------------------------
def _canonical_frame(config: Configuration) -> np.ndarray:
    """A right-handed frame built equivariantly from the point set.

    Uses the agreed orbit ordering (radius, then local views) to pick
    two reference points; only valid when ``γ(P) = C_1`` — with any
    symmetry present the 'first point' would not be well defined.
    """
    group = config.rotation_group
    if group is None:
        raise EmbeddingError("canonical frame needs a finite-group config")
    orbits = ordered_orbits(config, group)
    order = [orbit[0] for orbit in orbits]
    center = config.center
    rel = [config.points[i] - center for i in order]
    first = next((r for r in rel if np.linalg.norm(r) > DEFAULT_TOL.coincidence_slack(1.0)),
                 None)
    if first is None:
        raise EmbeddingError("degenerate configuration has no frame")
    w = first / np.linalg.norm(first)
    for r in rel:
        perp = r - float(np.dot(r, w)) * w
        if np.linalg.norm(perp) > DEFAULT_TOL.abs_tol * max(config.radius,
                                                            1.0):
            u = perp / np.linalg.norm(perp)
            v = np.cross(w, u)
            return np.column_stack([u, v, w])
    raise EmbeddingError("collinear configuration has no canonical frame")


def _frame_for_target(target_config: Configuration) -> np.ndarray:
    """A deterministic frame for ``F`` (target-side, any rule works).

    If ``F`` has symmetries the choice among equivalent reference
    points is absorbed: frames differing by an element of ``γ(F)``
    produce the same embedded set.
    """
    center = target_config.center
    rel = sorted((p - center for p in target_config.points),
                 key=lambda p: tuple(canonical_round(p, 9).tolist()))
    first = next((r for r in rel if np.linalg.norm(r) > DEFAULT_TOL.coincidence_slack(1.0)),
                 None)
    if first is None:
        raise EmbeddingError("degenerate target has no frame")
    w = first / np.linalg.norm(first)
    for r in rel:
        perp = r - float(np.dot(r, w)) * w
        if np.linalg.norm(perp) > DEFAULT_TOL.abs_tol * max(
                target_config.radius, 1.0):
            u = perp / np.linalg.norm(perp)
            v = np.cross(w, u)
            return np.column_stack([u, v, w])
    raise EmbeddingError("collinear target has no canonical frame")


def _embed_with_frames(config: Configuration,
                       target_config: Configuration) -> list[np.ndarray]:
    frame_p = _canonical_frame(config)
    frame_f = _frame_for_target(target_config)
    rotation = frame_p @ frame_f.T
    return _place(config, target_config, rotation)


def _place(config: Configuration, target_config: Configuration,
           rotation: np.ndarray) -> list[np.ndarray]:
    """Apply rotation, then scale/translate so ``B(F̃) = B(P)``."""
    scale = config.radius / target_config.radius
    c_f = target_config.center
    c_p = config.center
    return [c_p + scale * (rotation @ (p - c_f))
            for p in target_config.points]


# ----------------------------------------------------------------------
# Cyclic groups: axis + reference polygon (meridian) alignment
# ----------------------------------------------------------------------
def _reference_meridian(config: Configuration, axis: np.ndarray,
                        group: RotationGroup) -> np.ndarray:
    """The paper's reference polygon, reduced to a meridian direction.

    Every free orbit of a cyclic group is a regular k-gon in a plane
    perpendicular to the axis; projecting a vertex of the first
    (agreed-order) free orbit onto the equator plane yields a meridian
    direction.  The choice among the k vertices is absorbed by the
    C_k-invariance of the embedded pattern.
    """
    orbits = ordered_orbits(config, group)
    center = config.center
    slack = DEFAULT_TOL.geometric_slack(config.radius)
    for orbit in orbits:
        p = config.points[orbit[0]] - center
        perp = p - float(np.dot(p, axis)) * axis
        if float(np.linalg.norm(perp)) > slack:
            return perp / np.linalg.norm(perp)
    raise EmbeddingError("no off-axis orbit to define a reference polygon")


def _cyclic_alignments(config: Configuration, group: RotationGroup,
                       target_config: Configuration,
                       witness: RotationGroup) -> list[list[np.ndarray]]:
    axis_p = group.axes[0].direction
    oriented_p = oriented_axis_direction(config, axis_p, group)
    axis_f = witness.axes[0].direction
    oriented_f = oriented_axis_direction(target_config, axis_f,
                                         target_config.rotation_group)

    directions_p = [oriented_p] if oriented_p is not None else [axis_p,
                                                                -axis_p]
    directions_f = [oriented_f] if oriented_f is not None else [axis_f,
                                                                -axis_f]
    meridian_p = _reference_meridian(config, axis_p, group)
    candidates = []
    for d_p in directions_p:
        for d_f in directions_f:
            rotation = _axis_meridian_rotation(
                target_config, witness, d_f, d_p, meridian_p)
            candidates.append(_place(config, target_config, rotation))
    return candidates


def _axis_meridian_rotation(target_config, witness, d_f, d_p,
                            meridian_p) -> np.ndarray:
    """Rotation mapping F's (axis, meridian) onto P's (axis, meridian)."""
    meridian_f = _target_meridian(target_config, d_f)
    frame_f = _frame_from_axis(d_f, meridian_f)
    frame_p = _frame_from_axis(d_p, meridian_p)
    return frame_p @ frame_f.T


def _target_meridian(target_config: Configuration,
                     axis: np.ndarray) -> np.ndarray:
    """A deterministic meridian direction for ``F`` (target side).

    Projects the off-axis point of ``F`` with the smallest (radius,
    lexicographic) key onto the equator plane.  Choices within one
    ``W``-orbit differ by an element of ``W`` and are absorbed by the
    embedded pattern's ``C_k``-invariance; the orbit choice itself is
    deterministic because ``F`` is shared input.
    """
    center = target_config.center
    slack = DEFAULT_TOL.geometric_slack(target_config.radius)
    best = None
    best_key = None
    for p in target_config.points:
        rel = p - center
        perp = rel - float(np.dot(rel, axis)) * axis
        if float(np.linalg.norm(perp)) <= slack:
            continue
        key = (float(canonical_round(np.linalg.norm(rel), 6)),
               tuple(canonical_round(rel, 6).tolist()))
        if best_key is None or key < best_key:
            best_key = key
            best = perp / np.linalg.norm(perp)
    if best is None:
        raise EmbeddingError("target has no off-axis point for a meridian")
    return best


def _frame_from_axis(axis, meridian) -> np.ndarray:
    w = np.asarray(axis, dtype=float)
    w = w / np.linalg.norm(w)
    u = np.asarray(meridian, dtype=float)
    u = u - float(np.dot(u, w)) * w
    u = u / np.linalg.norm(u)
    v = np.cross(w, u)
    return np.column_stack([u, v, w])


# ----------------------------------------------------------------------
# Dihedral/polyhedral groups: finite arrangement alignments
# ----------------------------------------------------------------------
def _arrangement_alignments(config: Configuration, group: RotationGroup,
                            target_config: Configuration,
                            witness: RotationGroup
                            ) -> list[list[np.ndarray]]:
    """All placements from rotations mapping ``W``'s axes onto ``G``'s.

    Candidate rotations are generated by aligning a reference axis
    pair of ``W`` with every compatible axis pair of ``G``; rotations
    that map the whole arrangement (every axis onto an equal-fold
    axis) survive, and the distinct embedded sets are returned.
    """
    a1, a2 = _reference_axis_pair(witness)
    dot_ref = float(np.dot(a1.direction, a2.direction))
    rotations = []
    for b1 in group.axes:
        if b1.fold != a1.fold:
            continue
        for s1 in (1.0, -1.0):
            d1 = s1 * b1.direction
            for b2 in group.axes:
                if b2.fold != a2.fold:
                    continue
                for s2 in (1.0, -1.0):
                    d2 = s2 * b2.direction
                    if (abs(abs(float(np.dot(d1, d2))) - abs(dot_ref))
                            > DEFAULT_TOL.geometric_slack(1.0)):
                        continue
                    if (abs(float(np.dot(d1, d2)) - dot_ref)
                            > DEFAULT_TOL.geometric_slack(1.0)):
                        continue
                    rot = _rotation_from_axis_pairs(
                        a1.direction, a2.direction, d1, d2)
                    if rot is None:
                        continue
                    if _maps_arrangement(rot, witness, group):
                        rotations.append(rot)
    placements = []
    seen: set[tuple] = set()
    for rot in rotations:
        placed = _place(config, target_config, rot)
        key = tuple(sorted(tuple(canonical_round(p, 5).tolist())
                           for p in placed))
        if key not in seen:
            seen.add(key)
            placements.append(placed)
    return placements


def _reference_axis_pair(witness: RotationGroup):
    """Two non-parallel axes of the witness (highest folds first)."""
    axes = sorted(witness.axes, key=lambda a: (-a.fold, a.line_key()))
    first = axes[0]
    for other in axes[1:]:
        cross = np.cross(first.direction, other.direction)
        if float(np.linalg.norm(cross)) > 0.1 * DEFAULT_TOL.abs_tol:
            return first, other
    raise EmbeddingError("witness arrangement has fewer than two axes")


def _rotation_from_axis_pairs(a1, a2, b1, b2) -> np.ndarray | None:
    n_a = np.cross(a1, a2)
    n_b = np.cross(b1, b2)
    if (float(np.linalg.norm(n_a)) < AXIS_NORM_FLOOR
            or float(np.linalg.norm(n_b)) < AXIS_NORM_FLOOR):
        return None
    frame_a = _frame_from_axis(n_a, a1)
    frame_b = _frame_from_axis(n_b, b1)
    return frame_b @ frame_a.T


def _maps_arrangement(rot: np.ndarray, witness: RotationGroup,
                      group: RotationGroup) -> bool:
    """True if ``rot`` maps every axis of ``W`` onto a ``G`` axis of
    equal fold (so ``rot W rotᵀ = G`` as arrangements)."""
    for axis in witness.axes:
        image = rot @ axis.direction
        target = group.axis_for_line(image)
        if target is None or target.fold != axis.fold:
            return False
    return True


# ----------------------------------------------------------------------
# Canonical candidate selection (equivariant in P)
# ----------------------------------------------------------------------
def _pick_canonical(config: Configuration,
                    candidates: list[list[np.ndarray]]) -> list[np.ndarray]:
    """Choose among finitely many embeddings by a joint signature.

    The signature uses only distances between robots and embedded
    points (rotation invariant), so all robots rank the candidates
    identically regardless of local frames.
    """
    if len(candidates) == 1:
        return candidates[0]
    scored = []
    for placed in candidates:
        profile = []
        for f in placed:
            distances = sorted(
                float(canonical_round(np.linalg.norm(f - p), 6))
                for p in config.points)
            profile.append(tuple(distances))
        profile.sort()
        scored.append((tuple(profile), placed))
    scored.sort(key=lambda item: item[0])
    best_key = scored[0][0]
    ties = [placed for key, placed in scored if key == best_key]
    if len(ties) > 1 and not _all_same_set(ties):
        # Distance profiles are reflection-blind: mirror-image
        # candidates tie whenever P is achiral.  Separate them with a
        # handedness-aware signature (triple products are preserved by
        # rotations but flip under reflections).
        chiral = sorted(((_chiral_signature(config, placed), placed)
                         for placed in ties), key=lambda item: item[0])
        best_chiral = chiral[0][0]
        chiral_ties = [placed for key, placed in chiral
                       if key == best_chiral]
        if len(chiral_ties) > 1 and not _all_same_set(chiral_ties):
            raise EmbeddingError(
                "ambiguous target embedding (signature tie)")
        return chiral[0][1]
    return scored[0][1]


def _chiral_signature(config: Configuration,
                      placed: list[np.ndarray]) -> tuple:
    """Rotation-invariant, reflection-sensitive joint signature.

    For every embedded point ``f`` and every pair of robots ``p, q``
    the triple product ``det[f-c, p-c, q-c]`` is recorded alongside the
    distances that identify the triple; the pair is put in a canonical
    order by its distance key so the determinant's sign is well
    defined.
    """
    center = config.center
    rel_p = [p - center for p in config.points]
    keys_p = [(float(canonical_round(np.linalg.norm(r), 6)),) for r in rel_p]
    profile = []
    for f in placed:
        rel_f = f - center
        entries = []
        for i, p in enumerate(rel_p):
            for j in range(i + 1, len(rel_p)):
                q = rel_p[j]
                key_i = (float(canonical_round(np.linalg.norm(rel_f - p), 6)),
                         keys_p[i][0])
                key_j = (float(canonical_round(np.linalg.norm(rel_f - q), 6)),
                         keys_p[j][0])
                if key_i < key_j:
                    first, second = p, q
                    key_a, key_b = key_i, key_j
                else:
                    first, second = q, p
                    key_a, key_b = key_j, key_i
                det = float(np.linalg.det(
                    np.column_stack([rel_f, first, second])))
                if key_i == key_j:
                    # The pair order is ambiguous; only the magnitude
                    # is well defined.
                    det = abs(det)
                entries.append((key_a, key_b,
                                float(canonical_round(det, 5))))
        entries.sort()
        profile.append((float(canonical_round(np.linalg.norm(rel_f), 6)),
                        tuple(entries)))
    profile.sort()
    return tuple(profile)


def _all_same_set(placements: list[list[np.ndarray]]) -> bool:
    keys = set()
    for placed in placements:
        keys.add(tuple(sorted(tuple(canonical_round(p, 5).tolist())
                              for p in placed)))
    return len(keys) == 1
