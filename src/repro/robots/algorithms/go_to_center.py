"""Algorithm 4.1 — the *go-to-center* symmetry breaking step.

When the robots form one of the seven transitive polyhedra

    regular tetrahedron, regular octahedron, cube, cuboctahedron,
    regular icosahedron, regular dodecahedron, icosidodecahedron

(the ``U_{G,μ}`` with ``G ∈ {T, O, I}`` and ``μ > 1``), each robot
selects an adjacent face of the polyhedron and moves to the point
``ε = ℓ/100`` before the face's center (``ℓ`` = edge length), with two
restrictions: on a cuboctahedron only triangular faces may be chosen,
on an icosidodecahedron only pentagonal faces.

Lemma 7: one synchronized step lands the swarm in a configuration
``P'`` with ``γ(P') ∈ ϱ(P)`` — the 3D rotation group is broken.

The "select an adjacent face" choice is made deterministically from
the robot's *local* observation (lexicographically smallest face
center in local coordinates).  Robots with differently-oriented local
frames make different choices — this is exactly the paper's
symmetry-breaking mechanism; robots with symmetric frames make
symmetric choices and retain the unbreakable subgroup, as Lemma 2
requires.
"""

from __future__ import annotations

from types import MappingProxyType

import numpy as np

from repro.core.configuration import Configuration
from repro.errors import GeometryError
from repro.geometry.convex import ConvexPolyhedron
from repro.geometry.tolerance import DEFAULT_TOL, canonical_round
from repro.groups.group import GroupKind
from repro.robots.model import Observation

__all__ = [
    "recognize_goc_polyhedron",
    "go_to_center_destination",
    "go_to_center_algorithm",
    "EPSILON_FRACTION",
]

# The paper fixes epsilon to edge-length / 100.
EPSILON_FRACTION = 0.01

# Polyhedra handled by Algorithm 4.1, keyed by (vertex count, the
# rotation group of the vertex set as a standalone shape).  Note the
# shape group can exceed the group that generated the orbit (e.g.
# U_{T,2} is a regular octahedron whose shape group is O).
_GOC_SHAPES = MappingProxyType({
    (4, "T"): "tetrahedron",
    (6, "O"): "octahedron",
    (8, "O"): "cube",
    (12, "O"): "cuboctahedron",
    (12, "I"): "icosahedron",
    (20, "I"): "dodecahedron",
    (30, "I"): "icosidodecahedron",
})

_FACE_RESTRICTION = MappingProxyType({
    "cuboctahedron": 3,       # triangle faces only
    "icosidodecahedron": 5,   # pentagon faces only
})


def recognize_goc_polyhedron(points) -> str | None:
    """Name of the go-to-center polyhedron the points form, or None.

    Checks vertex count, sphericity, transitivity (all vertices on one
    hull orbit follows from the shape group match), and the rotation
    group of the shape.  ``points`` may be the
    :class:`Configuration` already built for them; its ball and
    symmetry report are then reused.
    """
    cfg = points if isinstance(points, Configuration) \
        else Configuration(points)
    count = cfg.n
    candidates = [name for (k, _), name in _GOC_SHAPES.items() if k == count]
    if not candidates:
        return None
    report = cfg.symmetry
    if report.kind != "finite" or report.group is None:
        return None
    spec = report.group.spec
    if spec.kind not in (GroupKind.TETRAHEDRAL, GroupKind.OCTAHEDRAL,
                         GroupKind.ICOSAHEDRAL):
        return None
    key = (count, spec.kind.value)
    name = _GOC_SHAPES.get(key)
    if name is None:
        return None
    # All seven shapes are vertex-transitive and spherical; verify the
    # radius uniformity to reject impostors with the right group.
    rel = cfg.relative_points()
    radii = [float(np.linalg.norm(p)) for p in rel]
    if max(radii) - min(radii) > DEFAULT_TOL.relative_slack(max(radii)):
        return None
    return name


def go_to_center_destination(points, own_index: int) -> np.ndarray:
    """Destination of robot ``own_index`` per Algorithm 4.1.

    ``points`` are the polyhedron's vertices in the robot's local
    coordinate system (any similarity copy works — the rule is
    similarity-equivariant).  Raises if the points are not one of the
    seven polyhedra.
    """
    pts = np.asarray(list(points), dtype=float)
    info = _goc_round_info(pts, 1.0)
    if info is None:
        raise GeometryError(
            "go-to-center applies only to the seven transitive polyhedra")
    _, admissible, edge = info  # unit radius: the ratio is the edge
    return _local_face_choice(pts, own_index, admissible[own_index],
                              edge * EPSILON_FRACTION)


def _goc_round_info(points, radius: float):
    """The frame-invariant part of Algorithm 4.1 for one round class.

    Everything here is invariant under the similarity relating two
    robots' observations of the same round: the recognized polyhedron
    name, the admissible face *vertex-index* tuples per vertex (the
    round cache's alignment is index-preserving, so hull combinatorics
    transfer verbatim), and the edge-length / circumradius ratio (a
    scale-free number that reconstitutes ``ε`` in any frame).
    """
    name = recognize_goc_polyhedron(points)
    if name is None:
        return None
    hull = ConvexPolyhedron(points)
    ratio = hull.min_edge_length() / radius
    restriction = _FACE_RESTRICTION.get(name)
    admissible = []
    for i in range(len(points)):
        faces = hull.faces_of_vertex(i)
        if restriction is not None:
            faces = [f for f in faces if f.size == restriction]
        admissible.append(tuple(f.vertex_indices for f in faces))
    return (name, tuple(admissible), float(ratio))


def _local_face_choice(points: np.ndarray, own_index: int, faces,
                       epsilon: float) -> np.ndarray:
    """The strictly-local remainder of Algorithm 4.1 for one robot.

    ``points`` are the vertices in the robot's own frame; the
    admissible ``faces`` (vertex-index tuples) and ``epsilon`` come
    from the round-class payload.  Shared verbatim by the per-robot
    and batched paths so both make the identical face choice.
    """
    if not faces:
        raise GeometryError("no admissible adjacent face found")
    own = points[own_index]
    best_key = None
    best_center = None
    for indices in faces:
        center = points[list(indices)].mean(axis=0)
        key = tuple(canonical_round(center - own, 9).tolist())
        if best_key is None or key < best_key:
            best_key, best_center = key, center
    to_center = best_center - own
    distance = float(np.linalg.norm(to_center))
    return own + to_center * (1.0 - epsilon / distance)


class _GoToCenter:
    """Algorithm 4.1 as a standalone oblivious algorithm.

    If the observed configuration is not one of the seven polyhedra
    the robot stays put (the full ``ψ_SYM`` wraps this with the other
    cases).

    The recognition and hull combinatorics are hoisted through the
    indexed round cache (:mod:`repro.perf.round`) — computed once per
    congruence class per round instead of once per robot.  The face
    *choice* stays strictly local: each robot minimizes over face
    centers expressed in its own coordinates (symmetric frames thus
    still make symmetric choices, as Lemma 2 requires).  The batched
    strategy (``compute_batch``) computes the class payload once from
    the world configuration and replays the same local face choice per
    tensor row — the polyhedra have at most 30 vertices, so the
    remainder is a short gather loop.
    """

    def __call__(self, observation: Observation) -> np.ndarray:
        from repro.perf import cached_invariant, round_view

        config = Configuration(observation.points)
        view = round_view(config)
        radius = float(config.radius)
        info = cached_invariant(
            view, ("goc",),
            lambda: _goc_round_info(config, radius))
        if info is None:
            return observation.own_position()
        _, admissible, ratio = info
        points = np.asarray(observation.points, dtype=float)
        epsilon = ratio * radius * EPSILON_FRACTION
        return _local_face_choice(points, observation.self_index,
                                  admissible[observation.self_index],
                                  epsilon)

    def compute_batch(self, batch) -> np.ndarray:
        from repro.perf import cached_invariant, round_view

        config = batch.config
        view = round_view(config)
        radius = float(config.radius)
        info = cached_invariant(
            view, ("goc",),
            lambda: _goc_round_info(config, radius))
        if info is None:
            return batch.own_rows()
        _, admissible, ratio = info
        n = batch.n
        destinations = np.empty((n, 3), dtype=float)
        for i in range(n):
            # ε in robot i's frame: the scale-free edge/radius ratio
            # times the circumradius as robot i measures it.
            epsilon = ratio * (radius / float(batch.scales[i])) \
                * EPSILON_FRACTION
            destinations[i] = _local_face_choice(
                batch.local[i], i, admissible[i], epsilon)
        return destinations


go_to_center_algorithm = _GoToCenter()
