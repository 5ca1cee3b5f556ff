"""Detection of the rotation group ``γ(P)`` of a point (multi)set.

Definition 1/3 of the paper: ``γ(P)`` is the rotation group in the
five families that acts on ``P`` (preserving multiplicities) and none
of whose proper supergroups does.  All rotation axes pass through the
center ``b(P)`` of the smallest enclosing ball.

The detector enumerates *all* rotations preserving ``P``:

1. translate so ``b(P)`` is the origin and bucket distinct points into
   shells by (radius, multiplicity);
2. pick the most constrained shell; every symmetry permutes it;
3. a rotation is determined by the images of two independent points,
   so candidate rotations come from mapping a fixed reference pair
   onto compatible pairs; each candidate is verified on the full
   multiset;
4. the verified rotations form the group, which is then classified.

Degenerate inputs (all points coincident, collinear configurations
with their infinite groups) are reported explicitly.

The inner loops are batched: the distinct points live in one ``(m, 3)``
array, all candidate rotations are generated and applied with a single
einsum, and the tolerant nearest-neighbour matching that verifies each
candidate runs through one k-d tree query per batch instead of a
per-point Python scan.  A cheap probe pass over the most constrained
shell rejects most wrong candidates before the full-multiset check.

The k-d trees come from
:func:`repro.geometry.neighbors.neighbor_index`.  Two large-``n``
regimes get dedicated paths that the small-``n`` (oracle-pinned)
workloads never enter: candidate pair generation switches from the
dense ``s1 × s2`` dot matrix to k-d ball queries around a *nearest*
reference pair (:func:`_pruned_pairs`), and verification of large
candidate sets proceeds by generators plus group closure
(:func:`_verify_by_closure`) instead of checking every candidate
against the full multiset.
"""

from __future__ import annotations

import math

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.errors import DetectionError
from repro.geometry.balls import smallest_enclosing_ball
from repro.geometry.neighbors import neighbor_index
from repro.geometry.tolerance import AXIS_NORM_FLOOR, DEFAULT_TOL, Tolerance
from repro.geometry.vectors import cross
from repro.groups.axes import RotationAxis
from repro.groups.group import (
    RotationGroup,
    GroupSpec,
    batch_rotation_angles,
    element_key,
)
from repro.groups.infinite import InfiniteGroupKind, detect_collinear_kind
from repro.geometry.rotations import rotation_about_axis

__all__ = [
    "Support",
    "SymmetryReport",
    "UnitSupport",
    "align_rotation",
    "collinear_congruent",
    "congruent_rotation",
    "detect_rotation_group",
    "support_of",
]

# Cap on the number of (candidate, point) products held in memory at
# once while verifying candidate rotations; batches are chunked to it.
_VERIFY_BLOCK = 2_000_000

# Above this many anchor-shell × second-shell pairs, candidate
# generation leaves the dense dot-matrix path (which is kept
# bit-identical below the limit — every oracle-pinned workload stays
# dense) for the k-d pruned path.
_DENSE_PAIR_LIMIT = 262_144

# Candidate sets up to this size are batch-verified one by one (the
# historical, bit-stable path); larger sets use generator + closure
# verification.
_SMALL_CANDIDATES = 512

# Budgets of the large-``n`` paths; blowing either falls back to the
# exhaustive (memory-bounded) computation, never to a wrong answer.
_CLOSURE_CHECK_BUDGET = 64
_CLOSURE_PRODUCT_LIMIT = 1_000_000
_CLOSURE_FOLD_CAP = 65_536

# Largest probe subset the batched verifier uses for its cheap
# rejection pass; the probe is a necessary condition only, so the cap
# never changes a verdict.
_PROBE_CAP = 64


@dataclass
class SymmetryReport:
    """Result of symmetry detection on a point multiset.

    Attributes
    ----------
    kind:
        ``"finite"`` for the five families, ``"collinear"`` when all
        points lie on a line through the center (infinite group),
        ``"degenerate"`` when all points coincide.
    group:
        The concrete :class:`RotationGroup` (finite case only), with
        per-axis ``occupied`` flags filled in.
    center:
        ``b(P)``, center of the smallest enclosing ball.
    radius:
        ``rad(B(P))``.
    infinite_kind:
        For collinear configurations, whether the group is ``C_∞`` or
        ``D_∞``.
    line_direction:
        For collinear configurations, a unit vector along the line.
    center_occupied:
        True when a point of ``P`` sits exactly at the center.
    distinct_points / multiplicities:
        The support of the multiset and the multiplicity of each
        support point (parallel lists).
    """

    kind: str
    center: np.ndarray
    radius: float
    group: RotationGroup | None = None
    infinite_kind: InfiniteGroupKind | None = None
    line_direction: np.ndarray | None = None
    center_occupied: bool = False
    distinct_points: list = field(default_factory=list)
    multiplicities: list = field(default_factory=list)

    @property
    def spec(self) -> GroupSpec | None:
        """Group type, or None for non-finite cases."""
        return self.group.spec if self.group is not None else None

    @property
    def has_multiplicity(self) -> bool:
        """True if some point of ``P`` is occupied by several robots."""
        return any(m > 1 for m in self.multiplicities)


def _collapse_multiset(points, slack: float):
    """Distinct points with multiplicities (tolerant clustering).

    Pairs within ``slack`` are found with one k-d tree range query and
    merged by union-find (each cluster keeps its first point as the
    representative, matching the historical sequential clustering for
    the well-separated clusters the model admits).
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    n = len(pts)
    pairs = neighbor_index(pts).query_pairs(slack, output_type="ndarray")
    if pairs.size == 0:
        return pts.copy(), np.ones(n, dtype=np.int64)

    parent = np.arange(n)

    def find(i: int) -> int:
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    for i, j in pairs:
        ri, rj = find(int(i)), find(int(j))
        if ri != rj:
            # Union by min index: the representative stays the first
            # point of the cluster in input order.
            if ri < rj:
                parent[rj] = ri
            else:
                parent[ri] = rj
    roots = np.fromiter((find(k) for k in range(n)), dtype=np.int64,
                        count=n)
    reps, counts = np.unique(roots, return_counts=True)
    return pts[reps].copy(), counts.astype(np.int64)


@dataclass
class Support:
    """The distinct points of a multiset around ``b(P)``.

    Detection, the congruence cache and the similarity test ``P ≃ F``
    read it; a :class:`~repro.core.configuration.Configuration` builds
    it once.  ``kind`` is ``"degenerate"`` when every point sits at the
    center, ``"collinear"`` when all points lie on one line through it
    (``line`` is a unit vector along that line), ``"finite"`` otherwise.
    """

    ball: object
    slack: float
    distinct: np.ndarray
    mults: np.ndarray
    rel: np.ndarray
    radii: np.ndarray
    tol: Tolerance
    kind: str
    line: np.ndarray | None = None

    @cached_property
    def unit(self) -> "UnitSupport":
        """The support scaled to unit radius, with its congruence key."""
        from repro.core.signatures import congruence_signature

        scale = max(self.ball.radius, 1e-300)
        radii = self.radii / scale
        tol_key = (float(self.tol.abs_tol), float(self.tol.rel_tol))
        return UnitSupport(
            key=congruence_signature(int(self.mults.sum()), self.mults)
            + (tol_key,),
            rel=self.rel / scale, mults=self.mults, radii=radii,
            radii_sorted=np.sort(radii),
            slack=self.tol.geometric_slack(1.0))


@dataclass(frozen=True)
class UnitSupport:
    """A :class:`Support` at unit radius: what congruence compares.

    ``key`` holds only exact integers (cardinality, support size,
    sorted multiplicities) and the tolerance; the radii and points are
    compared tolerantly by :func:`congruent_rotation`.
    """

    key: tuple
    rel: np.ndarray
    mults: np.ndarray
    radii: np.ndarray
    radii_sorted: np.ndarray
    slack: float


def support_of(points, tol: Tolerance = DEFAULT_TOL, ball=None) -> Support:
    """Enclosing ball, distinct support, center-relative geometry and
    kind of a point multiset (``ball`` skips the Welzl pass)."""
    pts = np.asarray([np.asarray(p, dtype=float) for p in points],
                     dtype=float)
    if pts.size == 0:
        raise DetectionError("cannot detect symmetry of an empty set")
    if ball is None:
        ball = smallest_enclosing_ball(list(pts), tol)
    slack = tol.geometric_slack(ball.radius)
    distinct, mults = _collapse_multiset(pts, slack)
    rel = distinct - ball.center
    radii = np.linalg.norm(rel, axis=1)
    line = None
    if bool((radii <= slack).all()):
        kind = "degenerate"
    else:
        line = _common_line(rel, radii, slack)
        kind = "finite" if line is None else "collinear"
    return Support(ball=ball, slack=slack, distinct=distinct, mults=mults,
                   rel=rel, radii=radii, tol=tol, kind=kind, line=line)


def _base_report(pre: Support) -> SymmetryReport:
    """Report with the kind decided; the finite group not yet computed."""
    report = SymmetryReport(
        kind=pre.kind, center=pre.ball.center, radius=pre.ball.radius,
        distinct_points=list(pre.distinct),
        multiplicities=[int(m) for m in pre.mults])
    report.center_occupied = bool((pre.radii <= pre.slack).any())
    if pre.kind == "collinear":
        report.line_direction = pre.line
        report.infinite_kind = detect_collinear_kind(
            list(pre.rel), list(pre.mults), pre.tol)
    return report


def _finish_finite_report(report: SymmetryReport, pre: Support,
                          tol: Tolerance) -> SymmetryReport:
    """Run the full finite-group detection and attach it to ``report``."""
    scale = max(pre.ball.radius, 1.0)
    elements = _symmetry_rotations(pre.rel, pre.mults, pre.radii,
                                   pre.slack, scale)
    group = RotationGroup(elements, tol=tol)
    occupied = _axes_occupied(group.axes, pre.rel, pre.radii, pre.slack,
                              report.center_occupied)
    group.axes = [axis.with_occupied(flag)
                  for axis, flag in zip(group.axes, occupied)]
    report.group = group
    return report


def detect_rotation_group(points, tol: Tolerance = DEFAULT_TOL,
                          ball=None) -> SymmetryReport:
    """Compute ``γ(P)`` and related symmetry data for a point multiset.

    See the module docstring for the strategy.  The returned report's
    group has ``occupied`` flags set on every axis (an axis is occupied
    when its line contains a point of ``P``; a point at the center
    occupies every axis).  ``ball`` lets callers that already hold the
    smallest enclosing ball skip recomputing it.
    """
    pre = support_of(points, tol, ball)
    report = _base_report(pre)
    if report.kind != "finite":
        return report
    return _finish_finite_report(report, pre, tol)


def _common_line(rel, radii, slack: float) -> np.ndarray | None:
    """Unit direction if all points lie on one line through the origin."""
    off = radii > slack
    if not off.any():
        return None
    first = int(np.argmax(off))
    direction = rel[first] / radii[first]
    perp = np.linalg.norm(cross(direction, rel[off]), axis=1)
    if bool((perp > slack * 10).any()):
        return None
    return direction


def _axis_occupied(axis: RotationAxis, rel, radii, slack: float,
                   center_occupied: bool) -> bool:
    """True if the axis line contains a point of the configuration."""
    if center_occupied:
        return True
    perp = np.linalg.norm(cross(axis.direction, rel), axis=1)
    return bool(((radii > slack) & (perp <= 10 * slack)).any())


def _axes_occupied(axes: list[RotationAxis], rel, radii, slack: float,
                   center_occupied: bool) -> list[bool]:
    """Occupied flags for a whole axis list, chunk-batched.

    Elementwise identical to calling :func:`_axis_occupied` per axis
    (same cross products, same comparisons), but the cross products of
    all (axis, point) pairs are taken in memory-bounded blocks — for a
    ``D_n`` group at large ``n`` the per-axis loop is quadratic.
    """
    if center_occupied:
        return [True] * len(axes)
    if not axes:
        return []
    off = radii > slack
    pts = rel[off]
    if len(pts) == 0:
        return [False] * len(axes)
    dirs = np.stack([axis.direction for axis in axes])
    flags = np.zeros(len(axes), dtype=bool)
    block = max(1, _VERIFY_BLOCK // len(pts))
    large = len(dirs) * len(pts) > _DENSE_PAIR_LIMIT
    if large:
        # |u × p|² = |p|² − (u·p)² for unit u: one matmul per block
        # instead of materializing all cross products.  Gated to the
        # large regime so small (oracle-pinned) inputs keep the
        # elementwise path bit-for-bit.
        norms_sq = np.sum(pts * pts, axis=1)
        bound_sq = (10 * slack) ** 2
    for start in range(0, len(dirs), block):
        chunk = dirs[start:start + block]
        if large:
            dots = chunk @ pts.T
            perp_sq = norms_sq[None, :] - dots * dots
            flags[start:start + len(chunk)] = \
                (perp_sq <= bound_sq).any(axis=1)
        else:
            perp = np.linalg.norm(
                cross(chunk[:, None, :], pts[None, :, :]), axis=2)
            flags[start:start + len(chunk)] = \
                (perp <= 10 * slack).any(axis=1)
    return [bool(flag) for flag in flags]


def _shell_slices(radii, mults, slack: float) -> tuple[np.ndarray,
                                                       np.ndarray]:
    """Off-center points bucketed by (radius, multiplicity), as slices.

    Returns ``(idx_sorted, bounds)``: shell ``k`` is
    ``idx_sorted[bounds[k]:bounds[k + 1]]``.  Points are sorted by
    (multiplicity, radius) and split where the multiplicity changes or
    the radius gap exceeds the shell tolerance — equivalent to the
    sequential bucketing for the well-separated shells the model
    admits, without materializing one array per shell (a generic cloud
    has ~``m`` singleton shells).
    """
    idx = np.nonzero(radii > slack)[0]
    if idx.size == 0:
        return idx, np.zeros(1, dtype=np.int64)
    order = np.lexsort((radii[idx], mults[idx]))
    idx = idx[order]
    r_sorted = radii[idx]
    m_sorted = mults[idx]
    breaks = np.nonzero((np.diff(r_sorted) > 10 * slack)
                        | (np.diff(m_sorted) != 0))[0] + 1
    bounds = np.concatenate((np.zeros(1, dtype=np.int64), breaks,
                             np.asarray([idx.size], dtype=np.int64)))
    return idx, bounds


def _shells(radii, mults, slack: float) -> list[np.ndarray]:
    """Indices of distinct points grouped by (radius, multiplicity)."""
    idx_sorted, bounds = _shell_slices(radii, mults, slack)
    if idx_sorted.size == 0:
        return []
    return [idx_sorted[bounds[k]:bounds[k + 1]]
            for k in range(len(bounds) - 1)]


class _BatchVerifier:
    """Batched check that candidate rotations preserve the multiset.

    A rotation preserves ``P`` when the image of every distinct point
    lands (within ``check_slack``) on a distinct point of equal
    multiplicity.  Images of a whole batch of candidates are produced
    by one einsum and matched with one k-d tree query; a probe pass
    over the most constrained shell cheaply rejects bad candidates
    before the full check.  :meth:`first_mapping` runs the same check
    on the images of another multiset (an alignment onto ``P``).
    """

    def __init__(self, rel, mults, check_slack: float,
                 probe: np.ndarray | None = None) -> None:
        self.rel = rel
        self.mults = mults
        self.check_slack = check_slack
        self.tree = neighbor_index(rel)
        # The probe is a necessary-condition prefilter (every probe
        # point must land on an equal-multiplicity point), so any
        # subset yields identical final verdicts; capping its size
        # keeps the cheap pass cheap when the most constrained shell
        # is itself large.
        if probe is not None and len(probe) > _PROBE_CAP:
            probe = probe[:_PROBE_CAP]
        self.probe = probe if probe is not None and len(probe) < len(rel) \
            else None

    def _blocks(self, rots: np.ndarray, points, mults):
        """Per block of ``rots``: its start and which of its rotations
        map ``points`` (with ``mults``) onto this multiset."""
        m = len(points)
        block = max(1, _VERIFY_BLOCK // max(m, 1))
        for start in range(0, len(rots), block):
            chunk = rots[start:start + block]
            images = np.einsum("cij,mj->cmi", chunk, points)
            dist, idx = self.tree.query(
                images.reshape(-1, 3), k=1,
                distance_upper_bound=self.check_slack
                * (1.0 + DEFAULT_TOL.coincidence_slack(1.0)))
            dist = dist.reshape(len(chunk), m)
            idx = idx.reshape(len(chunk), m)
            good = dist <= self.check_slack
            safe = np.where(good, idx, 0)
            good &= self.mults[safe] == mults[None, :]
            yield start, good.all(axis=1)

    def _check(self, rots: np.ndarray, subset) -> np.ndarray:
        points = self.rel if subset is None else self.rel[subset]
        mults = self.mults if subset is None else self.mults[subset]
        ok = np.zeros(len(rots), dtype=bool)
        for start, good in self._blocks(rots, points, mults):
            ok[start:start + len(good)] = good
        return ok

    def first_mapping(self, rots: np.ndarray, points, mults):
        """The first of ``rots`` that maps ``points`` (with ``mults``)
        onto this multiset, or None."""
        for start, good in self._blocks(rots, points, mults):
            hits = np.nonzero(good)[0]
            if hits.size:
                return np.asarray(rots[start + int(hits[0])])
        return None

    def __call__(self, rots) -> np.ndarray:
        rots = np.asarray(rots, dtype=float).reshape(-1, 3, 3)
        if len(rots) == 0:
            return np.zeros(0, dtype=bool)
        if self.probe is not None and len(rots) > 1:
            mask = self._check(rots, self.probe)
            result = np.zeros(len(rots), dtype=bool)
            if mask.any():
                result[mask] = self._check(rots[mask], None)
            return result
        return self._check(rots, None)

    def probe_pass(self, rots) -> np.ndarray:
        """The cheap necessary-condition mask (full check still due)."""
        rots = np.asarray(rots, dtype=float).reshape(-1, 3, 3)
        if self.probe is None or len(rots) == 0:
            return np.ones(len(rots), dtype=bool)
        return self._check(rots, self.probe)

    def preserves(self, rot) -> bool:
        """Scalar convenience wrapper."""
        return bool(self(np.asarray(rot)[None])[0])


def _symmetry_rotations(rel, mults, radii, slack: float,
                        scale: float) -> list[np.ndarray]:
    """All rotations about the origin preserving the multiset."""
    check_slack = 20 * slack

    idx_sorted, bounds = _shell_slices(radii, mults, slack)
    if idx_sorted.size == 0:
        raise DetectionError("no off-center points in finite detection")
    sizes = np.diff(bounds)
    # Stable size-ascending shell order; reproduces the historical
    # ``shells.sort(key=len)`` (Python sorts are stable).
    by_size = sorted(range(len(sizes)), key=lambda k: int(sizes[k]))

    def shell(k: int) -> np.ndarray:
        return idx_sorted[bounds[k]:bounds[k + 1]]

    anchor_shell = shell(by_size[0])
    verifier = _BatchVerifier(rel, mults, check_slack, probe=anchor_shell)
    p1 = rel[anchor_shell[0]]
    r1 = float(radii[anchor_shell[0]])

    if len(anchor_shell) == 1:
        return _cyclic_about_fixed_point(p1, rel, radii, mults, slack,
                                         verifier)

    # Second reference: not parallel to p1; prefer the anchor shell.
    p2_index = second_shell = None
    for k in by_size:
        members = shell(k)
        norms = np.linalg.norm(cross(p1, rel[members]), axis=1)
        independent = np.nonzero(norms > check_slack * r1)[0]
        if independent.size:
            p2_index = int(members[independent[0]])
            second_shell = members
            break
    if p2_index is None:
        raise DetectionError("configuration unexpectedly collinear")

    dense = len(anchor_shell) * len(second_shell) <= _DENSE_PAIR_LIMIT
    if not dense:
        # Large shells: re-pick p2 as the nearest independent point to
        # p1 — a short reference pair keeps the pruning balls small —
        # and generate candidate pairs through the k-d tree.
        p2_index = _nearest_independent(p1, r1, p2_index, rel,
                                        idx_sorted, check_slack)
        second_shell = shell(_shell_of(p2_index, idx_sorted, bounds))
    p2 = rel[p2_index]
    r2 = float(radii[p2_index])
    dot12 = float(np.dot(p1, p2))
    threshold = check_slack * max(
        1.0, r1 * r2 / max(scale, AXIS_NORM_FLOOR)) * scale

    # Candidate images: anchor-shell × second-shell pairs whose inner
    # product matches the reference pair's (rotations preserve it).
    first_points = rel[anchor_shell]
    second_points = rel[second_shell]
    if dense:
        dots = first_points @ second_points.T
        ii, jj = np.nonzero(np.abs(dots - dot12) <= threshold)
        q1s, q2s = first_points[ii], second_points[jj]
    else:
        q1s, q2s = _pruned_pairs(rel, radii, anchor_shell, second_shell,
                                 dot12, threshold)
    candidates = _rotations_from_pairs(p1, p2, q1s, q2s)

    elements: dict[tuple, np.ndarray] = {}
    identity = np.eye(3)
    elements[element_key(identity)] = identity
    if len(candidates):
        # Dedupe candidates on the same rounded key used for group
        # elements, then verify the survivors.
        keys = np.round(candidates.reshape(len(candidates), 9), 5) + 0.0
        _, first_of = np.unique(keys, axis=0, return_index=True)
        unique = candidates[np.sort(first_of)]
        if len(unique) <= _SMALL_CANDIDATES:
            verified = verifier(unique)
            for rot, good in zip(unique, verified):
                if not good:
                    continue
                key = element_key(rot)
                if key not in elements:
                    elements[key] = rot
        else:
            _verify_by_closure(unique, verifier, elements)
    return list(elements.values())


def _nearest_independent(p1, r1: float, fallback: int, rel, idx_sorted,
                         check_slack: float) -> int:
    """Off-center point nearest to ``p1`` and independent of it.

    Any independent point works as the second reference — every
    symmetry maps its shell onto itself — so the pruned path picks the
    nearest one: a short reference pair means a small separation bound
    and therefore small ball queries in :func:`_pruned_pairs`.
    """
    norms = np.linalg.norm(cross(p1, rel[idx_sorted]), axis=1)
    independent = norms > check_slack * r1
    if not independent.any():
        return fallback
    cand = idx_sorted[independent]
    dists = np.linalg.norm(rel[cand] - p1, axis=1)
    return int(cand[int(np.argmin(dists))])


def _shell_of(index: int, idx_sorted, bounds) -> int:
    """Shell number (into ``bounds``) holding a distinct-point index."""
    pos = int(np.nonzero(idx_sorted == index)[0][0])
    return int(np.searchsorted(bounds, pos, side="right") - 1)


def _pruned_pairs(rel, radii, anchor_shell, second_shell, dot12: float,
                  threshold: float):
    """Candidate ``(q1, q2)`` image pairs via ball queries.

    A rotation maps the reference pair onto a pair with the same inner
    product, so ``⟨q1, q2⟩ ≥ dot12 − threshold`` bounds the separation
    ``‖q1 − q2‖²  ≤ r1max² + r2max² − 2(dot12 − threshold)`` — valid
    partners of ``q1`` lie inside that ball.  The exact dense predicate
    is re-applied to the retrieved superset, so the surviving pairs
    coincide with the dense path's.  A retrieval budget guards
    adversarial geometry; blowing it falls back to the blocked dense
    sweep, never to a wrong answer.
    """
    first_points = rel[anchor_shell]
    second_points = rel[second_shell]
    r1max = float(radii[anchor_shell].max())
    r2max = float(radii[second_shell].max())
    sep_sq = r1max * r1max + r2max * r2max - 2.0 * (dot12 - threshold)
    if sep_sq <= 0.0:
        return _dense_pairs_blocked(first_points, second_points, dot12,
                                    threshold)
    radius = math.sqrt(sep_sq) * (1.0 + AXIS_NORM_FLOOR)
    tree = neighbor_index(second_points)
    hits = tree.query_ball_point(first_points, radius)
    counts = [len(h) for h in hits]
    total = sum(counts)
    if total > 64 * len(first_points) + 65_536:
        return _dense_pairs_blocked(first_points, second_points, dot12,
                                    threshold)
    if total == 0:
        return np.zeros((0, 3)), np.zeros((0, 3))
    ii = np.repeat(np.arange(len(first_points)), counts)
    jj = np.concatenate([np.asarray(h, dtype=np.int64) for h in hits
                         if len(h)])
    q1s = first_points[ii]
    q2s = second_points[jj]
    dots = np.einsum("ij,ij->i", q1s, q2s)
    keep = np.abs(dots - dot12) <= threshold
    return q1s[keep], q2s[keep]


def _dense_pairs_blocked(first_points, second_points, dot12: float,
                         threshold: float):
    """The dense pair predicate in memory-bounded blocks."""
    n2 = len(second_points)
    block = max(1, _VERIFY_BLOCK // max(n2, 1))
    parts_i, parts_j = [], []
    for start in range(0, len(first_points), block):
        chunk = first_points[start:start + block]
        dots = chunk @ second_points.T
        ii, jj = np.nonzero(np.abs(dots - dot12) <= threshold)
        parts_i.append(chunk[ii])
        parts_j.append(second_points[jj])
    if not parts_i:
        return np.zeros((0, 3)), np.zeros((0, 3))
    return np.concatenate(parts_i), np.concatenate(parts_j)


def _absorb(elements: dict, rot: np.ndarray) -> None:
    """Close ``elements`` under a newly verified rotation.

    Products of symmetries are symmetries, so everything added here is
    certified without touching the multiset: the powers of ``rot``
    (which absorb its whole cyclic subgroup) and one round of products
    with the already-verified elements.  Both expansions are capped —
    the caps only cost extra individual checks later, never soundness.
    """
    key = element_key(rot)
    if key in elements:
        return
    elements[key] = rot
    # Powers of the new element (they absorb its whole cyclic
    # subgroup).  Built from the axis-angle form, not a multiply
    # chain: repeated multiplication accumulates angle drift that,
    # once a power lands near a half turn, pushes the classifier's
    # axis extraction off the principal line.  Half turns themselves
    # need no expansion (their square is the identity).
    w = np.array([rot[2, 1] - rot[1, 2],
                  rot[0, 2] - rot[2, 0],
                  rot[1, 0] - rot[0, 1]])
    twice_sin = float(np.linalg.norm(w))
    if twice_sin > AXIS_NORM_FLOOR:
        axis = w / twice_sin
        theta = math.atan2(0.5 * twice_sin,
                           0.5 * (float(np.trace(rot)) - 1.0))
        for k in range(2, _CLOSURE_FOLD_CAP + 2):
            power = rotation_about_axis(axis, k * theta)
            pkey = element_key(power)
            if pkey in elements:
                break
            elements[pkey] = power
    existing = list(elements.values())
    if 2 * len(existing) > _CLOSURE_PRODUCT_LIMIT:
        return
    for g in existing:
        for h in (g @ rot, rot @ g):
            hkey = element_key(h)
            if hkey not in elements:
                elements[hkey] = h


def _verify_by_closure(candidates: np.ndarray, verifier: _BatchVerifier,
                       elements: dict) -> None:
    """Verify a large candidate set via generators plus closure.

    Candidates are processed in ascending rotation-angle order: the
    smallest verified angle about the principal axis generates its
    whole cyclic subgroup, so one full-multiset check absorbs most of
    the remaining candidates through :func:`_absorb`.  The cheap
    probe prefilter runs over the whole set first so the budgeted
    full checks are spent on plausible generators, not on spurious
    small-angle candidates.  Whatever survives the budget unabsorbed
    is batch-verified wholesale, so the budget bounds time, not
    correctness.
    """
    angles = batch_rotation_angles(candidates)
    order = np.argsort(angles)
    plausible = verifier.probe_pass(candidates)
    checks = 0
    leftover = []
    for pos in order:
        if not plausible[int(pos)]:
            continue
        rot = candidates[int(pos)]
        if element_key(rot) in elements:
            continue
        if checks >= _CLOSURE_CHECK_BUDGET:
            leftover.append(rot)
            continue
        checks += 1
        if verifier.preserves(rot):
            _absorb(elements, rot)
    remaining = [rot for rot in leftover
                 if element_key(rot) not in elements]
    if remaining:
        stack = np.stack(remaining)
        for rot, good in zip(stack, verifier(stack)):
            if good:
                _absorb(elements, rot)


def _cyclic_about_fixed_point(p1, rel, radii, mults, slack, verifier):
    """All symmetries fix ``p1``: the group is cyclic about its axis."""
    axis = p1 / float(np.linalg.norm(p1))
    off = np.linalg.norm(cross(axis, rel), axis=1) > 10 * slack
    idx_sorted, bounds = _shell_slices(radii, mults, slack)
    if idx_sorted.size:
        shell_sums = np.add.reduceat(off[idx_sorted].astype(np.int64),
                                     bounds[:-1])
        off_counts = [int(s) for s in shell_sums if s > 0]
    else:
        off_counts = []
    bound = math.gcd(*off_counts) if off_counts else 1
    elements = [np.eye(3)]
    for k in range(bound, 1, -1):
        if bound % k != 0:
            continue
        rot = rotation_about_axis(axis, 2.0 * np.pi / k)
        if verifier.preserves(rot):
            for i in range(1, k):
                elements.append(rotation_about_axis(
                    axis, 2.0 * np.pi * i / k))
            break
    return elements


def _rotations_from_pairs(p1, p2, q1s, q2s) -> np.ndarray:
    """Rotations with ``R p1 = q1`` and ``R p2 = q2``, batched.

    Degenerate image pairs (parallel within float noise) are dropped;
    the result is a ``(k, 3, 3)`` stack.
    """
    n_p = cross(p1, p2)
    ln_p = float(np.linalg.norm(n_p))
    frame_p = _orthoframe(p1, n_p)
    if ln_p < AXIS_NORM_FLOOR or frame_p is None:
        return np.zeros((0, 3, 3))
    q1s = np.asarray(q1s, dtype=float).reshape(-1, 3)
    q2s = np.asarray(q2s, dtype=float).reshape(-1, 3)
    n_q = cross(q1s, q2s)
    ln_q = np.linalg.norm(n_q, axis=1)
    l_q1 = np.linalg.norm(q1s, axis=1)
    valid = (ln_q >= AXIS_NORM_FLOOR) & (l_q1 >= AXIS_NORM_FLOOR)
    if not valid.any():
        return np.zeros((0, 3, 3))
    e0 = q1s[valid] / l_q1[valid, None]
    e2 = n_q[valid] / ln_q[valid, None]
    e1 = cross(e2, e0)
    frames_q = np.stack([e0, e1, e2], axis=2)
    return frames_q @ frame_p.T


def _orthoframe(x, n) -> np.ndarray | None:
    lx = float(np.linalg.norm(x))
    ln = float(np.linalg.norm(n))
    if lx < AXIS_NORM_FLOOR or ln < AXIS_NORM_FLOOR:
        return None
    e0 = x / lx
    e2 = n / ln
    e1 = cross(e2, e0)
    return np.column_stack([e0, e1, e2])


def align_rotation(src_rel, src_mults, src_radii,
                   dst_rel, dst_mults, dst_radii,
                   slack: float, scale: float = 1.0) -> np.ndarray | None:
    """A rotation ``R`` with ``R · src ≈ dst`` as multisets, or None.

    Both point sets are given relative to their centers (distinct
    points with parallel multiplicity arrays).  Candidates come from
    mapping a reference pair of ``src`` onto compatible pairs of
    ``dst`` — same pair-generation and batched verification as
    :func:`detect_rotation_group`, so a returned rotation is certified
    on the whole multiset.  The congruence cache uses this to re-align
    a stored canonical symmetry report onto a congruent query.
    """
    src_rel = np.asarray(src_rel, dtype=float).reshape(-1, 3)
    dst_rel = np.asarray(dst_rel, dtype=float).reshape(-1, 3)
    src_mults = np.asarray(src_mults, dtype=np.int64)
    dst_mults = np.asarray(dst_mults, dtype=np.int64)
    if len(src_rel) != len(dst_rel):
        return None
    check_slack = 20 * slack

    shells = _shells(src_radii, src_mults, slack)
    if not shells:
        return None
    shells.sort(key=len)
    anchor = shells[0]
    p1 = src_rel[anchor[0]]
    r1 = float(src_radii[anchor[0]])
    p2_index = None
    for shell in [anchor] + shells[1:]:
        norms = np.linalg.norm(cross(p1, src_rel[shell]), axis=1)
        independent = np.nonzero(norms > check_slack * r1)[0]
        if independent.size:
            p2_index = int(shell[independent[0]])
            break
    if p2_index is None:
        return None  # collinear sources have no finite alignment here
    p2 = src_rel[p2_index]
    r2 = float(src_radii[p2_index])
    dot12 = float(np.dot(p1, p2))
    mult1 = int(src_mults[anchor[0]])
    mult2 = int(src_mults[p2_index])

    q1_mask = (np.abs(dst_radii - r1) <= 20 * slack) & (dst_mults == mult1)
    q2_mask = (np.abs(dst_radii - r2) <= 20 * slack) & (dst_mults == mult2)
    if not q1_mask.any() or not q2_mask.any():
        return None
    q1s = dst_rel[q1_mask]
    q2s = dst_rel[q2_mask]
    threshold = check_slack * max(
        1.0, r1 * r2 / max(scale, AXIS_NORM_FLOOR)) * scale
    if len(q1s) * len(q2s) > _DENSE_PAIR_LIMIT:
        q1c, q2c = _dense_pairs_blocked(q1s, q2s, dot12, threshold)
    else:
        dots = q1s @ q2s.T
        ii, jj = np.nonzero(np.abs(dots - dot12) <= threshold)
        q1c, q2c = q1s[ii], q2s[jj]
    if not len(q1c):
        return None
    candidates = _rotations_from_pairs(p1, p2, q1c, q2c)
    if not len(candidates):
        return None

    verifier = _BatchVerifier(dst_rel, dst_mults, check_slack)
    return verifier.first_mapping(candidates, src_rel, src_mults)


def congruent_rotation(src: UnitSupport,
                       dst: UnitSupport) -> np.ndarray | None:
    """A certified rotation ``R`` with ``R · src ≈ dst``, or None.

    The test the congruence cache serves a hit on and that
    ``Configuration.is_similar_to`` decides ``P ≃ F`` with: equal
    congruence keys, sorted unit radii within ``10 · slack``, then a
    rotation from :func:`align_rotation`, verified on the whole
    multiset.  Both supports are finite (neither collinear nor
    degenerate).
    """
    if src.key != dst.key:
        return None
    if np.abs(src.radii_sorted - dst.radii_sorted).max() > 10 * dst.slack:
        return None
    return align_rotation(src.rel, src.mults, src.radii,
                          dst.rel, dst.mults, dst.radii, dst.slack)


def collinear_congruent(first: Support, second: Support) -> bool:
    """True when two collinear supports are congruent at unit radius.

    Each multiset is read as its heights along its line, one per robot;
    a rotation can reverse the line, so the heights agree up to sign.
    """
    heights = [np.repeat(s.unit.rel @ s.line, s.mults)
               for s in (first, second)]
    if len(heights[0]) != len(heights[1]):
        return False
    bound = 10 * first.unit.slack
    mine = np.sort(heights[0])
    return any(np.abs(mine - np.sort(sign * heights[1])).max() <= bound
               for sign in (1.0, -1.0))
