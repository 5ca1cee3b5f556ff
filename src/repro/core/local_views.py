"""Local views and the agreed total ordering of orbits (Theorem 3.1).

The *local view* of a robot is a coordinate-system-free encoding of the
whole configuration as seen from that robot: the innermost empty ball
``I(P)`` plays the earth, the line from ``b(P)`` through the robot is
the earth's axis, and a meridian is fixed by a robot nearest to
``I(P)``.  Robots in the same orbit of ``γ(P)`` have equal views;
robots in different orbits have different views (Property 2), which
lets all robots agree on a total ordering of the orbits.  So one view
per orbit, its first robot's (:func:`orbit_views`), stands for the
whole orbit.

All view components are scale-invariant (amplitudes are normalized by
``rad(B(P))``), so a robot computes identical views from its own local
observation regardless of its unit distance.  Because the views are
similarity-invariant *tuples*, the agreed orbit ordering is served
through the indexed round cache (:mod:`repro.perf.round`): all ``n``
robots of a round ask for the ordering of mutually congruent
configurations and share one computation.
"""

from __future__ import annotations

import numpy as np

from repro.core.configuration import Configuration
from repro.errors import ConfigurationError
from repro.geometry.tolerance import (
    ANGLE_WRAP_EPS,
    DEFAULT_TOL,
    canonical_round,
)
from repro.geometry.vectors import cross
from repro.groups.group import RotationGroup

__all__ = ["local_view", "orbit_views", "ordered_orbits"]

_DECIMALS = 6
_SLACK = DEFAULT_TOL.geometric_slack(1.0)


def _round(x: float) -> float:
    return float(canonical_round(x, _DECIMALS))


class _ViewMemo:
    """One configuration's views and the arrays every view shares.

    A view depends on its robot only through the axis; the
    centre-relative points, radii, unit vectors and inner-ball gaps are
    the same for all ``n`` views, so they are computed once.
    """

    def __init__(self, config: Configuration) -> None:
        rel = np.asarray(config.relative_points(), dtype=float)
        scale = max(config.radius, 1e-300)
        radii = np.linalg.norm(rel, axis=1) / scale
        off_axis = radii > _SLACK
        units = np.zeros_like(rel)
        units[off_axis] = rel[off_axis] / (radii[off_axis, None] * scale)
        self.rel = rel
        self.scale = scale
        self.scaled = rel / scale
        self.radii = radii
        self.units = units
        self.radii_r = canonical_round(radii, _DECIMALS)
        # A robot at b(P) encodes as (0, 0, 0): its unit vector is zero,
        # so only its rounded radius needs masking.
        self.entry_radii = np.where(off_axis, self.radii_r, 0.0)
        self.gaps = np.abs(radii - config.inner_ball.radius / scale)
        self.views: dict[int, tuple] = {}


def local_view(config: Configuration, index: int) -> tuple:
    """The local view of robot ``index`` (a comparable nested tuple).

    The view of a robot at ``b(P)`` is a sentinel smaller than every
    other view (its axis is undefined; it is alone in its orbit).

    Views are memoized on the configuration object, next to the arrays
    all of its views share.  Orbit ordering asks through
    :func:`orbit_views`, for one robot per orbit.
    """
    memo = getattr(config, "_view_memo", None)
    if memo is None:
        memo = config._view_memo = _ViewMemo(config)
    view = memo.views.get(index)
    if view is None:
        view = memo.views[index] = _compute_local_view(memo, index)
    return view


def _compute_local_view(memo: _ViewMemo, index: int) -> tuple:
    """One robot's view: the smallest over its candidate meridians.

    For a meridian through robot ``m`` every robot ``j`` encodes as a
    rounded (radius, longitude, latitude) entry, and the view is
    ``(entry[index], entry[m], sorted other entries)``.  The smallest
    candidate is picked on arrays (:func:`_best_meridian`) and only its
    view is built as tuples.

    Views are pinned bit for bit to the frozen per-candidate oracle
    (``tests/properties/round_oracle.py``), and a float one ulp off can
    round to another 6-decimal value.  So the floats that get rounded
    keep their expressions, operands and array shapes, matmul
    orientation included: BLAS may sum a product in another order for
    another shape.
    """
    own_r = float(memo.radii[index])
    if own_r <= _SLACK:
        return ((-1.0,), tuple(sorted(memo.radii_r.tolist())))
    axis = memo.rel[index] / (own_r * memo.scale)
    proj = memo.scaled @ axis
    perp = memo.scaled - proj[:, None] * axis
    perp_len = np.linalg.norm(perp, axis=1)
    candidates = _meridian_candidates(memo.gaps, perp_len)
    if candidates.size == 0:
        # Every other robot is on the axis: encode the heights only.
        heights = sorted(canonical_round(proj, _DECIMALS).tolist())
        return ((_round(own_r),), tuple(heights))

    units = memo.units
    heights = np.clip(units @ axis, -1.0, 1.0)
    latitudes = np.arcsin(heights)
    perp_units = units - heights[:, None] * axis
    perp_unit_len = np.linalg.norm(perp_units, axis=1)

    meridians = perp[candidates] / perp_len[candidates, None]   # (c, 3)
    binormals = cross(axis, meridians)                          # (c, 3)
    longitudes = np.arctan2(perp_units @ binormals.T,
                            perp_units @ meridians.T)           # (n, c)
    longitudes %= 2.0 * np.pi
    # Collapse the 2π wraparound: an angle of -1e-16 must encode as
    # 0.0, not 6.283185 (observers would differ).
    longitudes[longitudes >= 2.0 * np.pi - ANGLE_WRAP_EPS] = 0.0
    longitudes[perp_unit_len <= _SLACK, :] = 0.0

    radius_r = memo.entry_radii
    lat_r = canonical_round(latitudes, _DECIMALS)
    lon_r = canonical_round(longitudes, _DECIMALS).T            # (c, n)
    best = 0
    if len(candidates) > 1:
        best = _best_meridian(index, candidates, radius_r, lon_r, lat_r)
    meridian = int(candidates[best])
    lon_w = lon_r[best]
    order = np.lexsort((lat_r, lon_w, radius_r))
    rest = order[(order != index) & (order != meridian)]
    return ((float(radius_r[index]), float(lon_w[index]),
             float(lat_r[index])),
            (float(radius_r[meridian]), float(lon_w[meridian]),
             float(lat_r[meridian])),
            tuple(zip(radius_r[rest].tolist(), lon_w[rest].tolist(),
                      lat_r[rest].tolist())))


def _best_meridian(index: int, candidates: np.ndarray,
                   radius_r: np.ndarray, lon_r: np.ndarray,
                   lat_r: np.ndarray) -> int:
    """Position in ``candidates`` of the meridian with the smallest view.

    ``lon_r[k]`` holds every robot's rounded longitude for candidate
    ``k``; radii and latitudes do not depend on the meridian.  Views
    compare the own entry first, so only four values per candidate
    (own longitude, the meridian's radius, longitude and latitude)
    decide between candidates up to the rest.  Candidates tied on them
    sort their entries by (radius, longitude, latitude) in one stable
    ``np.lexsort`` over a ``(t, n)`` key.  With equal own and meridian
    entries, their sorted rests compare as their sorted lists of all
    entries, whose radius column is the same for every candidate.
    """
    c, n = lon_r.shape
    head = np.column_stack((lon_r[:, index], radius_r[candidates],
                            lon_r[np.arange(c), candidates],
                            lat_r[candidates]))
    tied = _smallest_rows(head)
    if len(tied) == 1:
        return int(tied[0])
    lon_t = lon_r[tied]                                         # (t, n)
    t = len(tied)
    order = np.lexsort((np.broadcast_to(lat_r, (t, n)), lon_t,
                        np.broadcast_to(radius_r, (t, n))))
    table = np.stack((lon_t[np.arange(t)[:, None], order],
                      lat_r[order]), axis=-1)                   # (t, n, 2)
    return int(tied[_smallest_rows(table.reshape(t, 2 * n))[0]])


def _meridian_candidates(gaps: np.ndarray,
                         perp_len: np.ndarray) -> np.ndarray:
    """Robots off the axis whose gap to ``I(P)`` is smallest.

    The gaps are clustered in index order: a gap more than the slack
    below the cluster's gap starts a new cluster, and one within the
    slack of it joins.  So the last cluster started wins, holding its
    first robot and every later one within the slack of that robot's
    gap.
    """
    eligible = np.flatnonzero(perp_len > _SLACK)
    if eligible.size == 0:
        return eligible
    g = gaps[eligible]
    first = 0
    while True:
        lower = np.flatnonzero(g[first + 1:] < g[first] - _SLACK)
        if lower.size == 0:
            break
        first += 1 + int(lower[0])
    return eligible[first:][np.abs(g[first:] - g[first]) <= _SLACK]


def _smallest_rows(keys: np.ndarray) -> np.ndarray:
    """Indices of the rows equal to the lexicographically smallest row."""
    alive = np.arange(keys.shape[0])
    while alive.size > 1:
        rows = keys[alive]
        differ = (rows != rows[0]).any(axis=0)
        if not differ.any():
            break
        column = rows[:, differ.argmax()]
        alive = alive[column == column.min()]
    return alive


def orbit_views(config: Configuration,
                orbits: list[list[int]]) -> list[tuple]:
    """The local view of each orbit: its first robot's view.

    Every orbit is one of a group of rotations of ``P`` about ``b(P)``
    (a subgroup of ``γ(P)``), and a rotation of ``P`` onto itself maps
    each robot's view to its image's, so all members of an orbit have
    equal views (Theorem 3.1).  One view stands for them all.
    """
    return [local_view(config, orbit[0]) for orbit in orbits]


def ordered_orbits(config: Configuration,
                   group: RotationGroup) -> list[list[int]]:
    """The agreed total ordering of the ``group``-orbits of ``P``.

    ``group`` acts on ``P`` about ``b(P)``.  Orbits are ordered
    primarily by their radius (distance from ``b(P)``), which realizes
    Property 2 (the first orbit lies on ``I(P)``, the last on
    ``B(P)``, and each next orbit lies on or outside the previous
    orbit's ball); ties are broken by the orbits' local views
    (:func:`orbit_views`, one per orbit), which differ across orbits
    by Theorem 3.1.  An orbit with a radius of its own needs no view.

    When called with the configuration's own full rotation group (the
    only caller pattern on the hot path), both the orbit partition and
    the ordering are similarity invariants — congruent configurations
    share them index-for-index — so the result is served through the
    indexed round cache and computed once per congruence class.

    Raises
    ------
    ConfigurationError
        If two distinct orbits cannot be separated (only possible for
        multisets, which the paper excludes from this agreement).
    """
    report = config.__dict__.get("symmetry")
    if getattr(report, "group", None) is group:
        from repro.perf import cached_invariant, round_view

        cached = cached_invariant(
            round_view(config), ("ordered_orbits",),
            lambda: tuple(tuple(o) for o in
                          _ordered_orbits_impl(config, group)))
        return [list(orbit) for orbit in cached]
    return _ordered_orbits_impl(config, group)


def _ordered_orbits_impl(config: Configuration,
                         group: RotationGroup) -> list[list[int]]:
    from repro.core.decomposition import orbit_decomposition

    orbits = orbit_decomposition(config, group)
    c = config.center
    scale = max(config.radius, 1e-300)

    # Sort by radius first; local views (quadratic to compute) are only
    # evaluated to break ties between orbits sharing a radius.
    by_radius: dict[float, list[list[int]]] = {}
    for orbit in orbits:
        radius = _round(
            float(np.linalg.norm(config.points[orbit[0]] - c)) / scale)
        by_radius.setdefault(radius, []).append(orbit)
    result: list[list[int]] = []
    for radius in sorted(by_radius):
        tied = by_radius[radius]
        if len(tied) == 1:
            result.extend(tied)
            continue
        keyed = sorted(zip(orbit_views(config, tied), tied))
        for (view_a, _), (view_b, _) in zip(keyed, keyed[1:]):
            if view_a == view_b:
                raise ConfigurationError(
                    "orbits are not totally ordered (multiset ambiguity)")
        result.extend(orbit for _, orbit in keyed)
    return result
