"""Experiment drivers behind the benchmark harness.

Each driver runs one of DESIGN.md's experiments (the paper's figures,
lemmas and theorems) and returns structured result rows; the
``benchmarks/`` scripts print them in the same shape the paper
reports, and EXPERIMENTS.md records paper-vs-measured.

The public entrypoint is the :mod:`repro.api` façade's
``run_experiment(name, spec)`` registry; the ``_*_rows`` functions
here are the raw drivers it dispatches to.

The randomized sweeps accept a ``jobs`` parameter: independent trials
fan out over a process pool (:func:`repro.perf.parallel_map`).  Every
trial derives its RNG from its own ``SeedSequence`` child stream
(:func:`repro.perf.spawn_seeds` — the old ``default_rng(seed + t)``
convention collided across adjacent experiment seeds) and starts from
cleared congruence caches, so the returned rows are bit-identical for
any ``jobs`` value, including the inline ``jobs=1`` reference path.

Trial inputs travel pickled: every trial item carries its pattern
points (a few kilobytes; pickling writes a pattern shared by the
items of one chunk once).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.configuration import Configuration
from repro.core.formability import formability_report
from repro.core.symmetricity import symmetricity
from repro.errors import EmbeddingError
from repro.groups.subgroups import is_abstract_subgroup
from repro.patterns import polyhedra
from repro.patterns.library import compose_shells, named_pattern
from repro.robots.adversary import random_frames, symmetric_frames
from repro.robots.algorithms.go_to_center import go_to_center_algorithm
from repro.robots.algorithms.pattern_formation import (
    make_pattern_formation_algorithm,
)
from repro.robots.algorithms.sym import is_sym_terminal, psi_sym
from repro.robots.scheduler import FsyncScheduler

__all__ = ["GOC_POLYHEDRA"]

GOC_POLYHEDRA = [
    "tetrahedron", "octahedron", "cube", "cuboctahedron",
    "icosahedron", "dodecahedron", "icosidodecahedron",
]


def _points_of(points) -> list[np.ndarray]:
    """A trial item's pattern as a fresh list of float points."""
    return [np.array(row, dtype=float) for row in points]


def _lemma7_trial(payload):
    pattern, stream = payload
    points = _points_of(pattern)
    frames = random_frames(len(points), np.random.default_rng(stream))
    scheduler = FsyncScheduler(go_to_center_algorithm, frames)
    after = Configuration(scheduler.step(Configuration(points)))
    return after.symmetry.spec


def _lemma7_rows(trials: int = 10, seed: int = 0,
                 jobs: int = 1) -> list[dict]:
    """One go-to-center step from each of the seven polyhedra.

    Lemma 7 claims ``γ(P') ∈ ϱ(P)`` after a single synchronized step;
    each row records the distribution of ``γ(P')`` over random local
    frames and whether every outcome lies in ``ϱ(P)``.
    """
    from repro.perf import parallel_map, spawn_seeds

    streams = spawn_seeds(seed, len(GOC_POLYHEDRA) * trials)
    patterns = [named_pattern(name) for name in GOC_POLYHEDRA]
    items = [(patterns[i], streams[i * trials + t])
             for i in range(len(GOC_POLYHEDRA)) for t in range(trials)]
    specs = parallel_map(_lemma7_trial, items, jobs=jobs)
    rows = []
    for row_index, name in enumerate(GOC_POLYHEDRA):
        rho = symmetricity(Configuration(named_pattern(name)))
        outcomes: dict[str, int] = {}
        all_in_rho = True
        for spec in specs[row_index * trials:(row_index + 1) * trials]:
            outcomes[str(spec)] = outcomes.get(str(spec), 0) + 1
            if spec not in rho.specs:
                all_in_rho = False
        rows.append({
            "polyhedron": name,
            "rho_maximal": [str(s) for s in rho.maximal],
            "gamma_after": dict(sorted(outcomes.items())),
            "all_in_rho": all_in_rho,
        })
    return rows


def _theorem41_cases() -> list[tuple[str, list[np.ndarray]]]:
    cases = [(name, named_pattern(name)) for name in GOC_POLYHEDRA]
    cases += [
        ("cube+octahedron", compose_shells(
            named_pattern("octahedron"), named_pattern("cube"))),
        ("square pyramid", named_pattern("square_pyramid")),
        ("pentagonal prism", named_pattern("pentagonal_prism")),
        ("pyramid C5", polyhedra.pyramid(5)),
        ("tetra+cube+octa", compose_shells(
            named_pattern("tetrahedron"), named_pattern("cube"),
            named_pattern("octahedron"))),
        ("icosa+dodeca", compose_shells(
            named_pattern("icosahedron"), named_pattern("dodecahedron"))),
    ]
    return cases


def _theorem41_trial(payload):
    pattern, stream = payload
    points = _points_of(pattern)
    frames = random_frames(len(points), np.random.default_rng(stream))
    scheduler = FsyncScheduler(psi_sym, frames)
    result = scheduler.run(points, stop_condition=is_sym_terminal,
                           max_rounds=20)
    final = result.final
    return {
        "spec": final.symmetry.spec,
        "rounds": result.rounds,
        "reached": result.reached,
        "polygon_exception": _is_regular_polygon_exception(final),
    }


def _theorem41_rows(trials: int = 5, seed: int = 0,
                    jobs: int = 1) -> list[dict]:
    """``ψ_SYM`` terminates with ``γ(P') ∈ ϱ(P)`` within 7 steps."""
    from repro.perf import parallel_map, spawn_seeds

    cases = _theorem41_cases()
    streams = spawn_seeds(seed, len(cases) * trials)
    items = [(cases[case_index][1], streams[case_index * trials + t])
             for case_index in range(len(cases))
             for t in range(trials)]
    trial_rows = parallel_map(_theorem41_trial, items, jobs=jobs)
    rows = []
    for case_index, (name, points) in enumerate(cases):
        rho = symmetricity(Configuration(points))
        max_rounds_seen = 0
        ok = True
        outcomes: dict[str, int] = {}
        for trial in trial_rows[case_index * trials:
                                (case_index + 1) * trials]:
            max_rounds_seen = max(max_rounds_seen, trial["rounds"])
            spec = trial["spec"]
            outcomes[str(spec)] = outcomes.get(str(spec), 0) + 1
            in_rho = spec in rho.specs or trial["polygon_exception"]
            ok = ok and trial["reached"] and in_rho
        rows.append({
            "initial": name,
            "n": len(points),
            "rho_maximal": [str(s) for s in rho.maximal],
            "gamma_final": dict(sorted(outcomes.items())),
            "max_rounds": max_rounds_seen,
            "bound_7_holds": max_rounds_seen <= 7,
            "gamma_in_rho": ok,
        })
    return rows


def _is_regular_polygon_exception(config: Configuration) -> bool:
    from repro.geometry.polygons import regular_polygon_fold

    return regular_polygon_fold(config.points) is not None


def _theorem11_instances() -> list[tuple[str, list, str, list]]:
    rng = np.random.default_rng(99)
    gen8 = [rng.normal(size=3) for _ in range(8)]
    gen12 = [rng.normal(size=3) for _ in range(12)]
    return [
        ("cube", named_pattern("cube"),
         "octagon", named_pattern("octagon")),
        ("cube", named_pattern("cube"),
         "square antiprism", named_pattern("square_antiprism")),
        ("cube", named_pattern("cube"), "generic 8", gen8),
        ("generic 8", gen8, "cube", named_pattern("cube")),
        ("octagon", named_pattern("octagon"),
         "cube", named_pattern("cube")),
        ("square antiprism", named_pattern("square_antiprism"),
         "cube", named_pattern("cube")),
        ("icosahedron", named_pattern("icosahedron"),
         "cuboctahedron", named_pattern("cuboctahedron")),
        ("cuboctahedron", named_pattern("cuboctahedron"),
         "icosahedron", named_pattern("icosahedron")),
        ("generic 12", gen12,
         "icosahedron", named_pattern("icosahedron")),
        ("hexagonal prism", polyhedra.prism(6),
         "hexagonal antiprism", polyhedra.antiprism(6)),
        ("octahedron", named_pattern("octahedron"),
         "hexagon", polyhedra.regular_polygon_pattern(6)),
        ("octahedron", named_pattern("octahedron"),
         "triangular prism", polyhedra.prism(3)),
    ]


@dataclass
class Theorem11Row:
    """One instance of the characterization sweep."""

    initial: str
    target: str
    predicted_formable: bool
    formed_random: bool | None = None
    formed_worst_case: bool | None = None
    lower_bound_held: bool | None = None
    rounds: int | None = None

    @property
    def consistent(self) -> bool:
        """Does the observed behaviour match Theorem 1.1?"""
        if self.predicted_formable:
            return bool(self.formed_random) and (
                self.formed_worst_case is not False)
        return self.lower_bound_held is not False


def _theorem11_instance_row(payload) -> Theorem11Row:
    p_name, f_name, p_pattern, f_pattern, stream = payload
    p_points = _points_of(p_pattern)
    f_points = _points_of(f_pattern)
    # Three independent child streams, one per randomized probe, so
    # adding or skipping a probe never shifts another's draws.
    random_stream, worst_stream, bound_stream = stream.spawn(3)
    initial = Configuration(p_points)
    target = Configuration(f_points)
    report = formability_report(initial, target)
    row = Theorem11Row(initial=p_name, target=f_name,
                       predicted_formable=report.formable)
    if report.formable:
        row.formed_random, row.rounds = _run_formation(
            initial, f_points, random_frames(
                len(p_points), np.random.default_rng(random_stream)))
        witness_spec = report.initial_symmetricity.maximal[0]
        witness = report.initial_symmetricity.witness(witness_spec)
        if witness is not None:
            frames = symmetric_frames(initial, witness,
                                      np.random.default_rng(worst_stream))
            row.formed_worst_case, _ = _run_formation(
                initial, f_points, frames)
    else:
        row.lower_bound_held = _check_lower_bound(
            initial, f_points, report, np.random.default_rng(bound_stream))
    return row


def _theorem11_rows(seed: int = 0,
                    jobs: int = 1) -> list[Theorem11Row]:
    """Both directions of Theorem 1.1 on a curated instance sweep.

    Solvable instances must be formed under random *and* worst-case
    symmetric frames; unsolvable ones must preserve ``σ(P)``'s
    blocking symmetry forever (checked for 10 rounds of ``ψ_PF``
    pressure with symmetric frames — Lemma 2's invariant).
    """
    from repro.perf import parallel_map, spawn_seeds

    instances = _theorem11_instances()
    streams = spawn_seeds(seed, len(instances))
    items = [(p_name, f_name, p_points, f_points, streams[i])
             for i, (p_name, p_points, f_name, f_points)
             in enumerate(instances)]
    return parallel_map(_theorem11_instance_row, items, jobs=jobs)


def _run_formation(initial, f_points, frames,
                   max_rounds: int = 30) -> tuple[bool, int]:
    """``ψ_PF`` from ``initial`` (points, or the built ``P(0)``) to
    ``F``: whether it formed, and in how many rounds.

    ψ_PF refusing a round (:class:`EmbeddingError`) reads as not
    formed, ``(False, -1)``; any other exception is a fault and
    propagates.
    """
    algorithm = make_pattern_formation_algorithm(f_points)
    scheduler = FsyncScheduler(algorithm, frames, target=f_points)
    try:
        result = scheduler.run(
            initial,
            stop_condition=lambda c: c.is_similar_to(f_points),
            max_rounds=max_rounds)
    except EmbeddingError:
        return False, -1
    return result.reached, result.rounds


def _check_lower_bound(initial: Configuration, f_points, report,
                       rng) -> bool:
    """Lemma 2/4: under frames with ``σ(P) = G`` for a blocking ``G``,
    every reachable configuration keeps ``γ(P(t)) ⪰ G`` and never
    becomes similar to ``F``.

    ψ_PF refusing a round (:class:`EmbeddingError`: ``γ(P) ∉ ϱ(F)``)
    keeps the bound; any other exception is a fault and propagates.
    """
    blocking = [g for g in report.blocking
                if report.initial_symmetricity.witness(g) is not None]
    if not blocking:
        return True
    spec = sorted(blocking)[-1]
    witness = report.initial_symmetricity.witness(spec)
    frames = symmetric_frames(initial, witness, rng)
    algorithm = make_pattern_formation_algorithm(f_points)
    scheduler = FsyncScheduler(algorithm, frames, target=f_points)
    config = initial
    for _ in range(10):
        try:
            points = scheduler.step(config)
        except EmbeddingError:
            return True  # the algorithm rejected the instance: fine
        config = Configuration(points)
        if config.is_similar_to(f_points):
            return False
        gamma = config.symmetry
        if gamma.kind == "finite" and not is_abstract_subgroup(
                spec, gamma.group.spec):
            return False
    return True


_FIGURE1_TARGETS = ("octagon", "square_antiprism")


def _figure1_trial(payload):
    cube_pattern, target_pattern, stream = payload
    cube = _points_of(cube_pattern)
    target = _points_of(target_pattern)
    frames = random_frames(len(cube), np.random.default_rng(stream))
    return _run_formation(cube, target, frames)


def _figure1_rows(trials: int = 5, seed: int = 0,
                  jobs: int = 1) -> list[dict]:
    """Figure 1 — cube to regular octagon / square antiprism."""
    from repro.perf import parallel_map, spawn_seeds

    cube = named_pattern("cube")
    streams = spawn_seeds(seed, len(_FIGURE1_TARGETS) * trials)
    targets = [named_pattern(name) for name in _FIGURE1_TARGETS]
    items = [(cube, targets[i], streams[i * trials + t])
             for i in range(len(_FIGURE1_TARGETS))
             for t in range(trials)]
    outcomes = parallel_map(_figure1_trial, items, jobs=jobs)
    rows = []
    for row_index, target_name in enumerate(_FIGURE1_TARGETS):
        target = named_pattern(target_name)
        formed = 0
        rounds = []
        for ok, r in outcomes[row_index * trials:(row_index + 1) * trials]:
            formed += int(ok)
            rounds.append(r)
        initial = Configuration(cube)
        rho_p = symmetricity(initial)
        rho_f = symmetricity(Configuration(target))
        rows.append({
            "target": target_name,
            "gamma_P": str(initial.rotation_group.spec),
            "gamma_F": str(Configuration(target).rotation_group.spec),
            "rho_P": [str(s) for s in rho_p.maximal],
            "rho_F": [str(s) for s in rho_f.maximal],
            "formed": formed,
            "trials": trials,
            "rounds": rounds,
        })
    return rows


def _plane_formation_rows(seed: int = 0) -> list[dict]:
    """The DISC 2015 predecessor on our substrate (sanity anchor)."""
    from repro.planeformation import (
        is_coplanar,
        is_plane_formable,
        make_plane_formation_algorithm,
    )

    rows = []
    for name in GOC_POLYHEDRA:
        points = named_pattern(name)
        config = Configuration(points)
        solvable = is_plane_formable(config)
        formed = None
        if solvable:
            frames = random_frames(len(points), np.random.default_rng(seed))
            scheduler = FsyncScheduler(make_plane_formation_algorithm(),
                                       frames)
            result = scheduler.run(
                points, stop_condition=lambda c: is_coplanar(c.points),
                max_rounds=20)
            formed = result.reached
        rows.append({
            "initial": name,
            "plane_formable": solvable,
            "formed": formed,
        })
    return rows


def _baseline_2d_rows(seed: int = 0) -> list[dict]:
    """The 2D divisibility characterization on a small sweep."""
    from repro.twod import (
        FsyncScheduler2D,
        is_formable_2d,
        make_formation_algorithm_2d,
        random_frames_2d,
        symmetricity_2d,
    )
    from repro.twod.formation import are_similar_2d

    def polygon(k, r=1.0, phase=0.0):
        return [np.array([r * np.cos(phase + 2 * np.pi * i / k),
                          r * np.sin(phase + 2 * np.pi * i / k)])
                for i in range(k)]

    from repro.perf import spawn_seeds

    rng = np.random.default_rng(seed)
    gen8 = [rng.normal(size=2) for _ in range(8)]
    # One SeedSequence child for the frame streams: arithmetic on the
    # seed (the old ``seed + 1``) collides with adjacent experiment
    # seeds; ``spawn`` guarantees independence (REP004).
    frame_stream = spawn_seeds(seed, 1)[0]
    instances = [
        ("two squares", polygon(4) + polygon(4, 0.6, 0.3),
         "octagon", polygon(8)),
        ("generic 8", gen8, "octagon", polygon(8)),
        ("octagon", polygon(8), "two squares",
         polygon(4) + polygon(4, 0.6, 0.3)),
        ("generic 8", gen8, "gather point", [np.zeros(2)] * 8),
        ("square+center", polygon(4) + [np.zeros(2)],
         "pentagon", polygon(5)),
    ]
    rows = []
    for p_name, p_pts, f_name, f_pts in instances:
        formable = is_formable_2d(p_pts, f_pts)
        formed = None
        if formable:
            frames = random_frames_2d(
                len(p_pts), np.random.default_rng(frame_stream))
            algo = make_formation_algorithm_2d(f_pts)
            scheduler = FsyncScheduler2D(algo, frames, target=f_pts)
            result = scheduler.run(
                p_pts,
                stop_condition=lambda pts: are_similar_2d(pts, f_pts),
                max_rounds=30)
            formed = result.reached
        rows.append({
            "initial": p_name,
            "target": f_name,
            "rho_P": symmetricity_2d(p_pts),
            "rho_F": symmetricity_2d(f_pts),
            "predicted": formable,
            "formed": formed,
        })
    return rows
