#!/usr/bin/env python
"""Profile one ψ_PF Look-Compute-Move round (``make profile``).

Runs a single ``FsyncScheduler.step`` of the pattern formation
algorithm ψ_PF under cProfile: a generic swarm of ``n`` robots with
random local frames forming a regular ``n``-gon, by default n = 128 —
the swarm benchmark's ``pf_ngon128`` shape.  One untimed warmup step
keeps allocator, BLAS and catalog first-touch out of the profile; the
L1 caches are cleared after it, so the profiled round computes from
scratch like the first round of a formation.  Prints the top
functions by cumulative time.

    PYTHONPATH=src python benchmarks/profile_round.py --n 128 --top 20
    PYTHONPATH=src python benchmarks/profile_round.py --per-robot

Reading it: the round's Compute is ψ_PF's, and symmetry detection
leads it: ``γ(P)``, ``γ(F)`` inside the embedding of ``F̃``, and the
``γ(F̃)`` the matching ``M(P, F̃)`` reads to order F̃'s orbits (an L1
hit on F's entry, certified by ``align_rotation``).  Local views
(``repro.core.local_views``) come after: one per ``γ(F̃)``-orbit and
one per radius-tied orbit of ``P``.  ``--per-robot`` profiles the
reference engine, which asks the round cache once per robot instead
of once per round.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats

import numpy as np


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=128,
                        help="swarm size and target n-gon (default 128)")
    parser.add_argument("--top", type=int, default=20,
                        help="rows of profile output (default 20)")
    parser.add_argument(
        "--per-robot", action="store_true",
        help="profile the per-robot reference engine instead of the "
             "batched one")
    args = parser.parse_args(argv)

    from repro import perf
    from repro.core.configuration import Configuration
    from repro.patterns.polyhedra import regular_polygon_pattern
    from repro.robots.adversary import random_frames
    from repro.robots.algorithms.pattern_formation import (
        make_pattern_formation_algorithm,
    )
    from repro.robots.scheduler import FsyncScheduler, set_batched_compute

    rng = np.random.default_rng(args.n)
    points = [rng.normal(size=3) for _ in range(args.n)]
    target = regular_polygon_pattern(args.n)
    scheduler = FsyncScheduler(make_pattern_formation_algorithm(target),
                               random_frames(args.n, rng), target=target)
    set_batched_compute(not args.per_robot)
    # warmup: first-touch allocation, BLAS init
    scheduler.step(Configuration(points))
    perf.clear_caches()
    # A fresh P(t), so the profiled round memoizes nothing from the
    # warmup.
    config = Configuration(points)

    engine = "per-robot reference" if args.per_robot else "batched"
    print(f"one {engine} psi_PF round at n={args.n} into a regular "
          f"{args.n}-gon, top {args.top} by cumulative time:")
    profiler = cProfile.Profile()
    profiler.enable()
    scheduler.step(config)
    profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative").print_stats(args.top)
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
