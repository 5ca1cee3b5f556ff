"""The three workloads: fixed request lists made from the seed, and checks.

Each workload is a list of requests that is a pure function of the
workload seed (and, for ``query``, of the run length), so every run of
one ``(workload, seed)`` answers the same requests:

* ``paper-grid`` — the cells of ``examples/paper.toml`` (experiment ×
  seed), each run as ``repro.api.run_experiment(name,
  ExperimentSpec(seed, trials, jobs=2))``.  The seed only shuffles the
  order.  A cell is correct when its rows hash to the digest pinned in
  ``grid_digests.json``.
* ``swarm`` — ψ_SYM runs on T/O/I swarms (on-axis shells plus free
  orbits) and ψ_PF runs from generic swarms into an n-gon and a prism.
  The swarms' shapes, the robots' order and their random local frames
  are fixed; the seed picks a similarity image of each swarm (frames
  included).
* ``query`` — formability and symmetricity queries: congruent images
  of catalog patterns, a share of them sent twice back to back, and
  freshly perturbed point sets.

Only the list generators and the digest live here; running and timing
are in :mod:`perfbench.child`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import random
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAPER_TOML = ROOT / "examples" / "paper.toml"
GRID_DIGESTS = Path(__file__).resolve().parent / "grid_digests.json"

WORKLOADS = ("paper-grid", "swarm", "query")

# paper-grid runs at the `repro experiment --jobs N` path with N = the
# two cores of the reference host.
GRID_JOBS = 2


# ---------------------------------------------------------------------------
# paper-grid
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Cell:
    """One experiment cell of the paper grid."""

    name: str
    seed: int
    trials: int | None

    @property
    def key(self) -> str:
        return f"{self.name}/seed={self.seed}/trials={self.trials}"


# The pooled set-up cell: an experiment the grid runs, at a seed the
# grid does not use.
WARMUP_CELL = Cell("lemma7", 101, 4)

_CELL_AXES = {"name", "seed", "trials"}


def grid_cells(path: Path = PAPER_TOML) -> list[Cell]:
    """The cells of a campaign file, in file order.

    List-valued axes expand to their cartesian product, as the campaign
    runner does.  Raises ``ValueError`` for an axis a cell cannot carry.
    """
    spec = tomllib.loads(Path(path).read_text())
    defaults = spec.get("defaults", {})
    cells = []
    for entry in spec["experiment"]:
        merged = {**defaults, **entry}
        unknown = set(merged) - _CELL_AXES
        if unknown:
            raise ValueError(f"unsupported campaign axes: {sorted(unknown)}")
        axes = {key: value if isinstance(value, list) else [value]
                for key, value in merged.items()}
        for values in itertools.product(*axes.values()):
            point = dict(zip(axes, values))
            trials = point.get("trials")
            cells.append(Cell(str(point["name"]), int(point["seed"]),
                              None if trials is None else int(trials)))
    return cells


# The smoke size keeps the grid's two cheapest experiments.
SMOKE_EXPERIMENTS = ("figure1", "baseline_2d")


def grid_list(seed: int, smoke: bool = False) -> list[Cell]:
    """The grid's cells in the order the seed picks."""
    cells = grid_cells()
    if smoke:
        cells = [c for c in cells if c.name in SMOKE_EXPERIMENTS][::3]
    random.Random(seed).shuffle(cells)
    return cells


def rows_sha256(rows) -> str:
    """SHA-256 of the rows' canonical JSON (dataclass rows as dicts).

    The same canonical form as ``repro.obs.manifest.rows_digest``, kept
    here so the pinned digests check the rows, not the program's digest
    code."""
    plain = [dataclasses.asdict(row) if dataclasses.is_dataclass(row)
             else row for row in rows]
    text = json.dumps(plain, sort_keys=True, default=str,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def pinned_digests() -> dict[str, str]:
    """Cell key -> the rows digest every correct run must reproduce."""
    return json.loads(GRID_DIGESTS.read_text())["cells"]


# ---------------------------------------------------------------------------
# swarm
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Formation:
    """One formation: ψ_SYM on a polyhedral swarm or ψ_PF into a target.

    For ``sym`` the ``shape`` is the rotation group (T, O or I) and
    ``size`` the number of free orbits added to the group's on-axis
    shells; for ``pf`` the shape is the target (``ngon``/``prism``) and
    ``size`` the number of robots.
    """

    algorithm: str
    shape: str
    size: int

    @property
    def key(self) -> str:
        return f"{self.algorithm}_{self.shape}{self.size}"


SWARM_SHELLS = {
    "T": ("tetrahedron", "octahedron"),
    "O": ("cube", "octahedron", "cuboctahedron"),
    "I": ("icosahedron", "dodecahedron", "icosidodecahedron"),
}

# n = 250, 986, 242, 128, 128.
SWARM_LIST = (
    Formation("sym", "T", 20),
    Formation("sym", "O", 40),
    Formation("sym", "I", 3),
    Formation("pf", "ngon", 128),
    Formation("pf", "prism", 128),
)

SMOKE_SWARM_LIST = (
    Formation("sym", "T", 2),
    Formation("pf", "ngon", 16),
)

SYM_ROUND_CAP = 20
PF_ROUND_CAP = 40

# Seeds the set-up formations' frames; no list seed reaches it.
WARMUP_SEED = 2 ** 32

# Fixes the swarms' shapes; the workload seed never reaches it.
_SHAPE_SEED = 20160725
# |cos| of a free orbit's seed direction to any axis (about 18 degrees).
_AXIS_CLEARANCE = 0.95


def _base_points(formation: Formation):
    import numpy as np

    if formation.algorithm == "pf":
        rng = np.random.default_rng([_SHAPE_SEED, formation.size])
        return rng.normal(size=(formation.size, 3))
    from repro.groups import catalog
    from repro.patterns.library import compose_shells, named_pattern

    group = {"T": catalog.tetrahedral_group,
             "O": catalog.octahedral_group,
             "I": catalog.icosahedral_group}[formation.shape]()
    shells = SWARM_SHELLS[formation.shape]
    points = [np.asarray(p, dtype=float) for p in
              compose_shells(*[named_pattern(name) for name in shells])]
    rng = np.random.default_rng([_SHAPE_SEED, len(shells), formation.size])
    # T's orbits also keep clear of O's axes: a T-orbit seeded near an
    # axis of O alone is nearly O-symmetric.
    avoid = catalog.octahedral_group() if formation.shape == "T" else group
    axes = np.asarray([axis.direction for axis in avoid.axes], dtype=float)
    axes /= np.linalg.norm(axes, axis=1)[:, None]
    first_radius = 1.0 + 0.5 * len(shells)
    for j in range(formation.size):
        # Free orbits keep clear of every rotation axis.
        while True:
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            if np.abs(axes @ direction).max() < _AXIS_CLEARANCE:
                break
        points.extend(group.orbit(direction * (first_radius + 0.37 * j)))
    return np.asarray(points, dtype=float)


def _random_rotation(rng):
    import numpy as np

    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def formation_inputs(formation: Formation, seed: int, index: int):
    """``(points, frames, target)`` of one formation for one seed.

    The robots' frames are drawn once per shape, like the shape itself,
    and the robots keep one order.  The seed picks a similarity ``g``;
    ``g`` moves the swarm and every frame alike, so each robot observes
    the same local view for every seed and all seeds do the same work.
    (ψ_SYM breaks symmetry in the robots' frames: redrawn frames change
    its path and its cost many times over, and reordering the robots
    changed its cost on the T swarm by up to 40%.)  ``target`` is
    ``None`` for ψ_SYM.
    """
    import numpy as np

    from repro.patterns import polyhedra
    from repro.robots.adversary import random_frames
    from repro.robots.model import LocalFrame

    base = _base_points(formation)
    base_frames = random_frames(len(base), np.random.default_rng(
        [_SHAPE_SEED, len(base), formation.size]))
    rng = np.random.default_rng([seed, index])
    rotation = _random_rotation(rng)
    scale = rng.uniform(0.5, 2.0)
    shift = rng.uniform(-5.0, 5.0, size=3)
    points = [scale * (rotation @ point) + shift for point in base]
    frames = [LocalFrame(rotation=rotation @ frame.rotation,
                         scale=scale * frame.scale)
              for frame in base_frames]
    target = None
    if formation.shape == "ngon":
        target = polyhedra.regular_polygon_pattern(formation.size)
    elif formation.shape == "prism":
        target = polyhedra.prism(formation.size // 2)
    return points, frames, target


# ---------------------------------------------------------------------------
# query
# ---------------------------------------------------------------------------

QUERY_CATALOG = (
    "cube", "cuboctahedron", "dodecahedron", "hexagonal_antiprism",
    "icosahedron", "icosidodecahedron", "octagon", "octahedron",
    "pentagonal_prism", "square", "square_antiprism", "square_pyramid",
    "tetrahedron", "triangle",
)

# Shares of each query segment; the rest are fresh perturbed point
# sets.  Half of the others are formability queries.
QUERY_DUPLICATE_SHARE = 0.05   # exact copy of the previous query
QUERY_CATALOG_SHARE = 0.65     # a new congruent image of a pattern
QUERY_NOISE = 0.05

# The query list is answered in segments ("passes") of this many
# queries, 1-2 s each on the reference host; the smoke size is one
# short segment.
QUERY_SEGMENT = 195
QUERY_SMOKE = 20

CONNECTIONS = 2


def _image(rows, rng, noise: float) -> tuple:
    """A random similarity image of ``rows`` (perturbed when ``noise``),
    as the immutable coordinate tuples a query carries."""
    import numpy as np

    points = np.asarray(rows, dtype=float)
    if noise:
        points = points + rng.normal(0.0, noise, size=points.shape)
    image = rng.uniform(0.5, 2.0) * points @ _random_rotation(rng).T \
        + rng.uniform(-3.0, 3.0, size=3)
    return tuple(tuple(float(c) for c in row) for row in image)


def _segment_plan() -> list[tuple[str, str, bool]]:
    """``(share, pattern, formability)`` of one segment's non-duplicate
    queries: the shares exactly, the patterns in turn and each pattern
    alternating between the two query kinds."""
    duplicates = round(QUERY_DUPLICATE_SHARE * QUERY_SEGMENT)
    catalog = round(QUERY_CATALOG_SHARE * QUERY_SEGMENT)
    fresh = QUERY_SEGMENT - duplicates - catalog
    plan = []
    for share, count in (("catalog", catalog), ("fresh", fresh)):
        for i in range(count):
            turn, index = divmod(i, len(QUERY_CATALOG))
            plan.append((share, QUERY_CATALOG[index], (i + turn) % 2 == 0))
    return plan


def query_list(seed: int, count: int) -> list[tuple[str, object]]:
    """``count`` ``(share, query)`` pairs; a prefix of any longer list.

    ``share`` is ``duplicate``, ``catalog`` or ``fresh``.  Every segment
    of ``QUERY_SEGMENT`` queries has the same make-up (``_segment_plan``
    plus the duplicates), so every seed asks for the same work; the
    seed picks the order, the images, the perturbations and the
    formability targets.
    """
    import numpy as np

    from repro.api import FormabilityQuery, SymmetricityQuery
    from repro.patterns.library import named_pattern

    patterns = {name: named_pattern(name) for name in QUERY_CATALOG}
    by_size: dict[int, list[str]] = {}
    for name in QUERY_CATALOG:
        by_size.setdefault(len(patterns[name]), []).append(name)
    plan = _segment_plan()
    duplicates = QUERY_SEGMENT - len(plan)
    rng = np.random.default_rng(seed)
    out: list[tuple[str, object]] = []
    while len(out) < count:
        segment: list = [plan[i] for i in rng.permutation(len(plan))]
        # A duplicate repeats the query before it, so none comes first.
        for _ in range(duplicates):
            segment.insert(int(rng.integers(1, len(segment) + 1)), None)
        for entry in segment:
            if entry is None:
                out.append(("duplicate", out[-1][1]))
                continue
            share, name, formability = entry
            points = _image(patterns[name], rng,
                            QUERY_NOISE if share == "fresh" else 0.0)
            if formability:
                targets = by_size[len(points)]
                target = targets[rng.integers(len(targets))]
                out.append((share, FormabilityQuery(initial=points,
                                                    target=target)))
            else:
                out.append((share, SymmetricityQuery(points=points)))
    return out[:count]


def warmup_query():
    """The untimed set-up query: a perturbed pattern outside the list."""
    import numpy as np

    from repro.api import SymmetricityQuery
    from repro.patterns.library import named_pattern

    rng = np.random.default_rng(WARMUP_SEED)
    return SymmetricityQuery(points=_image(named_pattern("cube"), rng, 0.1))
