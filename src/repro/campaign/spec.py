"""Declarative campaign specs: TOML/JSON grids over ``repro.api``.

A campaign file names a list of experiments and, per experiment, the
axes to sweep (``seed``, ``trials``, ``cache``).  Any
axis may be a scalar or a list; lists expand to their cartesian
product, so::

    [[experiment]]
    name = "lemma7"
    trials = 10
    seed = [0, 1, 2]

compiles to three :class:`CampaignCell` entries — one
:class:`repro.api.ExperimentSpec` per ``(trials, seed)`` combination.
Expansion order is deterministic: experiments in declaration order,
axes in :data:`GRID_AXES` order, values in listed order.

Each cell is keyed by :func:`cell_digest`, a SHA-256 over the fields
of the cell's *pre-run* manifest spec record
(:func:`repro.api.resolved_spec_record` — the same record the run
manifest's ``deterministic_view`` will carry).  The digest is the
unit of resume (completed digests are skipped on re-run) and of
coalescing (cells with equal digests run once).  REP007 polices this
module: nothing host-, process- or clock-dependent may enter the
preimage, and ``jobs`` is deliberately excluded — pool width is an
execution detail that must not fragment the results store.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from repro.api import ExperimentSpec, experiment_names, resolved_spec_record
from repro.errors import ReproError

__all__ = [
    "CAMPAIGN_SCHEMA_VERSION",
    "GRID_AXES",
    "CampaignCell",
    "CampaignSpec",
    "campaign_from_mapping",
    "cell_cost",
    "cell_digest",
    "load_campaign",
]

CAMPAIGN_SCHEMA_VERSION = 1

#: Spec keys that expand into grid axes, in expansion order.
GRID_AXES = ("trials", "seed", "cache")

_ENTRY_KEYS = frozenset(("name",) + GRID_AXES)
_DEFAULT_KEYS = frozenset(GRID_AXES)

#: Relative cost units per experiment cell at trials=1 — number of
#: sweep cases times a rough per-trial round count.  Only the ordering
#: matters: the runner dispatches largest cells first so the pool's
#: tail is short, and ties break on the digest (deterministic).
_COST_WEIGHTS = {
    "lemma7": 7,
    "theorem41": 65,
    "theorem11": 360,
    "figure1": 30,
    "plane_formation": 70,
    "baseline_2d": 40,
}


@dataclass(frozen=True)
class CampaignCell:
    """One grid point: an experiment name plus its resolved spec.

    ``index`` is the cell's position in deterministic expansion order
    (the tie-break for everything that needs declaration order).
    """

    experiment: str
    spec: ExperimentSpec
    index: int


@dataclass(frozen=True)
class CampaignSpec:
    """A parsed campaign: named, with its expanded cell grid."""

    name: str
    cells: tuple[CampaignCell, ...]
    source: str | None = None


def load_campaign(path: str | Path) -> CampaignSpec:
    """Parse a ``.toml`` or ``.json`` campaign file.

    TOML needs ``tomllib`` (Python 3.11+) or the ``tomli`` backport;
    without either, a clear :class:`ReproError` suggests the JSON
    form, which is always supported.
    """
    path = Path(path)
    if not path.exists():
        raise ReproError(f"campaign spec {path} does not exist")
    text = path.read_text(encoding="utf-8")
    suffix = path.suffix.lower()
    if suffix == ".json":
        data = json.loads(text)
    elif suffix == ".toml":
        data = _parse_toml(text, path)
    else:
        raise ReproError(
            f"campaign spec {path} must be .toml or .json")
    if not isinstance(data, dict):
        raise ReproError(f"campaign spec {path} must be a table/object")
    return campaign_from_mapping(data, source=str(path))


def _parse_toml(text: str, path: Path) -> dict:
    try:
        import tomllib
    except ImportError:
        try:
            import tomli as tomllib  # type: ignore[no-redef]
        except ImportError:
            raise ReproError(
                f"parsing {path} needs tomllib (Python 3.11+) or the "
                f"tomli package; use the equivalent .json spec on "
                f"older interpreters") from None
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ReproError(f"campaign spec {path} is not valid TOML: "
                         f"{exc}") from exc


def campaign_from_mapping(data: dict,
                          source: str | None = None) -> CampaignSpec:
    """Compile a parsed campaign mapping into its expanded cell grid."""
    name = data.get("name", "campaign")
    if not isinstance(name, str):
        raise ReproError("campaign 'name' must be a string")
    defaults = data.get("defaults", {})
    if not isinstance(defaults, dict):
        raise ReproError("campaign 'defaults' must be a table")
    _reject_unknown_keys("defaults", defaults, _DEFAULT_KEYS)
    entries = data.get("experiment", data.get("experiments"))
    if not isinstance(entries, list) or not entries:
        raise ReproError(
            "campaign spec needs a non-empty [[experiment]] list")
    known = set(data) - {"name", "defaults", "experiment", "experiments",
                         "schema"}
    if known:
        raise ReproError(
            f"unknown campaign keys: {', '.join(sorted(known))}")
    cells: list[CampaignCell] = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise ReproError("each [[experiment]] entry must be a table")
        cells.extend(_expand_entry(entry, defaults, start=len(cells)))
    return CampaignSpec(name=name, cells=tuple(cells), source=source)


def _reject_unknown_keys(where: str, mapping: dict,
                         allowed: frozenset) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        if "jobs" in unknown:
            raise ReproError(
                f"{where}: 'jobs' is not a campaign axis — cells always "
                f"run single-process inside a worker; campaign "
                f"parallelism is the pool width (--jobs / jobs=)")
        raise ReproError(
            f"{where}: unknown keys: {', '.join(sorted(unknown))} "
            f"(allowed: {', '.join(sorted(allowed))})")


def _axis_values(entry: dict, defaults: dict, axis: str) -> list:
    value = entry.get(axis, defaults.get(axis))
    if isinstance(value, list):
        if not value:
            raise ReproError(f"axis {axis!r} must not be an empty list")
        return value
    return [value]


def _expand_entry(entry: dict, defaults: dict,
                  start: int) -> list[CampaignCell]:
    _reject_unknown_keys("experiment entry", entry, _ENTRY_KEYS)
    experiment = entry.get("name")
    if experiment not in experiment_names():
        known = ", ".join(experiment_names())
        raise ReproError(
            f"unknown experiment {experiment!r} in campaign "
            f"(known: {known})")
    combos: list[dict] = [{}]
    for axis in GRID_AXES:
        values = _axis_values(entry, defaults, axis)
        combos = [{**combo, axis: value}
                  for combo in combos for value in values]
    cells = []
    for offset, combo in enumerate(combos):
        seed = combo.get("seed")
        spec = ExperimentSpec(
            trials=combo.get("trials"),
            seed=0 if seed is None else seed,
            jobs=1,
            cache=combo.get("cache"))
        cells.append(CampaignCell(experiment=experiment, spec=spec,
                                  index=start + offset))
    return cells


def digest_preimage(cell: CampaignCell) -> dict:
    """The exact mapping hashed by :func:`cell_digest`.

    Mirrors the run manifest's ``deterministic_view``: the resolved
    spec record (trials defaults filled in), the experiment name, the
    package identity and the campaign schema version — and nothing
    else.  ``jobs`` is stripped: worker count may not change results
    (the byte-identity contract), so it may not change the key either.
    """
    from repro.obs.manifest import package_info

    record = dict(resolved_spec_record(cell.experiment, cell.spec))
    record.pop("jobs", None)
    return {
        "kind": "campaign-cell",
        "schema": CAMPAIGN_SCHEMA_VERSION,
        "package": package_info(),
        "experiment": cell.experiment,
        "spec": record,
    }


def cell_digest(cell: CampaignCell) -> str:
    """SHA-256 key of one cell's :func:`digest_preimage` (canonical
    JSON — sorted keys, compact separators)."""
    canonical = json.dumps(digest_preimage(cell), sort_keys=True,
                           separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def cell_cost(cell: CampaignCell) -> int:
    """Deterministic relative cost estimate for pool ordering."""
    record = resolved_spec_record(cell.experiment, cell.spec)
    trials = record.get("trials") or 1
    return _COST_WEIGHTS.get(cell.experiment, 50) * max(int(trials), 1)
