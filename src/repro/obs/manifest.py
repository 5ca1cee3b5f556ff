"""Deterministic run manifests: what produced these rows?

A manifest is the audit record for one experiment run: the seed and
its ``SeedSequence`` spawn-tree shape, the cache configuration, the
package and schema versions, a digest of the rows actually produced,
the run's logical metric counters, and per-phase wall-time summaries.
:func:`deterministic_view` keeps what is a pure function of
``(experiment, spec)``: it strips the wall-clock section, the
machine-local artifact paths and the cache configuration the spec does
not set (the L1 bound and the L3 store's state), and ``tests/obs``
pins that the view is identical across ``--jobs`` values and repeat
runs.

Wall-clock data appears *only* here and in traces, never in rows
(REP005); the timing values come from the tracer, which reads the
audited clock (:mod:`repro.obs.clock`).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "build_manifest",
    "cache_config",
    "deterministic_view",
    "jsonable_rows",
    "package_info",
    "rows_digest",
    "write_manifest",
]

MANIFEST_SCHEMA_VERSION = 1

_SEED_STRATEGY = "numpy.random.SeedSequence(root).spawn per trial"


def package_info() -> dict:
    """Name and version of the package that produced the run."""
    from repro import __version__

    return {"name": "repro", "version": __version__}


def cache_config() -> dict:
    """The cache hierarchy's configuration (not its counters)."""
    from repro.perf import cache as _cache
    from repro.perf import disk as _disk

    store = _disk.disk_cache()
    l3 = {"enabled": store is not None}
    if store is not None:
        info = store.info()
        l3["version"] = info.get("version")
    return {
        "enabled": _cache.is_enabled(),
        "l1_max_classes": _cache._MAX_CLASSES,
        "l3": l3,
    }


def rows_digest(rows) -> str:
    """SHA-256 of the rows' canonical JSON form."""
    canonical = json.dumps(rows, sort_keys=True, default=str,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def build_manifest(*, experiment: str, spec: dict, rows,
                   metrics: dict, phase_totals: dict,
                   seed_streams: int = 0,
                   artifacts: dict | None = None) -> dict:
    """Assemble the manifest for one finished run.

    ``spec`` holds the driver parameters that were actually consumed
    (trials/seed/jobs/cache as applicable); ``metrics`` is the run's
    logical-counter delta; ``phase_totals`` comes from the tracer and
    is the only wall-clock-derived section; ``seed_streams`` counts
    the ``SeedSequence`` children spawned from the root seed.
    """
    json_rows = _jsonable_rows(rows)
    manifest = {
        "schema": MANIFEST_SCHEMA_VERSION,
        "kind": "run-manifest",
        "package": package_info(),
        "experiment": experiment,
        "spec": dict(spec),
        "seeds": {
            "root": spec.get("seed"),
            "strategy": _SEED_STRATEGY,
            "streams": int(seed_streams),
        },
        "cache": cache_config(),
        "rows": {"count": len(json_rows),
                 "sha256": rows_digest(json_rows)},
        "metrics": metrics,
        "timing": {"phases": phase_totals},
    }
    if artifacts:
        manifest["artifacts"] = {name: str(path)
                                 for name, path in artifacts.items()
                                 if path is not None}
    return manifest


def jsonable_rows(rows) -> list:
    """Rows with dataclass entries expanded to plain dicts."""
    from dataclasses import asdict, is_dataclass

    return [asdict(row) if is_dataclass(row) else row for row in rows]


_jsonable_rows = jsonable_rows


def deterministic_view(manifest: dict) -> dict:
    """The manifest minus what the spec does not set: wall-clock
    timing, machine-local paths, and of the cache configuration all but
    the enablement switch.

    Two runs of the same ``(experiment, spec)`` — at any ``--jobs``
    value, with the L3 store on or off — must agree on this view
    byte-for-byte.
    """
    view = {key: value for key, value in manifest.items()
            if key not in ("timing", "artifacts")}
    view["cache"] = {"enabled": manifest["cache"]["enabled"]}
    return view


def write_manifest(path, manifest: dict) -> None:
    """Write ``manifest`` to ``path`` as sorted, indented JSON."""
    Path(path).write_text(
        json.dumps(manifest, indent=2, sort_keys=True, default=str) + "\n",
        encoding="utf-8")
