"""The campaign results store: canonical JSONL on disk.

One store holds everything a campaign produced, split into two
sections with different determinism contracts:

* **cells** — one record per completed cell, keyed by the cell digest
  (:func:`repro.campaign.spec.cell_digest`).  A cell record is a pure
  function of ``(experiment, spec)``: the rows, their SHA-256, the
  logical metric counters and the manifest's ``deterministic_view``.
  The canonical export (:meth:`JsonlStore.export_canonical`) is the
  cells sorted by digest as JSON lines, so two campaigns over the same
  spec produce *byte-identical* exports at any worker count and across
  interrupted-then-resumed vs. uninterrupted runs.
* **journal** — append-only events carrying everything that is *not*
  deterministic: per-phase wall-time rollups, the ``backend``
  performance counters, run summaries.  Journals never participate in
  the canonical export or in resume decisions.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover — annotation-only import
    from repro.api import RunResult

__all__ = [
    "STORE_SCHEMA_VERSION",
    "JsonlStore",
    "build_cell_record",
    "default_store_path",
    "open_store",
]

#: Version of the store's record layout.  Version 2: cell digests no
#: longer cover an array-backend name, so a version-1 store is refused
#: instead of resumed into a second copy of every cell.  Version 3: a
#: record's manifest keeps only the cache enablement, not the L1 bound
#: or the L3 store's state, so an older store is refused rather than
#: resumed with two manifest shapes under equal digests.
STORE_SCHEMA_VERSION = 3

_ENV_DIR = "REPRO_CAMPAIGN_DIR"
_DEFAULT_DIR = ".repro-campaign"


def default_store_path(root: str | Path | None = None) -> Path:
    """``.repro-campaign/results.jsonl`` (``REPRO_CAMPAIGN_DIR``
    overrides the directory)."""
    base = Path(os.environ.get(_ENV_DIR, _DEFAULT_DIR)) \
        if root is None else Path(root)
    return base / "results.jsonl"


def open_store(path: str | Path | None = None,
               must_exist: bool = False) -> "JsonlStore":
    """Open (creating if needed) the results store at ``path``.

    With ``must_exist`` a missing store raises :class:`ReproError`
    instead of being created.
    """
    path = default_store_path() if path is None else Path(path)
    if must_exist:
        if not path.exists():
            raise ReproError(f"no campaign store at {path} (run "
                             f"`repro campaign run <spec>` first)")
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
    return JsonlStore(path)


def build_cell_record(digest: str, experiment: str,
                      result: "RunResult") -> dict:
    """The deterministic store record for one completed cell.

    Everything here
    is jobs-invariant by the façade's contracts: rows and their
    digest, the logical counter delta, and the manifest's
    ``deterministic_view``.  Wall-clock phase rollups and cache-luck
    counters belong in the journal, never in this record.
    """
    from repro.obs.manifest import deterministic_view, jsonable_rows

    return {
        "digest": digest,
        "experiment": experiment,
        "spec": dict(result.manifest["spec"]),
        "rows": jsonable_rows(result.rows),
        "rows_sha256": result.manifest["rows"]["sha256"],
        "metrics": dict(result.metrics.get("counters", {})),
        "manifest": deterministic_view(result.manifest),
    }


def _canonical_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"),
                      default=str)


def _header_line() -> str:
    return _canonical_line({"kind": "campaign-store",
                            "schema": STORE_SCHEMA_VERSION})


class JsonlStore:
    """Canonical JSONL on disk.

    The cells file *is* the canonical export (header line, then cell
    records sorted by digest) and is rewritten atomically on every
    completed cell — crash-interrupted campaigns resume from the last
    fully recorded cell.  The journal is a sibling append-only file.
    """

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        self._cells: dict[str, dict] = {}
        self._journal_path = self.path.with_suffix(".journal.jsonl")
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        for line in self.path.read_text(encoding="utf-8").splitlines():
            if not line.strip():
                continue
            record = json.loads(line)
            if record.get("kind") == "campaign-store":
                if record.get("schema") != STORE_SCHEMA_VERSION:
                    raise ReproError(
                        f"campaign store {self.path} has schema "
                        f"{record.get('schema')}; this build reads "
                        f"schema {STORE_SCHEMA_VERSION}")
                continue
            self._cells[record["digest"]] = record

    def _flush(self) -> None:
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        tmp.write_text(self.export_canonical(), encoding="utf-8")
        os.replace(tmp, self.path)

    def record_cell(self, record: dict) -> None:
        self._cells[record["digest"]] = json.loads(
            _canonical_line(record))
        self._flush()

    def journal_event(self, event: dict) -> None:
        with self._journal_path.open("a", encoding="utf-8") as handle:
            handle.write(_canonical_line(event) + "\n")

    def completed_digests(self) -> set[str]:
        return set(self._cells)

    def cells(self, experiment: str | None = None) -> list[dict]:
        """Cell records (optionally one experiment), sorted by digest."""
        records = [self._cells[digest] for digest in sorted(self._cells)]
        if experiment is not None:
            records = [r for r in records
                       if r.get("experiment") == experiment]
        return records

    def journal(self) -> list[dict]:
        if not self._journal_path.exists():
            return []
        return [json.loads(line) for line in
                self._journal_path.read_text(encoding="utf-8").splitlines()
                if line.strip()]

    def clear(self) -> None:
        self._cells.clear()
        self.path.unlink(missing_ok=True)
        self._journal_path.unlink(missing_ok=True)

    def export_canonical(self) -> str:
        """Header plus cell records sorted by digest, as JSON lines.

        Byte-identical for byte-identical campaign results, whatever
        worker count or completion order produced them.
        """
        lines = [_header_line()]
        lines.extend(_canonical_line(record) for record in self.cells())
        return "\n".join(lines) + "\n"

    def close(self) -> None:
        pass

    def __enter__(self) -> "JsonlStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
