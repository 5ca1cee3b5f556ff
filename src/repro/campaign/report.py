"""Regenerate the paper's tables from the campaign results store.

Each experiment's rows *are* one of the paper's exhibits (Lemma 7's
γ(P′) distributions, Theorem 4.1's step bounds, Theorem 1.1's
characterization sweep, Figure 1's formation runs, plus the
plane-formation and 2D sanity anchors), so the report is one section
per experiment present in the store: the cells that produced it and
the union of their rows as a table.

Every section is computed from the store's cell records.
"""

from __future__ import annotations

import html as _html
import json
from pathlib import Path

from repro.campaign.store import JsonlStore

__all__ = ["generate_report", "write_report"]


def _rows_for(store: JsonlStore, experiment: str) -> list[dict]:
    """One experiment's rows, each tagged with its cell digest."""
    rows = []
    for record in store.cells(experiment):
        for row in record.get("rows", []):
            rows.append({"digest": record["digest"], **row})
    return rows


def _render_value(value) -> str:
    if isinstance(value, str):
        return value
    return json.dumps(value, sort_keys=True, default=str)


def _markdown_table(rows: list[dict]) -> list[str]:
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    lines = ["| " + " | ".join(columns) + " |",
             "| " + " | ".join("---" for _ in columns) + " |"]
    for row in rows:
        cells = [_render_value(row.get(column, "")) for column in columns]
        lines.append("| " + " | ".join(cells) + " |")
    return lines


def generate_report(store: JsonlStore, fmt: str = "markdown") -> str:
    """The campaign report as ``markdown`` or ``html`` text."""
    cells = store.cells()
    experiments = sorted({record["experiment"] for record in cells})
    lines = ["# Campaign report", ""]
    lines.append(f"Store: `{store.path}`, "
                 f"{len(cells)} completed cells, "
                 f"{len(experiments)} experiments.")
    lines.append("")
    for experiment in experiments:
        count = sum(1 for record in cells
                    if record["experiment"] == experiment)
        lines.append(f"## {experiment}")
        lines.append("")
        lines.append(f"{count} cell{'s' if count != 1 else ''}; rows "
                     f"keyed by cell digest (first column).")
        lines.append("")
        rows = _rows_for(store, experiment)
        rows = [{**row, "digest": row["digest"][:12]} for row in rows]
        lines.extend(_markdown_table(rows))
        lines.append("")
    markdown = "\n".join(lines).rstrip() + "\n"
    if fmt == "markdown":
        return markdown
    if fmt == "html":
        return _to_html(markdown)
    from repro.errors import ReproError

    raise ReproError(f"unknown report format {fmt!r} "
                     f"(markdown or html)")


def _to_html(markdown: str) -> str:
    """A minimal, dependency-free HTML rendering of the report.

    Headings, paragraphs and tables only — exactly what
    :func:`generate_report` emits.
    """
    out = ["<!DOCTYPE html>", "<html><head><meta charset='utf-8'>",
           "<title>Campaign report</title>",
           "<style>table{border-collapse:collapse}"
           "td,th{border:1px solid #999;padding:2px 6px;"
           "font-family:monospace;font-size:12px}</style>",
           "</head><body>"]
    in_table = False
    for line in markdown.splitlines():
        is_table = line.startswith("|")
        if is_table and not in_table:
            out.append("<table>")
            in_table = True
        elif in_table and not is_table:
            out.append("</table>")
            in_table = False
        if is_table:
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            if all(set(cell) <= {"-"} for cell in cells):
                continue  # the markdown separator row
            out.append("<tr>" + "".join(
                f"<td>{_html.escape(cell)}</td>" for cell in cells)
                + "</tr>")
        elif line.startswith("## "):
            out.append(f"<h2>{_html.escape(line[3:])}</h2>")
        elif line.startswith("# "):
            out.append(f"<h1>{_html.escape(line[2:])}</h1>")
        elif line:
            out.append(f"<p>{_html.escape(line)}</p>")
    if in_table:
        out.append("</table>")
    out.append("</body></html>")
    return "\n".join(out) + "\n"


def write_report(store: JsonlStore, path: str | Path,
                 fmt: str | None = None) -> str:
    """Write the report to ``path``; the format follows the suffix
    (``.html`` → HTML, anything else markdown) unless forced."""
    path = Path(path)
    if fmt is None:
        fmt = "html" if path.suffix.lower() in (".html", ".htm") \
            else "markdown"
    text = generate_report(store, fmt)
    path.write_text(text, encoding="utf-8")
    return text
