"""Campaign report generation on a populated store."""

from __future__ import annotations

import pytest

from repro.campaign import (
    generate_report,
    open_store,
    run_campaign,
    write_report,
)
from repro.errors import ReproError


@pytest.fixture(scope="module")
def populated_store(tmp_path_factory):
    from repro.campaign.spec import campaign_from_mapping

    campaign = campaign_from_mapping({
        "name": "report",
        "defaults": {"trials": 2},
        "experiments": [
            {"name": "lemma7", "seed": [1, 2]},
            {"name": "baseline_2d", "seed": 1},
        ],
    })
    path = tmp_path_factory.mktemp("report") / "r.jsonl"
    run_campaign(campaign, store_path=path)
    with open_store(path) as store:
        yield store


class TestMarkdown:
    def test_one_section_per_experiment(self, populated_store):
        report = generate_report(populated_store)
        assert report.startswith("# Campaign report")
        assert "## baseline_2d" in report
        assert "## lemma7" in report
        assert "3 completed cells" in report

    def test_rows_tabulated_with_digest_key(self, populated_store):
        report = generate_report(populated_store)
        (cell,) = populated_store.cells("baseline_2d")
        # digest column is truncated to 12 chars for readability
        assert cell["digest"][:12] in report
        assert "| digest |" in report


class TestHtml:
    def test_html_renders_tables_and_escapes(self, populated_store):
        html = generate_report(populated_store, fmt="html")
        assert html.startswith("<!DOCTYPE html>")
        assert "<table>" in html
        assert "<h2>lemma7</h2>" in html

    def test_unknown_format_rejected(self, populated_store):
        with pytest.raises(ReproError, match="unknown report format"):
            generate_report(populated_store, fmt="pdf")


class TestWriteReport:
    def test_format_follows_suffix(self, populated_store, tmp_path):
        html_path = tmp_path / "report.html"
        write_report(populated_store, html_path)
        assert html_path.read_text(
            encoding="utf-8").startswith("<!DOCTYPE html>")

        md_path = tmp_path / "report.md"
        write_report(populated_store, md_path)
        assert md_path.read_text(
            encoding="utf-8").startswith("# Campaign report")
