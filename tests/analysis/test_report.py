"""Tests for the EXPERIMENTS.md report generator."""

from repro.analysis.report import generate_report, main


class TestGenerateReport:
    def test_contains_every_section(self):
        text = generate_report(trials_fig1=1, trials_l7=1, trials_t41=1)
        for marker in ["# EXPERIMENTS", "Table 1", "Table 2", "Table 3",
                       "Figure 4", "Figure 1", "Lemma 7", "Theorem 4.1",
                       "Theorem 1.1", "plane formation",
                       "Suzuki–Yamashita"]:
            assert marker in text, marker

    def test_all_table_rows_match(self):
        text = generate_report(trials_fig1=1, trials_l7=1, trials_t41=1)
        # Tables 1-3 and Figure 4 must match the paper exactly ('False'
        # further down is legitimate: unsolvable T11 predictions).
        tables_part = text.split("## F1")[0]
        assert "False" not in tables_part

    def test_main_writes_file(self, tmp_path, monkeypatch):
        # Patch the heavy drivers so main() is fast in unit tests.
        import repro.analysis.report as report

        monkeypatch.setattr(
            report, "generate_report",
            lambda **kw: "# EXPERIMENTS (stub)\n")
        target = tmp_path / "EXPERIMENTS.md"
        assert main([str(target)]) == 0
        assert target.read_text().startswith("# EXPERIMENTS")
