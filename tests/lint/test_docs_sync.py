"""docs/STATIC_ANALYSIS.md and ``--list-rules`` must agree: every
registered rule has a ``### REPnnn`` section and vice versa, and one
row of the mutation-audit table."""

import re
from itertools import takewhile
from pathlib import Path

from repro.lint.cli import main
from repro.lint.rules import default_rules

DOCS = Path(__file__).resolve().parents[2] / "docs" / \
    "STATIC_ANALYSIS.md"

_HEADING = re.compile(r"^### (REP\d{3})\b", re.MULTILINE)


def documented_rule_ids():
    return _HEADING.findall(DOCS.read_text(encoding="utf-8"))


def audited_rule_ids():
    """First cell of every body row of the audit table — the first
    table under the ``## Rule audit`` heading."""
    section = DOCS.read_text(encoding="utf-8").split(
        "\n## Rule audit\n", 1)[1].splitlines()
    start = next(i for i, line in enumerate(section)
                 if line.startswith("|"))
    table = list(takewhile(lambda line: line.startswith("|"),
                           section[start:]))
    # table[0] is the header, table[1] the separator.
    return [row.split("|")[1].strip() for row in table[2:]]


class TestDocsSync:
    def test_every_registered_rule_is_documented(self):
        documented = set(documented_rule_ids())
        registered = {rule.rule_id for rule in default_rules()}
        assert registered <= documented, \
            f"undocumented rules: {sorted(registered - documented)}"

    def test_every_documented_rule_is_registered(self):
        documented = set(documented_rule_ids())
        registered = {rule.rule_id for rule in default_rules()}
        assert documented <= registered, \
            f"stale doc sections: {sorted(documented - registered)}"

    def test_doc_sections_are_in_id_order(self):
        ids = documented_rule_ids()
        assert ids == sorted(ids)

    def test_list_rules_output_matches_docs(self, capsys):
        assert main(["--list-rules"]) == 0
        listed = [line.split()[0] for line
                  in capsys.readouterr().out.splitlines() if line]
        assert listed == sorted(documented_rule_ids())

    def test_audit_table_has_one_row_per_rule_in_id_order(self):
        registered = [rule.rule_id for rule in default_rules()]
        assert audited_rule_ids() == sorted(registered)
