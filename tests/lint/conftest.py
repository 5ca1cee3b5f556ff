"""Shared helper: lint a source snippet at a chosen relative path.

Rules are path-scoped (REP002 only fires under ``robots/algorithms/``,
REP003 under ``perf/`` ...), so every fixture writes its snippet into
a temp tree at a path that selects the rules under test.
"""

import textwrap

import pytest

from repro.lint.framework import lint_file, run_paths
from repro.lint.rules import default_rules


@pytest.fixture
def lint_source(tmp_path):
    def _lint(rel_path, source):
        path = tmp_path / rel_path
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        return lint_file(path, default_rules(), root=tmp_path)
    return _lint


@pytest.fixture
def lint_tree(tmp_path):
    """Write a ``{rel_path: source}`` tree and run the full driver on
    it — file rules *and* the cross-module project rules.  Returns the
    :class:`~repro.lint.framework.LintReport`."""
    def _lint(files):
        for rel_path, source in files.items():
            path = tmp_path / rel_path
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(source), encoding="utf-8")
        return run_paths([tmp_path], default_rules(), root=tmp_path)
    return _lint


def rules_of(violations):
    return [v.rule for v in violations]
