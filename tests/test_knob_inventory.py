"""Every ``REPRO_*`` environment switch is both read and documented.

The code side is every string literal in ``src/`` and ``benchmarks/``
that is exactly a ``REPRO_*`` name — the key an ``os.environ`` lookup
takes.  The doc side is every ``REPRO_*`` name that ``README.md``,
``docs/`` or ``.claude/skills/`` mentions.  A name on one side only is
a stale doc line or an undocumented switch.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CODE_DIRS = ("src", "benchmarks")
DOC_PATHS = ("README.md", "docs", ".claude/skills")

_NAME = re.compile(r"REPRO_[A-Z0-9_]+")


def _files(path: Path, pattern: str):
    if path.is_file():
        return [path]
    return sorted(p for p in path.rglob(pattern) if p.is_file())


def read_switches() -> dict[str, set[str]]:
    """``REPRO_*`` name -> the code files holding it as a literal."""
    found: dict[str, set[str]] = {}
    for directory in CODE_DIRS:
        for path in _files(ROOT / directory, "*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if (isinstance(node, ast.Constant)
                        and isinstance(node.value, str)
                        and _NAME.fullmatch(node.value)):
                    found.setdefault(node.value, set()).add(
                        str(path.relative_to(ROOT)))
    return found


def documented_switches() -> dict[str, set[str]]:
    """``REPRO_*`` name -> the doc files mentioning it."""
    found: dict[str, set[str]] = {}
    for doc in DOC_PATHS:
        for path in _files(ROOT / doc, "*"):
            text = path.read_text(encoding="utf-8", errors="ignore")
            for name in _NAME.findall(text):
                found.setdefault(name, set()).add(
                    str(path.relative_to(ROOT)))
    return found


class TestKnobInventory:
    def test_every_documented_switch_is_read(self):
        read = read_switches()
        assert read, "no REPRO_* literal found in the code"
        stale = {name: sorted(files)
                 for name, files in documented_switches().items()
                 if name not in read}
        assert not stale, f"documented but read nowhere: {stale}"

    def test_every_read_switch_is_documented(self):
        documented = documented_switches()
        assert documented, "no REPRO_* name found in the docs"
        undocumented = {name: sorted(files)
                        for name, files in read_switches().items()
                        if name not in documented}
        assert not undocumented, f"read but not documented: {undocumented}"
