"""Core machinery of ``reprolint``: contexts, rules, driver.

The linter is a thin deterministic pipeline:

1. collect ``*.py`` files from the given paths (sorted walk — the
   output order must not depend on filesystem enumeration order,
   which is exactly the kind of nondeterminism REP005 polices);
2. parse each file once into an :class:`ast.Module` shared by every
   rule through a :class:`FileContext`;
3. run each registered :class:`Rule` whose :meth:`Rule.applies`
   predicate accepts the file;
4. drop violations silenced by an inline suppression (see
   :mod:`repro.lint.suppress` — a justification is mandatory) and
   report the rest.

Rules are pure functions of the file context: no rule may keep state
across files, consult the clock, or read anything but the context —
the linter holds itself to the invariants it enforces.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.lint.project import ModuleSummary, Project, summarize_module
from repro.lint.suppress import SuppressionTable, parse_suppressions

__all__ = [
    "Violation",
    "FileContext",
    "Rule",
    "ProjectRule",
    "LintReport",
    "iter_python_files",
    "lint_file",
    "run_paths",
]

#: Rule id used for meta problems (bad suppressions, parse errors).
#: It cannot be suppressed.
META_RULE = "REP000"


@dataclass(frozen=True, order=True)
class Violation:
    """One finding, addressable as ``path:line:col``."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} " \
               f"{self.message}"

    def as_json(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


class FileContext:
    """Everything a rule may look at for one file."""

    def __init__(self, path: Path, display_path: str, source: str) -> None:
        self.path = path
        self.display_path = display_path
        self.source = source
        self.lines: list[str] = source.splitlines()
        self.tree: ast.Module = ast.parse(source, filename=display_path)
        self.suppressions: SuppressionTable = parse_suppressions(source)
        self._parents: dict[ast.AST, ast.AST] | None = None

    @property
    def posix_path(self) -> str:
        """Forward-slash path used for rule scoping decisions."""
        return self.display_path.replace("\\", "/")

    def parent(self, node: ast.AST) -> ast.AST | None:
        """Parent AST node (the map is built on first use)."""
        if self._parents is None:
            parents: dict[ast.AST, ast.AST] = {}
            for outer in ast.walk(self.tree):
                for child in ast.iter_child_nodes(outer):
                    parents[child] = outer
            self._parents = parents
        return self._parents.get(node)

    def violation(self, node: ast.AST, rule: str, message: str) -> Violation:
        line = getattr(node, "lineno", 0)
        col = getattr(node, "col_offset", 0)
        return Violation(path=self.display_path, line=line, col=col,
                         rule=rule, message=message)


class Rule:
    """Base class: subclasses set ``rule_id``/``summary`` and
    implement :meth:`check`."""

    rule_id: str = META_RULE
    summary: str = ""

    def applies(self, posix_path: str) -> bool:
        """Whether this rule runs on the given file (path-scoped)."""
        return True

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        raise NotImplementedError
        yield  # pragma: no cover


class ProjectRule(Rule):
    """A rule over the whole project rather than one file.

    Project rules see the assembled :class:`~repro.lint.project.Project`
    (every module's summary) and run once per lint invocation, after
    all files are summarized.  They never run per-file, so
    :meth:`applies` is False; their violations are still filtered
    through each file's inline suppression table by the driver.
    """

    def applies(self, posix_path: str) -> bool:
        return False

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        return iter(())

    def check_project(self, project: Project) -> Iterable[Violation]:
        raise NotImplementedError


@dataclass
class LintReport:
    """Aggregated result of one lint run."""

    violations: list[Violation] = field(default_factory=list)
    suppressed: int = 0
    files: int = 0

    @property
    def by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for v in self.violations:
            counts[v.rule] = counts.get(v.rule, 0) + 1
        return dict(sorted(counts.items()))

    @property
    def exit_code(self) -> int:
        return 1 if self.violations else 0


def iter_python_files(paths: Sequence[str | Path],
                      root: Path | None = None) -> Iterator[Path]:
    """Yield ``*.py`` files beneath ``paths`` in sorted order.

    Directories are walked recursively; hidden directories and
    ``__pycache__`` are skipped.  Sorting makes the lint output a
    pure function of the tree's contents.
    """
    base = root if root is not None else Path.cwd()
    for raw in paths:
        path = Path(raw)
        if not path.is_absolute():
            path = base / path
        if path.is_file():
            yield path
        elif path.is_dir():
            entries = sorted(path.iterdir(), key=lambda p: p.name)
            for entry in entries:
                if entry.name.startswith(".") or \
                        entry.name == "__pycache__":
                    continue
                if entry.is_dir():
                    yield from iter_python_files([entry], root=base)
                elif entry.suffix == ".py":
                    yield entry


def _display_path(path: Path, root: Path | None) -> str:
    base = root if root is not None else Path.cwd()
    try:
        return str(path.relative_to(base))
    except ValueError:
        return str(path)


def _analyze_source(path: Path, display: str, source: str,
                    rules: Sequence[Rule],
                    ) -> tuple[list[Violation], int,
                               SuppressionTable | None,
                               ModuleSummary | None]:
    """Run the per-file stage: file rules, suppressions, summary."""
    try:
        ctx = FileContext(path, display, source)
    except SyntaxError as exc:
        return ([Violation(path=display, line=exc.lineno or 0,
                           col=exc.offset or 0, rule=META_RULE,
                           message=f"file does not parse: {exc.msg}")],
                0, None, None)
    found: list[Violation] = list(ctx.suppressions.problems(display))
    suppressed = 0
    for rule in rules:
        if not rule.applies(ctx.posix_path):
            continue
        for violation in rule.check(ctx):
            if violation.rule != META_RULE and \
                    ctx.suppressions.is_suppressed(violation.line,
                                                   violation.rule):
                suppressed += 1
            else:
                found.append(violation)
    summary = summarize_module(ctx.posix_path, ctx.tree)
    return sorted(found), suppressed, ctx.suppressions, summary


def lint_file(path: Path, rules: Sequence[Rule],
              root: Path | None = None) -> tuple[list[Violation], int]:
    """Lint one file; returns (violations, suppressed_count).

    Only the per-file stage runs here — :class:`ProjectRule` needs the
    whole tree and is driven by :func:`run_paths`.
    """
    display = _display_path(path, root)
    source = path.read_text(encoding="utf-8")
    violations, suppressed, _, _ = _analyze_source(path, display, source,
                                                   rules)
    return violations, suppressed


def run_paths(paths: Sequence[str | Path], rules: Sequence[Rule],
              root: Path | None = None) -> LintReport:
    """Lint every Python file beneath ``paths`` with ``rules``.

    Two stages: the per-file stage (file rules + module summaries)
    and the project stage (:class:`ProjectRule` over the assembled
    summaries).
    """
    report = LintReport()
    file_rules = [r for r in rules if not isinstance(r, ProjectRule)]
    project_rules = [r for r in rules if isinstance(r, ProjectRule)]

    summaries: list[ModuleSummary] = []
    tables: dict[str, SuppressionTable] = {}
    seen: set[Path] = set()
    for path in iter_python_files(paths, root=root):
        resolved = path.resolve()
        if resolved in seen:
            continue
        seen.add(resolved)
        report.files += 1
        display = _display_path(path, root)
        source = path.read_bytes().decode("utf-8")
        violations, suppressed, table, summary = _analyze_source(
            path, display, source, file_rules)
        report.violations.extend(violations)
        report.suppressed += suppressed
        if table is not None:
            tables[display] = table
        if summary is not None:
            summaries.append(summary)

    project = Project(summaries)
    for rule in project_rules:
        for violation in rule.check_project(project):
            table = tables.get(violation.path)
            if violation.rule != META_RULE and table is not None and \
                    table.is_suppressed(violation.line, violation.rule):
                report.suppressed += 1
            else:
                report.violations.append(violation)

    report.violations.sort()
    return report


def iter_function_defs(tree: ast.AST) -> Iterable[ast.FunctionDef |
                                                  ast.AsyncFunctionDef]:
    """All function definitions in the tree (nested included)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def builder_fstrings(ctx: FileContext, words: tuple[str, ...],
                     ) -> Iterator[tuple[ast.FunctionDef |
                                         ast.AsyncFunctionDef,
                                         ast.JoinedStr]]:
    """``(function, f-string)`` for every interpolating f-string inside
    a function whose name contains one of ``words`` (key and digest
    builders, REP003 and REP007).

    An f-string under a ``raise`` builds an error message, not key
    material, and is skipped.
    """
    for func in iter_function_defs(ctx.tree):
        lowered = func.name.lower()
        if not any(word in lowered for word in words):
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.JoinedStr) and any(
                    isinstance(part, ast.FormattedValue)
                    for part in node.values) and \
                    not _under_raise(ctx, node):
                yield func, node


def _under_raise(ctx: FileContext, node: ast.AST) -> bool:
    for _ in range(4):
        parent = ctx.parent(node)
        if parent is None:
            return False
        if isinstance(parent, ast.Raise):
            return True
        node = parent
    return False
