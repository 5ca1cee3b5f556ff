"""REP011 — the façade's typed, record-shaped surface.

Two checks on the façade modules (:mod:`repro.api` and everything
under ``repro.campaign`` and ``repro.serve``), each a pure function of
one file:

**Public signatures are fully annotated.**  The repo's mypy gate runs
strict on a growing allow-list, but only where mypy is installed and
never as a blocking CI step; this rule is the always-on mirror: every
public function or method (name not starting with ``_``) at the top
level of a façade module or of one of its public classes must annotate
every parameter and its return type.  ``*args``/``**kwargs`` count;
``self``/``cls`` do not.  Unannotated façade signatures are how
untyped values leak into the typed core.

**Record classes have no plain fields.**  The query/spec records are
frozen dataclasses; a *plain* (unannotated) class-body assignment on
one is silently not a dataclass field — it never reaches ``asdict``,
the wire, or a digest.  Any public class that has annotated fields
must not also carry public plain assignments.

The campaign grid axes and the serve wire fields are kept in step
with ``ExperimentSpec`` by ``tests/serve/test_protocol.py``, not here.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.framework import FileContext, Rule, Violation
from repro.lint.project import module_name_for

__all__ = ["FacadeContractRule"]

#: Modules whose public signatures must be fully annotated.
_TYPED_FACADES = ("repro.api", "repro.campaign", "repro.serve")


def _missing_annotations(node: ast.FunctionDef | ast.AsyncFunctionDef,
                         ) -> list[str]:
    """Parameter names (``*args``/``**kw`` marked) plus ``"return"``
    that carry no annotation; ``self``/``cls`` are exempt."""
    args = node.args
    missing = [a.arg for a in (*args.posonlyargs, *args.args,
                               *args.kwonlyargs)
               if a.annotation is None and a.arg not in ("self", "cls")]
    if args.vararg is not None and args.vararg.annotation is None:
        missing.append("*" + args.vararg.arg)
    if args.kwarg is not None and args.kwarg.annotation is None:
        missing.append("**" + args.kwarg.arg)
    if node.returns is None:
        missing.append("return")
    return missing


class FacadeContractRule(Rule):
    """Façade annotations and record-class fields (REP011)."""

    rule_id = "REP011"
    summary = "public facade signature unannotated, or a plain " \
              "assignment on a facade record class"

    def applies(self, posix_path: str) -> bool:
        name = module_name_for(posix_path)
        return any(name == facade or name.startswith(facade + ".")
                   for facade in _TYPED_FACADES)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        # A later definition of the same name replaces the earlier
        # one, as it does at import time.
        functions: dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = {}
        records: dict[str, ast.ClassDef] = {}
        for stmt in ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions[stmt.name] = stmt
            elif isinstance(stmt, ast.ClassDef):
                records[stmt.name] = stmt
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                        functions[f"{stmt.name}.{sub.name}"] = sub
        for qual, node in functions.items():
            # Private functions, and every method of a private class,
            # are not façade surface.
            if any(part.startswith("_") for part in qual.split(".")):
                continue
            for missing in _missing_annotations(node):
                what = ("return type" if missing == "return"
                        else f"parameter `{missing}`")
                yield ctx.violation(
                    node, self.rule_id,
                    f"public facade signature `{qual}` leaves {what} "
                    f"unannotated")
        for cls_name, cls in records.items():
            if not cls_name.startswith("_"):
                yield from self._plain_fields(ctx, cls)

    def _plain_fields(self, ctx: FileContext,
                      cls: ast.ClassDef) -> Iterator[Violation]:
        if not any(isinstance(sub, ast.AnnAssign) and
                   isinstance(sub.target, ast.Name) for sub in cls.body):
            return  # not record-shaped; plain attrs are fine
        for sub in cls.body:
            if not isinstance(sub, ast.Assign):
                continue
            for target in sub.targets:
                if isinstance(target, ast.Name) and \
                        not target.id.startswith("_"):
                    yield Violation(
                        path=ctx.display_path, line=sub.lineno, col=0,
                        rule=self.rule_id,
                        message=(f"record class `{cls.name}` assigns "
                                 f"`{target.id}` without a type "
                                 f"annotation; a plain assignment is "
                                 f"not a dataclass field and silently "
                                 f"drops off the record"))
