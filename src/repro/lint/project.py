"""Project model for reprolint's cross-module engine.

The file rules (REP001-REP005, REP007, REP011) are pure functions of
one :class:`~repro.lint.framework.FileContext`; the cross-module rules
(REP008, REP009) need a *project*: which modules exist, what each one
imports, which functions call which, and how values flow between
them.  This module builds that model in two stages:

1. :func:`summarize_module` lowers one parsed file into a
   :class:`ModuleSummary` — imports resolved to dotted targets and one
   :class:`FunctionInfo` per function (methods and nested functions
   included).  Each function carries a small IR: an ordered list of
   ops (assignments, returns, loop bindings, bare expressions) whose
   expressions record the names they read, the calls they make and a
   few structural flags.
   The summary is a pure function of the file's source.
2. :class:`Project` assembles the summaries, resolves dotted call
   references against imports and symbol tables, and answers the
   queries the dataflow pass (:mod:`repro.lint.dataflow`) and the
   project rules ask: "which function is ``parallel.spawn_seeds``
   here?", "which modules are transitively imported from
   ``repro.api``?".

Everything is deliberately conservative and *field-blind*: taint does
not flow through object attributes or global state, calls that cannot
be resolved statically propagate their arguments' labels to their
result, and containers are tainted as a whole.  The soundness caveats
are documented in ``docs/STATIC_ANALYSIS.md``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

__all__ = [
    "CallIR",
    "ExprIR",
    "FunctionInfo",
    "ModuleSummary",
    "Project",
    "module_name_for",
    "summarize_module",
]


def module_name_for(posix_path: str) -> str:
    """Dotted module name for a display path.

    ``src/repro/obs/clock.py`` maps to ``repro.obs.clock`` (the
    ``src``-layout root is stripped); anything else maps to its path
    with separators replaced by dots (``benchmarks/bench_x.py`` →
    ``benchmarks.bench_x``) — such modules can *refer to* package
    modules but are never import targets themselves.
    """
    path = posix_path
    if path.endswith(".py"):
        path = path[:-3]
    parts = [part for part in path.split("/") if part]
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else "__root__"


# ---------------------------------------------------------------------------
# IR dataclasses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExprIR:
    """What the dataflow pass needs to know about one expression."""

    names: tuple[str, ...] = ()
    calls: tuple["CallIR", ...] = ()
    binop: bool = False
    isset: bool = False
    line: int = 0
    col: int = 0


@dataclass(frozen=True)
class CallIR:
    """One call site: dotted callee reference plus lowered arguments."""

    ref: str | None
    args: tuple[ExprIR, ...] = ()
    keywords: tuple[tuple[str | None, ExprIR], ...] = ()
    #: Receiver expression for method calls whose base is not a pure
    #: dotted name (``SeedSequence(seed).spawn(n)``) — taint on the
    #: receiver reaches the result.
    recv: ExprIR | None = None
    line: int = 0
    col: int = 0


@dataclass
class FunctionInfo:
    """One function (or method, or nested function) in IR form."""

    name: str
    qualname: str
    cls: str | None
    params: tuple[str, ...]
    line: int
    col: int
    #: Ordered ops: ("assign", targets, ExprIR) / ("iter", targets,
    #: ExprIR) for loop bindings / ("return", (), ExprIR) /
    #: ("expr", (), ExprIR).
    ops: list[tuple[str, tuple[str, ...], ExprIR]] = field(
        default_factory=list)
    #: Nested function name → qualname, for call resolution.
    local_funcs: dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleSummary:
    """Everything the project pass keeps about one module."""

    name: str
    path: str  # display path, forward slashes
    imports: dict[str, str] = field(default_factory=dict)
    deps: tuple[str, ...] = ()
    #: qualname ("f", "Cls.m", "outer.inner") → FunctionInfo
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    #: class name → tuple of annotated field names (dataclass-style)
    class_fields: dict[str, tuple[str, ...]] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Lowering: AST -> ModuleSummary
# ---------------------------------------------------------------------------


def _call_ref(func: ast.AST) -> str | None:
    """Dotted reference for a call's func expression.

    ``a.b.c`` forms resolve fully; a method on a computed base
    (``SeedSequence(s).spawn``) yields ``"?.spawn"`` so tail-based
    matchers still see the method name.
    """
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        base = _call_ref(func.value)
        if base is not None:
            return base + "." + func.attr
        return "?." + func.attr
    return None


def _lower_call(node: ast.Call) -> CallIR:
    ref = _call_ref(node.func)
    recv: ExprIR | None = None
    if isinstance(node.func, ast.Attribute) and not isinstance(
            node.func.value, (ast.Name, ast.Attribute)):
        recv = _lower_expr(node.func.value)
    args = []
    for arg in node.args:
        target = arg.value if isinstance(arg, ast.Starred) else arg
        args.append(_lower_expr(target))
    keywords = tuple((kw.arg, _lower_expr(kw.value))
                     for kw in node.keywords)
    return CallIR(ref=ref, args=tuple(args), keywords=keywords,
                  recv=recv, line=node.lineno, col=node.col_offset)


def _lower_expr(node: ast.AST) -> ExprIR:
    """Lower one expression: free names, call sites, structure flags."""
    names: list[str] = []
    calls: list[CallIR] = []
    flags = {"binop": False, "isset": False}

    def walk(n: ast.AST) -> None:
        if isinstance(n, ast.Call):
            calls.append(_lower_call(n))
            # The callee chain itself contributes no data flow; the
            # arguments are lowered inside the CallIR.
            return
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            if n.id not in names:
                names.append(n.id)
            return
        if isinstance(n, ast.Attribute):
            walk(n.value)
            return
        if isinstance(n, (ast.BinOp, ast.AugAssign)):
            flags["binop"] = True
        if isinstance(n, (ast.Set, ast.SetComp)):
            flags["isset"] = True
        if isinstance(n, (ast.Lambda, ast.FunctionDef,
                          ast.AsyncFunctionDef)):
            return  # deferred bodies do not flow here
        for child in ast.iter_child_nodes(n):
            walk(child)

    walk(node)
    return ExprIR(names=tuple(names), calls=tuple(calls),
                  binop=flags["binop"], isset=flags["isset"],
                  line=getattr(node, "lineno", 0),
                  col=getattr(node, "col_offset", 0))


def _target_names(target: ast.AST) -> tuple[str, ...]:
    """Plain names bound by an assignment target (attributes and
    subscripts are field-blind and dropped)."""
    if isinstance(target, ast.Name):
        return (target.id,)
    if isinstance(target, (ast.Tuple, ast.List)):
        names: list[str] = []
        for element in target.elts:
            names.extend(_target_names(element))
        return tuple(names)
    if isinstance(target, ast.Starred):
        return _target_names(target.value)
    return ()


class _FunctionLowerer:
    """Lowers one function body to ops."""

    def __init__(self, node: ast.FunctionDef | ast.AsyncFunctionDef,
                 qualname: str, cls_name: str | None) -> None:
        self.node: ast.FunctionDef | ast.AsyncFunctionDef = node
        self.info = FunctionInfo(
            name=node.name, qualname=qualname, cls=cls_name,
            params=self._param_names(node), line=node.lineno,
            col=node.col_offset)
        self._nested: list[ast.FunctionDef | ast.AsyncFunctionDef] = []

    @staticmethod
    def _param_names(node: ast.FunctionDef | ast.AsyncFunctionDef,
                     ) -> tuple[str, ...]:
        args = node.args
        ordered = (list(args.posonlyargs) + list(args.args)
                   + list(args.kwonlyargs))
        names = [a.arg for a in ordered]
        if args.vararg is not None:
            names.append(args.vararg.arg)
        if args.kwarg is not None:
            names.append(args.kwarg.arg)
        return tuple(names)

    def lower(self) -> tuple[FunctionInfo,
                             list[ast.FunctionDef | ast.AsyncFunctionDef]]:
        for stmt in self.node.body:
            self._stmt(stmt)
        return self.info, self._nested

    # -- statements ----------------------------------------------------
    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.info.local_funcs[stmt.name] = \
                f"{self.info.qualname}.{stmt.name}"
            self._nested.append(stmt)
            return
        if isinstance(stmt, ast.ClassDef):
            return  # nested classes are out of scope
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self._assign(stmt)
            return
        if isinstance(stmt, ast.Return):
            expr = _lower_expr(stmt.value) if stmt.value is not None \
                else ExprIR(line=stmt.lineno, col=stmt.col_offset)
            self.info.ops.append(("return", (), expr))
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.info.ops.append(("iter", _target_names(stmt.target),
                                  _lower_expr(stmt.iter)))
            for sub in stmt.body + stmt.orelse:
                self._stmt(sub)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                targets = _target_names(item.optional_vars) \
                    if item.optional_vars is not None else ()
                self.info.ops.append(
                    ("assign", targets, _lower_expr(item.context_expr)))
            for sub in stmt.body:
                self._stmt(sub)
            return
        if isinstance(stmt, (ast.If, ast.While)):
            self.info.ops.append(("expr", (), _lower_expr(stmt.test)))
            for sub in stmt.body + stmt.orelse:
                self._stmt(sub)
            return
        if isinstance(stmt, ast.Try):
            for sub in stmt.body + stmt.orelse + stmt.finalbody:
                self._stmt(sub)
            for handler in stmt.handlers:
                for sub in handler.body:
                    self._stmt(sub)
            return
        if isinstance(stmt, ast.Expr):
            self.info.ops.append(("expr", (), _lower_expr(stmt.value)))
            return
        if isinstance(stmt, (ast.Raise, ast.Assert)):
            lowered = [_lower_expr(part) for part in
                       (stmt.exc, stmt.cause) if part is not None] \
                if isinstance(stmt, ast.Raise) else [_lower_expr(stmt.test)]
            for expr in lowered:
                self.info.ops.append(("expr", (), expr))
            return
        # Pass/Break/Continue/Global/Nonlocal/Import...: no data flow.

    def _assign(self, stmt: ast.Assign | ast.AnnAssign | ast.AugAssign,
                ) -> None:
        if stmt.value is None:
            return
        expr = _lower_expr(stmt.value)
        if isinstance(stmt, ast.Assign):
            targets: list[str] = []
            for target in stmt.targets:
                targets.extend(_target_names(target))
            self.info.ops.append(("assign", tuple(targets), expr))
        elif isinstance(stmt, ast.AnnAssign):
            self.info.ops.append(
                ("assign", _target_names(stmt.target), expr))
        else:  # AugAssign: target reads itself, result has arithmetic
            names = _target_names(stmt.target)
            combined = ExprIR(names=tuple(set(expr.names) | set(names)),
                              calls=expr.calls, binop=True,
                              isset=expr.isset, line=expr.line,
                              col=expr.col)
            self.info.ops.append(("assign", names, combined))


def _module_imports(tree: ast.Module, module_name: str, is_package: bool,
                    ) -> tuple[dict[str, str], set[str]]:
    """(local name → dotted target, imported module deps)."""
    imports: dict[str, str] = {}
    deps: set[str] = set()
    package = module_name if is_package else (
        module_name.rsplit(".", 1)[0] if "." in module_name else "")
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                target = alias.name
                deps.add(target)
                if alias.asname is not None:
                    imports[alias.asname] = target
                else:
                    imports[target.split(".")[0]] = target.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".") if package else []
                cut = len(anchor) - (node.level - 1)
                anchor = anchor[:cut] if cut > 0 else []
                base = ".".join(anchor + ([base] if base else []))
            if not base:
                continue
            deps.add(base)
            for alias in node.names:
                if alias.name == "*":
                    continue
                target = f"{base}.{alias.name}"
                deps.add(target)
                imports[alias.asname or alias.name] = target
    expanded = set()
    for dep in deps:
        parts = dep.split(".")
        for i in range(1, len(parts) + 1):
            expanded.add(".".join(parts[:i]))
    return imports, expanded


def summarize_module(posix_path: str, tree: ast.Module) -> ModuleSummary:
    """Lower one parsed module into its project summary."""
    name = module_name_for(posix_path)
    is_package = posix_path.endswith("__init__.py")
    imports, deps = _module_imports(tree, name, is_package)
    summary = ModuleSummary(name=name, path=posix_path, imports=imports,
                            deps=tuple(sorted(deps)))

    pending: list[tuple[ast.FunctionDef | ast.AsyncFunctionDef,
                        str, str | None]] = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            pending.append((stmt, stmt.name, None))
        elif isinstance(stmt, ast.ClassDef):
            fields: list[str] = []
            for sub in stmt.body:
                if isinstance(sub, ast.AnnAssign) and \
                        isinstance(sub.target, ast.Name):
                    fields.append(sub.target.id)
                elif isinstance(sub, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    pending.append((sub, f"{stmt.name}.{sub.name}",
                                    stmt.name))
            summary.class_fields[stmt.name] = tuple(fields)

    while pending:
        node, qualname, cls_name = pending.pop(0)
        info, nested = _FunctionLowerer(node, qualname, cls_name).lower()
        summary.functions[qualname] = info
        for child in nested:
            pending.append((child, f"{qualname}.{child.name}", cls_name))

    # Module-level statements form a pseudo-function so module-scope
    # calls participate in the analysis.
    module_info = FunctionInfo(name="<module>", qualname="<module>",
                               cls=None, params=(), line=1, col=0)
    lowerer = _FunctionLowerer.__new__(_FunctionLowerer)
    lowerer.info = module_info
    lowerer._nested = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Import, ast.ImportFrom)):
            continue
        lowerer._stmt(stmt)
    summary.functions["<module>"] = module_info
    return summary


# ---------------------------------------------------------------------------
# Project assembly and reference resolution
# ---------------------------------------------------------------------------


class Project:
    """All module summaries plus resolution and reachability queries."""

    def __init__(self, summaries: list[ModuleSummary]) -> None:
        self.modules: dict[str, ModuleSummary] = {}
        for summary in summaries:
            self.modules[summary.name] = summary

    def iter_functions(self) -> Iterator[tuple[ModuleSummary,
                                               FunctionInfo]]:
        """Every function, in deterministic (module, qualname) order."""
        for name in sorted(self.modules):
            summary = self.modules[name]
            for qual in sorted(summary.functions):
                yield summary, summary.functions[qual]

    def resolve_ref(self, summary: ModuleSummary, info: FunctionInfo,
                    ref: str | None) -> str | None:
        """Fully-qualified dotted name for a call reference.

        Local symbols win over imports; unresolvable heads (local
        variables, builtins) return the ref itself when it is already
        dotted (so external matchers can inspect it) or None.
        """
        if ref is None:
            return None
        head, _, rest = ref.partition(".")
        if head in ("self", "cls") and info.cls is not None and rest:
            return f"{summary.name}.{info.cls}.{rest}"
        if head in info.local_funcs and not rest:
            return f"{summary.name}.{info.local_funcs[head]}"
        if head in summary.functions and not rest:
            return f"{summary.name}.{head}"
        if head in summary.class_fields:
            return f"{summary.name}.{ref}"
        if head in summary.imports:
            target = summary.imports[head]
            return f"{target}.{rest}" if rest else target
        # Unresolved heads (builtins, local variables) pass through so
        # external matchers can still inspect the raw reference.
        return ref

    def function_for(self, qualified: str | None,
                     ) -> tuple[ModuleSummary, FunctionInfo] | None:
        """The project function behind a fully-qualified name.

        Tries the longest module-name prefix; ``pkg.mod.Cls`` resolves
        to ``Cls.__init__`` when present (constructor call).
        """
        if qualified is None:
            return None
        parts = qualified.split(".")
        for split in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:split])
            summary = self.modules.get(module)
            if summary is None:
                continue
            qual = ".".join(parts[split:])
            if qual in summary.functions:
                return summary, summary.functions[qual]
            init = f"{qual}.__init__"
            if qual in summary.class_fields and init in summary.functions:
                return summary, summary.functions[init]
            return None
        return None

    def import_closure(self, roots: list[str]) -> set[str]:
        """Modules transitively imported from ``roots`` (project
        modules only; parent packages included)."""
        seen: set[str] = set()
        frontier = [root for root in roots if root in self.modules]
        while frontier:
            name = frontier.pop()
            if name in seen:
                continue
            seen.add(name)
            summary = self.modules.get(name)
            if summary is None:
                continue
            for dep in summary.deps:
                if dep in self.modules and dep not in seen:
                    frontier.append(dep)
        return seen
