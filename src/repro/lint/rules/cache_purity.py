"""REP003 — cache purity.

The three-level cache hierarchy (``src/repro/perf/``) is only sound
if a stored value is a pure deterministic function of its key's
preimage: L2 entries are served to every later task on the same pool
worker and L3 entries across runs, so any impurity becomes an
irreproducible wrong answer long after the code that computed it has
scrolled away.

Mechanical checks for files under ``perf/``:

* **``repr()``/``str()`` bytes in keys** — key digests must hash the
  exact bytes of their operands (``tobytes()``, IEEE-754 for floats),
  never a printed form: ``repr(0.1)`` depends on the repr algorithm,
  not the value's bits, and silently aliases distinct keys (or splits
  equal ones).  Flagged: ``repr(...).encode()`` anywhere, and
  ``str(x).encode()`` where ``x`` is a bare name (an attribute or a
  coercion like ``str(int(x))`` is deterministic by construction);
  plus f-strings inside ``*key*``/``*digest*`` functions.
* **``global`` rebinding** — cache lifecycle singletons are the only
  sanctioned module rebinding, and each site must carry a justified
  suppression so the set stays audited.
* **mutable default arguments** — a shared default dict/list is
  cross-call state that leaks between cache lookups.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.framework import (
    FileContext,
    Rule,
    Violation,
    builder_fstrings,
)

__all__ = ["CachePurity"]

_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp,
                     ast.SetComp, ast.DictComp)


def _call_name(node: ast.Call) -> str | None:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


class CachePurity(Rule):
    rule_id = "REP003"
    summary = ("cache keys must hash exact bytes and cached callables "
               "may not rely on mutable module state")

    def applies(self, posix_path: str) -> bool:
        return "/perf/" in posix_path or posix_path.startswith("perf/")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._printed_bytes(ctx, node)
            elif isinstance(node, ast.Global):
                yield ctx.violation(
                    node, self.rule_id,
                    f"'global {', '.join(node.names)}' in a cache "
                    f"module; only audited lifecycle singletons may "
                    f"rebind module state (suppress with a "
                    f"justification if this is one)")
            elif isinstance(node, (ast.FunctionDef,
                                   ast.AsyncFunctionDef)):
                yield from self._mutable_defaults(ctx, node)
        for func, node in builder_fstrings(ctx, ("key", "digest")):
            yield ctx.violation(
                node, self.rule_id,
                f"f-string inside key builder {func.name}(); "
                f"interpolation prints values — hash exact "
                f"bytes instead")

    def _printed_bytes(self, ctx: FileContext,
                       node: ast.Call) -> Iterator[Violation]:
        if not (isinstance(node.func, ast.Attribute)
                and node.func.attr == "encode"
                and isinstance(node.func.value, ast.Call)):
            return
        inner = node.func.value
        name = _call_name(inner)
        if name == "repr":
            yield ctx.violation(
                node, self.rule_id,
                "hashes repr() bytes; key digests must use exact "
                "bytes (tobytes()/IEEE-754), printed forms alias "
                "distinct floats")
        elif name == "str" and inner.args and \
                isinstance(inner.args[0], (ast.Name, ast.Constant,
                                           ast.BinOp)):
            yield ctx.violation(
                node, self.rule_id,
                "hashes str() of a value; if it can be a float the "
                "printed form is not its bytes — add an explicit "
                "exact-byte branch instead")

    def _mutable_defaults(self, ctx: FileContext,
                          func: ast.FunctionDef | ast.AsyncFunctionDef,
                          ) -> Iterator[Violation]:
        for default in (*func.args.defaults, *func.args.kw_defaults):
            if default is None:
                continue
            if isinstance(default, _MUTABLE_LITERALS):
                yield ctx.violation(
                    default, self.rule_id,
                    f"mutable default argument in {func.name}(); the "
                    f"shared instance is cross-call cache state")
