"""REP007 — campaign purity.

A campaign cell's digest is its identity: it is the unit of resume
(completed digests are skipped), of coalescing (equal digests run
once) and of the cross-``jobs`` byte-identity contract on the results
store.  That only works if the digest preimage is a pure function of
the cell's deterministic spec record — the same fields the run
manifest's ``deterministic_view`` carries — and of nothing else.  One
``os.getpid()`` or ``datetime.now()`` in the preimage and every
re-run recomputes the whole grid while reporting "0 skipped" bugs
that no unit test on a single machine can catch.

Mechanical checks for files under ``campaign/`` (mirroring REP003's
key-purity checks for ``perf/``):

* **machine/process identity anywhere** — ``os.getpid``/``getppid``/
  ``uname``, ``socket.gethostname``/``getfqdn``, ``platform.node``/
  ``uname``, ``uuid.uuid1``/``uuid4``, ``getpass.getuser`` and any
  ``secrets.*`` call: worker ids, hostnames and random tokens must
  never exist in campaign code where they could leak into a record
  (wall-clock is already policed repo-wide by REP005);
* **printed bytes in digest builders** — ``repr(...).encode()`` and
  f-strings inside functions with ``digest`` in their name: digests
  hash canonical JSON of explicit fields, never interpolated reprs
  (error messages under ``raise`` are exempt).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.framework import (
    FileContext,
    Rule,
    Violation,
    builder_fstrings,
    iter_function_defs,
)

__all__ = ["CampaignPurity"]

_IDENTITY_CALLS = {
    ("os", "getpid"), ("os", "getppid"), ("os", "uname"),
    ("socket", "gethostname"), ("socket", "getfqdn"),
    ("platform", "node"), ("platform", "uname"),
    ("uuid", "uuid1"), ("uuid", "uuid4"),
    ("getpass", "getuser"),
}


def _dotted(node: ast.AST) -> tuple[str, str] | None:
    """``(base, attr)`` for simple ``base.attr`` / ``a.base.attr``."""
    if not isinstance(node, ast.Attribute):
        return None
    value = node.value
    if isinstance(value, ast.Name):
        return value.id, node.attr
    if isinstance(value, ast.Attribute):
        return value.attr, node.attr
    return None


class CampaignPurity(Rule):
    rule_id = "REP007"
    summary = ("campaign cell digests must derive only from the "
               "deterministic spec record — no process, host or "
               "random identity")

    def applies(self, posix_path: str) -> bool:
        return ("/campaign/" in posix_path
                or posix_path.startswith("campaign/"))

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._identity_call(ctx, node)
        yield from self._digest_builders(ctx)

    def _identity_call(self, ctx: FileContext,
                       node: ast.Call) -> Iterator[Violation]:
        dotted = _dotted(node.func)
        if dotted is None:
            return
        base, attr = dotted
        if dotted in _IDENTITY_CALLS:
            yield ctx.violation(
                node, self.rule_id,
                f"{base}.{attr}() is machine/process identity; campaign "
                f"records and digests must be a pure function of the "
                f"deterministic spec record — identical on every host "
                f"and worker")
        elif base == "secrets":
            yield ctx.violation(
                node, self.rule_id,
                f"secrets.{attr}() is nondeterministic by design; "
                f"campaign cells are keyed by content digest, never "
                f"by random token")

    def _digest_builders(self, ctx: FileContext) -> Iterator[Violation]:
        for func in iter_function_defs(ctx.tree):
            if "digest" not in func.name.lower():
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and \
                        isinstance(node.func, ast.Attribute) and \
                        node.func.attr == "encode" and \
                        isinstance(node.func.value, ast.Call) and \
                        isinstance(node.func.value.func, ast.Name) and \
                        node.func.value.func.id == "repr":
                    yield ctx.violation(
                        node, self.rule_id,
                        f"repr().encode() inside digest builder "
                        f"{func.name}(); digests hash canonical JSON "
                        f"of explicit fields, not printed forms")
        for func, node in builder_fstrings(ctx, ("digest",)):
            yield ctx.violation(
                node, self.rule_id,
                f"f-string inside digest builder {func.name}(); "
                f"interpolation prints values — build the "
                f"preimage as an explicit mapping and hash its "
                f"canonical JSON")
