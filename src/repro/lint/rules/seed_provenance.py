"""REP009 — seed provenance across call boundaries.

The repo's reproducibility contract says every RNG consumed on a
run-experiment path derives from ``numpy.random.SeedSequence.spawn``:
spawned children are statistically independent and their derivation
is order-insensitive, while ad-hoc arithmetic (``seed * 1000 + i``)
silently correlates streams and couples results to loop order.  The
file-local REP004 catches ``default_rng(seed + i)`` written directly
at the call site; this rule catches the laundered version — a helper
in one module computing the arithmetic and a consumer in another
module feeding its return value to ``default_rng``.

The taint pass labels every binary-arithmetic expression over
variables; ``SeedSequence.spawn(...)`` results are relabelled clean
(that is the sanctioned derivation); a labelled value reaching
``numpy.random.default_rng``/``Generator``/``SeedSequence``'s seed
argument — in this function or any transitive callee — is a finding.
Direct single-expression arithmetic at the sink is left to REP004
(``skip_direct_binop``) so one mistake yields one finding.

Scope: modules transitively imported by :mod:`repro.api` or the
campaign runner — the paths whose determinism the CI gate
actually diffs.  Code outside that closure (one-off analysis
scripts) may derive seeds however it likes.
"""

from __future__ import annotations

from typing import Iterable

from repro.lint.dataflow import (Finding, SinkSpec, TaintAnalysis,
                                 TaintSpec)
from repro.lint.framework import ProjectRule, Violation
from repro.lint.project import Project

__all__ = ["SeedProvenanceRule"]

#: Roots whose import closure bounds the rule (the gated run paths).
_SCOPE_ROOTS = ["repro.api", "repro.campaign.runner"]

_RNG_SINKS = {
    "numpy.random.default_rng": SinkSpec(
        name="default_rng", arg_indices=frozenset({0}),
        keywords=frozenset({"seed"}), skip_direct_binop=True),
    "numpy.random.Generator": SinkSpec(
        name="Generator", arg_indices=frozenset({0}),
        skip_direct_binop=True),
    "numpy.random.SeedSequence": SinkSpec(
        name="SeedSequence", arg_indices=frozenset({0}),
        keywords=frozenset({"entropy"}), skip_direct_binop=True),
    "numpy.random.PCG64": SinkSpec(
        name="PCG64", arg_indices=frozenset({0}),
        skip_direct_binop=True),
}


def build_spec() -> TaintSpec:
    """The REP009 taint configuration (exposed for tests)."""
    return TaintSpec(
        sinks=dict(_RNG_SINKS),
        #: ``ss.spawn(n)`` is the sanctioned derivation — its result
        #: is clean no matter what fed the parent sequence.
        tail_sources={"spawn": ("spawned",)},
        transparent=frozenset({"int", "abs", "list", "tuple"}),
        killers=frozenset({"len"}),
        arithmetic_label=True,
        report_kinds=frozenset({"arith"}),
    )


def _message(finding: Finding) -> str:
    message = (f"seed derived by arithmetic reaches "
               f"{finding.sink}")
    if finding.via is not None:
        message += f" via {finding.via}"
    return (message + "; derive child seeds with "
            "SeedSequence.spawn() instead")


class SeedProvenanceRule(ProjectRule):
    """Cross-module seed provenance (REP009)."""

    rule_id = "REP009"
    summary = "RNG on a run path seeded by cross-module seed " \
              "arithmetic instead of SeedSequence.spawn"

    def check_project(self, project: Project) -> Iterable[Violation]:
        scope = project.import_closure(list(_SCOPE_ROOTS))
        scope_paths = {project.modules[name].path for name in scope}
        findings = TaintAnalysis(project, build_spec()).run()
        seen: set[tuple[str, int, int, str]] = set()
        for finding in findings:
            if scope_paths and finding.path not in scope_paths:
                continue
            key = (finding.path, finding.line, finding.col,
                   finding.sink)
            if key in seen:
                continue
            seen.add(key)
            yield Violation(path=finding.path, line=finding.line,
                            col=finding.col, rule=self.rule_id,
                            message=_message(finding))
