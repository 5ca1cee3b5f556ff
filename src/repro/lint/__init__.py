"""reprolint — domain-specific static analysis for the reproduction.

Seven file-local AST rules plus two cross-module dataflow rules turn
the model's semantic invariants into compile-time failures (see
``docs/STATIC_ANALYSIS.md``, which also records the mutation audit
that keeps each of them):

==========  =========================================================
REP001      tolerance discipline: float comparisons go through
            :mod:`repro.geometry.tolerance`, never raw literals
REP002      obliviousness: robot algorithms are pure functions of the
            local observation (the paper's robot model)
REP003      cache purity: L1/L2/L3 keys hash exact bytes; no mutable
            module state behind cached callables
REP004      seeding discipline: every stream descends from a seeded
            ``SeedSequence``; ``spawn`` is the only fan-out
REP005      row determinism: no wall-clock, unsorted filesystem
            listings, or hash-order iteration feeding experiment rows
REP007      campaign purity: cell digests derive only from the
            deterministic spec record
REP008      determinism taint: no clock/identity/set-order value
            flows — across modules — into rows, digests, manifests
            or cache keys
REP009      seed provenance: no cross-module seed arithmetic feeding
            an RNG on a run path; ``SeedSequence.spawn`` only
REP011      facade contract: public ``repro.api``/``repro.campaign``/
            ``repro.serve`` signatures fully annotated; no plain
            assignments on facade record classes
==========  =========================================================

REP001–REP005, REP007 and REP011 are pure functions of one file;
REP008 and REP009 run on the whole-project IR built by
:mod:`repro.lint.project` and flow values through
:mod:`repro.lint.dataflow`.  Every run parses and analyses every
file; reports are text or the schema-1 JSON (``--format json``).

Suppress a false positive inline, justification mandatory::

    x = 1e-300  # reprolint: disable=REP001 -- underflow guard, not a tolerance

Run as ``python -m repro.lint [paths...]`` or ``repro lint``.
"""

from __future__ import annotations

from repro.lint.cli import main, report_as_json
from repro.lint.framework import (
    FileContext,
    LintReport,
    Rule,
    Violation,
    lint_file,
    run_paths,
)
from repro.lint.rules import RULE_CLASSES, default_rules

__all__ = [
    "FileContext",
    "LintReport",
    "Rule",
    "RULE_CLASSES",
    "Violation",
    "default_rules",
    "lint_file",
    "main",
    "report_as_json",
    "run_paths",
]
