"""Forward taint analysis over the project IR.

The engine is generic: a :class:`TaintSpec` names source calls (whose
results carry a label), sink calls (where labelled values must not
arrive), sanitizers and transparent wrappers; the analysis then runs a
whole-project fixpoint over the function summaries built by
:mod:`repro.lint.project` and reports every sink reached by a
reportable label — including flows that cross call boundaries in
either direction.

Labels are small tuples.  Concrete labels name an origin
(``("clock", "time.monotonic")``); the placeholder ``("param", i)``
stands for "whatever the caller passes as parameter *i*" and is
translated through call sites by the fixpoint, which is what makes
the pass interprocedural: a callee that forwards parameter 2 into a
sink produces one ``param→sink`` fact, and every caller that passes a
concretely-labelled value in that position yields a finding *at the
call site*.

Deliberate imprecision (documented in ``docs/STATIC_ANALYSIS.md``):

* field-blind — attribute stores kill taint, attribute loads are
  clean;
* flow-insensitive within a function — assignments union rather than
  overwrite, so re-binding a name does not launder a label, at the
  cost of occasional false positives;
* unresolvable calls conservatively propagate the union of their
  argument labels to their result and never act as sinks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lint.project import (CallIR, ExprIR, FunctionInfo,
                                ModuleSummary, Project)

__all__ = [
    "Finding",
    "FunctionFacts",
    "SinkSpec",
    "TaintAnalysis",
    "TaintSpec",
]

Label = tuple[str, ...]

_MAX_ROUNDS = 20
_MAX_LOCAL_PASSES = 8


@dataclass(frozen=True)
class SinkSpec:
    """One sink call: which arguments must stay label-free."""

    name: str  # short human name for messages
    all_args: bool = False
    arg_indices: frozenset[int] = frozenset()
    keywords: frozenset[str] = frozenset()
    #: Skip reporting an "arith" label when the argument expression is
    #: itself the arithmetic (a file-local rule already flags that).
    skip_direct_binop: bool = False


@dataclass(frozen=True)
class TaintSpec:
    """Configuration of one taint pass."""

    #: fully-qualified callee → concrete label its result carries
    sources: dict[str, Label] = field(default_factory=dict)
    #: trailing attribute name → label (``{"spawn": ("spawned",)}``)
    #: for methods on computed receivers
    tail_sources: dict[str, Label] = field(default_factory=dict)
    #: fully-qualified callee → sink description
    sinks: dict[str, SinkSpec] = field(default_factory=dict)
    #: calls that strip order-dependence labels from their arguments
    sanitizers: frozenset[str] = frozenset()
    #: calls whose result carries exactly its arguments' labels
    transparent: frozenset[str] = frozenset()
    #: calls whose result is always clean (``len``)
    killers: frozenset[str] = frozenset()
    #: add an ("arith",) label to binary-op expressions over names
    arithmetic_label: bool = False
    #: track set construction / iteration order labels
    set_labels: bool = False
    #: label kinds that constitute a finding when they reach a sink
    report_kinds: frozenset[str] = frozenset()

    def is_reportable(self, label: Label) -> bool:
        return bool(label) and label[0] in self.report_kinds


@dataclass(frozen=True)
class Finding:
    """One sink reached by a reportable label."""

    path: str
    line: int
    col: int
    sink: str
    label: Label
    #: callee the flow passed through, for call-site findings
    via: str | None = None


@dataclass
class FunctionFacts:
    """Interprocedural summary of one function."""

    returns: set[Label] = field(default_factory=set)
    #: param index → sink names its value reaches in the callee
    param_sink: dict[int, set[str]] = field(default_factory=dict)


FnKey = tuple[str, str]  # (module name, qualname)


def _param_offset(info: FunctionInfo) -> int:
    """1 for methods (``self``/``cls`` receives no argument)."""
    if info.params and info.params[0] in ("self", "cls"):
        return 1
    return 0


class TaintAnalysis:
    """One spec applied to one project."""

    def __init__(self, project: Project, spec: TaintSpec) -> None:
        self.project = project
        self.spec = spec
        self.facts: dict[FnKey, FunctionFacts] = {}
        self._hits: set[Finding] = set()
        for summary, info in project.iter_functions():
            self.facts[(summary.name, info.qualname)] = FunctionFacts()

    # -- public API ----------------------------------------------------
    def run(self) -> list[Finding]:
        """Fixpoint over all functions; returns sorted findings."""
        for _ in range(_MAX_ROUNDS):
            changed = False
            for summary, info in self.project.iter_functions():
                if self._analyze(summary, info):
                    changed = True
            if not changed:
                break
        return sorted(self._hits,
                      key=lambda f: (f.path, f.line, f.col, f.sink,
                                     f.label, f.via or ""))

    # -- per-function abstract interpretation --------------------------
    def _analyze(self, summary: ModuleSummary, info: FunctionInfo,
                 ) -> bool:
        key = (summary.name, info.qualname)
        facts = self.facts[key]
        before = (frozenset(facts.returns),
                  tuple(sorted((k, frozenset(v))
                               for k, v in facts.param_sink.items())),
                  len(self._hits))
        env: dict[str, set[Label]] = {}
        for index, name in enumerate(info.params):
            if name in ("self", "cls") and index == 0:
                continue
            env[name] = {("param", str(index))}
        for _ in range(_MAX_LOCAL_PASSES):
            snapshot = {name: set(labels) for name, labels in env.items()}
            for kind, targets, expr in info.ops:
                labels = self._eval_expr(summary, info, facts, env, expr)
                if kind == "iter":
                    labels = self._iteration_labels(labels, expr)
                if kind in ("assign", "iter"):
                    for target in targets:
                        env.setdefault(target, set()).update(labels)
                elif kind == "return":
                    facts.returns.update(labels)
            if env == snapshot:
                break
        after = (frozenset(facts.returns),
                 tuple(sorted((k, frozenset(v))
                              for k, v in facts.param_sink.items())),
                 len(self._hits))
        return before != after

    def _iteration_labels(self, labels: set[Label], expr: ExprIR,
                          ) -> set[Label]:
        """Iterating a set makes order-dependence concrete."""
        if not self.spec.set_labels:
            return labels
        if expr.isset or ("setval",) in labels:
            labels = {lab for lab in labels if lab != ("setval",)}
            labels.add(("hashorder", "set-iteration"))
        return labels

    def _eval_expr(self, summary: ModuleSummary, info: FunctionInfo,
                   facts: FunctionFacts, env: dict[str, set[Label]],
                   expr: ExprIR) -> set[Label]:
        labels: set[Label] = set()
        for name in expr.names:
            labels.update(env.get(name, ()))
        for call in expr.calls:
            labels.update(self._eval_call(summary, info, facts, env,
                                          call))
        if self.spec.arithmetic_label and expr.binop and \
                (expr.names or expr.calls):
            labels.add(("arith",))
        if self.spec.set_labels and expr.isset:
            labels.add(("setval",))
        return labels

    def _eval_call(self, summary: ModuleSummary, info: FunctionInfo,
                   facts: FunctionFacts, env: dict[str, set[Label]],
                   call: CallIR) -> set[Label]:
        spec = self.spec
        arg_labels = [self._eval_expr(summary, info, facts, env, arg)
                      for arg in call.args]
        kw_labels = [(name, self._eval_expr(summary, info, facts, env,
                                            value))
                     for name, value in call.keywords]
        merged: set[Label] = set()
        for labels in arg_labels:
            merged.update(labels)
        for _, labels in kw_labels:
            merged.update(labels)
        if call.recv is not None:
            merged.update(self._eval_expr(summary, info, facts, env,
                                          call.recv))
        # A method on a local variable propagates the receiver too
        # (``tainted.encode()`` stays tainted).
        receiver: set[Label] = set()
        if call.ref is not None and "." in call.ref:
            head = call.ref.split(".", 1)[0]
            receiver = env.get(head, set())
        merged.update(receiver)

        qualified = self.project.resolve_ref(summary, info, call.ref)
        if qualified in spec.sources:
            return {spec.sources[qualified]}
        tail = call.ref.rsplit(".", 1)[1] \
            if call.ref is not None and "." in call.ref else None
        if tail is not None and tail in spec.tail_sources:
            return {spec.tail_sources[tail]}
        if qualified in spec.killers:
            return set()
        if qualified in spec.sanitizers:
            return {lab for lab in merged
                    if lab[0] not in ("setval", "hashorder")}
        if qualified in spec.sinks:
            self._check_sink(summary, info, facts, spec.sinks[qualified],
                             call, arg_labels, kw_labels)
        if qualified in spec.transparent:
            return self._convert_set_labels(qualified, merged)
        resolved = self.project.function_for(qualified)
        if resolved is not None:
            return self._through_callee(summary, info, facts, call,
                                        arg_labels, kw_labels,
                                        resolved[0], resolved[1])
        if spec.set_labels and qualified in ("set", "frozenset"):
            merged.add(("setval",))
        return merged

    def _convert_set_labels(self, qualified: str | None,
                            labels: set[Label]) -> set[Label]:
        """``list(a_set)`` fixes an order: latent becomes concrete."""
        if self.spec.set_labels and qualified in ("list", "tuple") and \
                ("setval",) in labels:
            labels = {lab for lab in labels if lab != ("setval",)}
            labels.add(("hashorder", "set-order"))
        return labels

    # -- call boundary translation -------------------------------------
    def _labels_for_param(self, callee: FunctionInfo, param_index: int,
                          arg_labels: list[set[Label]],
                          kw_labels: list[tuple[str | None, set[Label]]],
                          ) -> set[Label]:
        offset = _param_offset(callee)
        positional = param_index - offset
        if 0 <= positional < len(arg_labels):
            return arg_labels[positional]
        if 0 <= param_index < len(callee.params):
            wanted = callee.params[param_index]
            for name, labels in kw_labels:
                if name == wanted:
                    return labels
        return set()

    def _through_callee(self, summary: ModuleSummary, info: FunctionInfo,
                        facts: FunctionFacts, call: CallIR,
                        arg_labels: list[set[Label]],
                        kw_labels: list[tuple[str | None, set[Label]]],
                        callee_summary: ModuleSummary,
                        callee: FunctionInfo) -> set[Label]:
        callee_facts = self.facts[(callee_summary.name, callee.qualname)]
        result: set[Label] = set()
        for label in callee_facts.returns:
            if label[0] == "param":
                result.update(self._labels_for_param(
                    callee, int(label[1]), arg_labels, kw_labels))
            else:
                result.add(label)
        for param_index in sorted(callee_facts.param_sink):
            sinks = callee_facts.param_sink[param_index]
            incoming = self._labels_for_param(callee, param_index,
                                              arg_labels, kw_labels)
            for label in incoming:
                if self.spec.is_reportable(label):
                    for sink in sorted(sinks):
                        self._hits.add(Finding(
                            path=summary.path, line=call.line,
                            col=call.col, sink=sink, label=label,
                            via=f"{callee_summary.name}."
                                f"{callee.qualname}"))
                elif label[0] == "param":
                    own = facts.param_sink.setdefault(int(label[1]),
                                                      set())
                    own.update(sinks)
        return result

    def _check_sink(self, summary: ModuleSummary, info: FunctionInfo,
                    facts: FunctionFacts, sink: SinkSpec, call: CallIR,
                    arg_labels: list[set[Label]],
                    kw_labels: list[tuple[str | None, set[Label]]],
                    ) -> None:
        checked: list[tuple[ExprIR, set[Label]]] = []
        for index, labels in enumerate(arg_labels):
            if sink.all_args or index in sink.arg_indices:
                checked.append((call.args[index], labels))
        for (name, labels), (_, value) in zip(kw_labels, call.keywords):
            if name is None:
                continue
            if sink.all_args or name in sink.keywords:
                checked.append((value, labels))
        for expr, labels in checked:
            for label in labels:
                if not self.spec.is_reportable(label):
                    if label[0] == "param":
                        own = facts.param_sink.setdefault(
                            int(label[1]), set())
                        own.add(sink.name)
                    continue
                if label == ("arith",) and sink.skip_direct_binop and \
                        expr.binop:
                    continue
                self._hits.add(Finding(
                    path=summary.path, line=call.line, col=call.col,
                    sink=sink.name, label=label, via=None))
