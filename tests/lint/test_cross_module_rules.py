"""Good/bad fixture pairs for the cross-module rules REP008 and
REP009, and for the façade rule REP011, linted as whole trees.

Every *bad* REP008/REP009 case here includes at least one positive
that a single-file pass provably cannot detect: the same consumer file
linted on its own (the callee module absent from the project) must
report nothing, while the full tree must report the flow.  REP011 is
a file rule; its fixtures write ``src/repro/...`` trees all the same.
"""


def rules_of(report):
    return [v.rule for v in report.violations]


def by_rule(report, rule_id):
    return [v for v in report.violations if v.rule == rule_id]


# ---------------------------------------------------------------------------
# REP008 — determinism taint
# ---------------------------------------------------------------------------

_CLOCK_HELPER = """\
    from repro.obs import clock

    def stamp() -> float:
        return clock.monotonic()
"""


class TestRep008DeterminismTaint:
    def test_clock_through_helper_reaches_digest(self, lint_tree):
        report = lint_tree({
            "src/repro/helper.py": _CLOCK_HELPER,
            "src/repro/consumer.py": """\
                from repro.helper import stamp
                from repro.perf.stats import exact_digest

                def key() -> bytes:
                    t = stamp()
                    return exact_digest(b"k", t)
            """,
        })
        found = by_rule(report, "REP008")
        assert len(found) == 1
        assert found[0].path == "src/repro/consumer.py"
        assert found[0].line == 6
        assert "clock" in found[0].message
        assert "exact_digest" in found[0].message

    def test_single_file_pass_cannot_see_the_flow(self, lint_tree):
        # The consumer alone: ``stamp`` is unresolvable, so no taint.
        report = lint_tree({
            "src/repro/consumer.py": """\
                from repro.helper import stamp
                from repro.perf.stats import exact_digest

                def key() -> bytes:
                    t = stamp()
                    return exact_digest(b"k", t)
            """,
        })
        assert by_rule(report, "REP008") == []

    def test_callee_side_sink_reports_at_call_site(self, lint_tree):
        # The tainted value is produced by the caller and sunk by the
        # callee: the finding lands at the call site, naming the
        # callee it flowed through.
        report = lint_tree({
            "src/repro/sinkmod.py": """\
                from repro.perf.stats import exact_digest

                def remember(value) -> bytes:
                    return exact_digest(b"k", value)
            """,
            "src/repro/caller.py": """\
                from repro.obs import clock
                from repro.sinkmod import remember

                def record() -> bytes:
                    t = clock.monotonic()
                    return remember(t)
            """,
        })
        found = by_rule(report, "REP008")
        assert len(found) == 1
        assert found[0].path == "src/repro/caller.py"
        assert "via repro.sinkmod.remember" in found[0].message

    def test_identity_into_manifest_keyword(self, lint_tree):
        report = lint_tree({
            "src/repro/idhelper.py": """\
                import os

                def whoami() -> int:
                    return os.getpid()
            """,
            "src/repro/maker.py": """\
                from repro.idhelper import whoami
                from repro.obs.manifest import build_manifest

                def manifest(spec, rows, metrics):
                    return build_manifest(
                        experiment="x", spec=spec, rows=rows,
                        metrics=metrics, phase_totals={},
                        seed_streams=whoami())
            """,
        })
        found = by_rule(report, "REP008")
        assert len(found) == 1
        assert "identity" in found[0].message

    def test_phase_totals_keyword_is_exempt(self, lint_tree):
        # ``phase_totals`` is stripped by deterministic_view, so a
        # clock value there is fine by design.
        report = lint_tree({
            "src/repro/helper.py": _CLOCK_HELPER,
            "src/repro/maker.py": """\
                from repro.helper import stamp
                from repro.obs.manifest import build_manifest

                def manifest(spec, rows, metrics):
                    return build_manifest(
                        experiment="x", spec=spec, rows=rows,
                        metrics=metrics,
                        phase_totals={"total": stamp()})
            """,
        })
        assert by_rule(report, "REP008") == []

    def test_set_order_laundered_through_list(self, lint_tree):
        report = lint_tree({
            "src/repro/sethelper.py": """\
                def keys(mapping) -> list:
                    pending = set(mapping)
                    return list(pending)
            """,
            "src/repro/consumer.py": """\
                from repro.sethelper import keys
                from repro.perf.stats import exact_digest

                def digest(mapping) -> bytes:
                    return exact_digest(*keys(mapping))
            """,
        })
        found = by_rule(report, "REP008")
        assert len(found) == 1
        assert "set" in found[0].message

    def test_sorted_sanitizes_set_order(self, lint_tree):
        report = lint_tree({
            "src/repro/sethelper.py": """\
                def keys(mapping) -> list:
                    pending = set(mapping)
                    return sorted(pending)
            """,
            "src/repro/consumer.py": """\
                from repro.sethelper import keys
                from repro.perf.stats import exact_digest

                def digest(mapping) -> bytes:
                    return exact_digest(*keys(mapping))
            """,
        })
        assert by_rule(report, "REP008") == []

    def test_clock_not_reaching_a_sink_is_fine(self, lint_tree):
        report = lint_tree({
            "src/repro/helper.py": _CLOCK_HELPER,
            "src/repro/journal.py": """\
                from repro.helper import stamp

                def entry() -> dict:
                    return {"elapsed": stamp()}
            """,
        })
        assert by_rule(report, "REP008") == []


# ---------------------------------------------------------------------------
# REP009 — seed provenance
# ---------------------------------------------------------------------------


class TestRep009SeedProvenance:
    def test_cross_module_seed_arithmetic(self, lint_tree):
        report = lint_tree({
            "src/repro/derive.py": """\
                def child_seed(seed: int, trial: int) -> int:
                    return seed * 1000 + trial
            """,
            "src/repro/runner.py": """\
                from numpy.random import default_rng

                from repro.derive import child_seed

                def stream(seed: int, trial: int):
                    return default_rng(child_seed(seed, trial))
            """,
        })
        found = by_rule(report, "REP009")
        assert len(found) == 1
        assert found[0].path == "src/repro/runner.py"
        assert "SeedSequence.spawn" in found[0].message

    def test_single_file_pass_cannot_see_the_arithmetic(self,
                                                        lint_tree):
        report = lint_tree({
            "src/repro/runner.py": """\
                from numpy.random import default_rng

                from repro.derive import child_seed

                def stream(seed: int, trial: int):
                    return default_rng(child_seed(seed, trial))
            """,
        })
        assert by_rule(report, "REP009") == []

    def test_spawned_children_are_sanctioned(self, lint_tree):
        report = lint_tree({
            "src/repro/derive.py": """\
                import numpy as np

                def child_seeds(seed: int, count: int) -> list:
                    parent = np.random.SeedSequence(int(seed))
                    return list(parent.spawn(int(count)))
            """,
            "src/repro/runner.py": """\
                from numpy.random import default_rng

                from repro.derive import child_seeds

                def streams(seed: int, count: int) -> list:
                    return [default_rng(child)
                            for child in child_seeds(seed, count)]
            """,
        })
        assert by_rule(report, "REP009") == []

    def test_plain_seed_passthrough_is_fine(self, lint_tree):
        report = lint_tree({
            "src/repro/runner.py": """\
                from numpy.random import default_rng

                def stream(seed: int):
                    return default_rng(seed)
            """,
        })
        assert by_rule(report, "REP009") == []

    def test_scope_excludes_modules_outside_run_paths(self, lint_tree):
        # With a ``repro.api`` in the project, only its import
        # closure is in scope: the same bad flow in an unrelated
        # analysis script is not reported.
        files = {
            "src/repro/api.py": """\
                from repro.derive import child_seed

                def run_experiment(name: str, seed: int) -> int:
                    return child_seed(seed, 0)
            """,
            "src/repro/derive.py": """\
                def child_seed(seed: int, trial: int) -> int:
                    return seed * 1000 + trial
            """,
            "src/repro/scratch.py": """\
                from numpy.random import default_rng

                from repro.derive import child_seed

                def stream(seed: int, trial: int):
                    return default_rng(child_seed(seed, trial))
            """,
        }
        report = lint_tree(files)
        assert by_rule(report, "REP009") == []
        # ...but the moment the api itself imports the consumer, the
        # flow is on a gated path and is reported.
        files["src/repro/api.py"] = """\
            from repro.scratch import stream

            def run_experiment(name: str, seed: int):
                return stream(seed, 0)
        """
        report = lint_tree(files)
        found = by_rule(report, "REP009")
        assert len(found) == 1
        assert found[0].path == "src/repro/scratch.py"


# ---------------------------------------------------------------------------
# REP011 — facade typing and record fields
# ---------------------------------------------------------------------------


class TestRep011FacadeContract:
    def test_unannotated_public_facade_function(self, lint_tree):
        report = lint_tree({
            "src/repro/api.py": """\
                def run_experiment(name, spec) -> dict:
                    return {}

                def _internal(x):
                    return x
            """,
        })
        found = by_rule(report, "REP011")
        assert len(found) == 2
        assert all("run_experiment" in v.message for v in found)

    def test_fully_annotated_facade_is_fine(self, lint_tree):
        report = lint_tree({
            "src/repro/api.py": """\
                def run_experiment(name: str, spec: dict) -> dict:
                    return {}
            """,
        })
        assert by_rule(report, "REP011") == []

    def test_non_facade_modules_are_not_held_to_it(self, lint_tree):
        report = lint_tree({
            "src/repro/perf/stats.py": """\
                def accumulate(values):
                    return sum(values)
            """,
        })
        assert by_rule(report, "REP011") == []

    def test_varargs_and_return_are_checked(self, lint_source):
        # A file rule: the facade module alone is enough.
        violations, _ = lint_source("src/repro/api.py", """\
            def typed(a: int) -> int:
                return a

            def untyped(a, *rest, **kw):
                return a
        """)
        messages = sorted(v.message for v in violations
                          if v.rule == "REP011")
        assert messages == [
            f"public facade signature `untyped` leaves {what} "
            f"unannotated"
            for what in ("parameter `**kw`", "parameter `*rest`",
                         "parameter `a`", "return type")]

    def test_private_and_dunder_methods_exempt(self, lint_tree):
        report = lint_tree({
            "src/repro/api.py": """\
                class Box:
                    def __init__(self, a):
                        self.a = a

                    def _grow(self, by):
                        return by

                class _Hidden:
                    def run(self, x):
                        return x
            """,
        })
        assert by_rule(report, "REP011") == []

    def test_plain_assignment_on_record_class(self, lint_tree):
        # `retries = 3` is not a dataclass field: it never reaches
        # asdict, the wire, or a digest.
        report = lint_tree({
            "src/repro/api.py": """\
                class RunQuery:
                    name: str
                    seed: int
                    retries = 3
            """,
        })
        found = by_rule(report, "REP011")
        assert len(found) == 1
        assert found[0].line == 4
        assert "retries" in found[0].message

    def test_plain_attrs_on_non_record_classes_are_fine(self, lint_tree):
        # No annotated fields → not record-shaped; class constants and
        # __slots__ are legitimate.
        report = lint_tree({
            "src/repro/api.py": """\
                class Dispatcher:
                    kind = "inline"

                    def dispatch(self, task: tuple) -> dict:
                        return {}
            """,
        })
        assert by_rule(report, "REP011") == []

    def test_private_plain_fields_are_fine(self, lint_tree):
        report = lint_tree({
            "src/repro/api.py": """\
                class RunQuery:
                    name: str
                    _cached = None
                    __slots__ = ("name",)
            """,
        })
        assert by_rule(report, "REP011") == []
