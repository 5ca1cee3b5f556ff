"""Unit tests for the cross-module engine: module summaries, the
IR, and project-level resolution."""

import ast
import textwrap

from repro.lint.project import (Project, module_name_for,
                                summarize_module)


def summarize(path, source):
    return summarize_module(path, ast.parse(textwrap.dedent(source)))


class TestModuleNames:
    def test_src_layout_root_is_stripped(self):
        assert module_name_for("src/repro/obs/clock.py") == \
            "repro.obs.clock"

    def test_package_init_maps_to_package(self):
        assert module_name_for("src/repro/campaign/__init__.py") == \
            "repro.campaign"

    def test_non_src_paths_keep_their_prefix(self):
        assert module_name_for("benchmarks/bench_x.py") == \
            "benchmarks.bench_x"


class TestSummaries:
    def test_functions_methods_and_nested(self):
        summary = summarize("src/repro/m.py", """\
            def top():
                def inner():
                    return 1
                return inner()

            class Box:
                def get(self):
                    return 1
        """)
        assert set(summary.functions) >= \
            {"top", "top.inner", "Box.get", "<module>"}
        assert summary.functions["Box.get"].cls == "Box"

    def test_class_fields_from_annotations(self):
        summary = summarize("src/repro/m.py", """\
            class Spec:
                trials: int
                seed: int | None = None
        """)
        assert summary.class_fields["Spec"] == ("trials", "seed")


class TestProjectResolution:
    def project(self):
        helper = summarize("src/repro/helper.py", """\
            def stamp():
                return 1
        """)
        consumer = summarize("src/repro/consumer.py", """\
            from repro.helper import stamp
            from repro import helper

            class Box:
                def run(self):
                    return self.step()

                def step(self):
                    return stamp() + helper.stamp()
        """)
        return Project([helper, consumer]), consumer

    def test_imported_name_resolves(self):
        project, consumer = self.project()
        info = consumer.functions["Box.step"]
        assert project.resolve_ref(consumer, info, "stamp") == \
            "repro.helper.stamp"
        assert project.resolve_ref(consumer, info, "helper.stamp") == \
            "repro.helper.stamp"

    def test_self_method_resolves_to_class(self):
        project, consumer = self.project()
        info = consumer.functions["Box.run"]
        assert project.resolve_ref(consumer, info, "self.step") == \
            "repro.consumer.Box.step"

    def test_unresolved_names_pass_through(self):
        project, consumer = self.project()
        info = consumer.functions["Box.step"]
        assert project.resolve_ref(consumer, info, "sorted") == "sorted"

    def test_function_for_finds_cross_module_target(self):
        project, consumer = self.project()
        resolved = project.function_for("repro.helper.stamp")
        assert resolved is not None
        assert resolved[1].qualname == "stamp"

    def test_constructor_resolves_to_init(self):
        box = summarize("src/repro/box.py", """\
            class Box:
                size: int

                def __init__(self, size):
                    self.size = size
        """)
        project = Project([box])
        resolved = project.function_for("repro.box.Box")
        assert resolved is not None
        assert resolved[1].qualname == "Box.__init__"

    def test_import_closure(self):
        project, _ = self.project()
        closure = project.import_closure(["repro.consumer"])
        assert "repro.helper" in closure
        assert project.import_closure(["repro.helper"]) == \
            {"repro.helper"}
