"""Tests for the top-level package API surface."""


class TestPublicApi:
    def test_all_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_quickstart_snippet_from_docstring(self):
        # The README / module docstring snippet must keep working.
        from repro import Configuration, form_pattern, is_formable
        from repro.patterns import named_pattern

        cube = named_pattern("cube")
        octagon = named_pattern("octagon")
        assert is_formable(Configuration(cube), Configuration(octagon))
        result = form_pattern(cube, octagon, seed=1)
        assert result.reached

    def test_errors_hierarchy(self):
        from repro import ReproError, UnsolvableError
        from repro.errors import (
            ConfigurationError,
            DetectionError,
            EmbeddingError,
            GeometryError,
            GroupError,
            MatchingError,
            SimulationError,
        )

        for exc in (UnsolvableError, ConfigurationError, DetectionError,
                    EmbeddingError, GeometryError, GroupError,
                    MatchingError, SimulationError):
            assert issubclass(exc, ReproError)

    def test_subpackages_importable(self):
        import repro.analysis
        import repro.cli
        import repro.core
        import repro.geometry
        import repro.groups
        import repro.patterns
        import repro.planeformation
        import repro.robots
        import repro.twod
        import repro.viz  # noqa: F401

    def test_form_pattern_frames_override(self):
        from repro import form_pattern
        from repro.patterns import named_pattern
        from repro.robots import identity_frames

        cube = named_pattern("cube")
        result = form_pattern(cube, cube, frames=identity_frames(8))
        assert result.reached
