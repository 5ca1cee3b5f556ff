"""Good/bad fixture pairs for each reprolint rule (REP001-REP007).

Fixtures under ``src/repro/campaign/`` annotate their signatures: the
façade rule REP011 lints those modules too."""

from tests.lint.conftest import rules_of


class TestToleranceDiscipline:
    def test_bad_raw_literal(self, lint_source):
        violations, _ = lint_source("src/repro/foo.py", """\
            def close(a, b):
                return abs(a - b) < 1e-6
            """)
        assert rules_of(violations) == ["REP001"]
        assert "raw tolerance literal" in violations[0].message

    def test_bad_float_equality(self, lint_source):
        violations, _ = lint_source("src/repro/foo.py", """\
            def at_half(x):
                return x == 0.5
            """)
        assert rules_of(violations) == ["REP001"]
        assert "float equality" in violations[0].message

    def test_good_derived_slack(self, lint_source):
        violations, _ = lint_source("src/repro/foo.py", """\
            from repro.geometry.tolerance import DEFAULT_TOL

            def close(a, b, scale):
                return abs(a - b) < DEFAULT_TOL.geometric_slack(scale)
            """)
        assert violations == []

    def test_good_underflow_guard_exempt(self, lint_source):
        violations, _ = lint_source("src/repro/foo.py", """\
            def safe_div(num, denom):
                return num / max(denom, 1e-300)
            """)
        assert violations == []

    def test_good_tolerance_module_exempt(self, lint_source):
        violations, _ = lint_source(
            "src/repro/geometry/tolerance.py", """\
            ABS_TOL = 1e-7
            """)
        assert violations == []

    def test_macroscopic_literal_not_flagged(self, lint_source):
        violations, _ = lint_source("src/repro/foo.py", """\
            HALF = 0.5
            SCALE = 100.0
            """)
        assert violations == []


class TestObliviousnessContract:
    def test_bad_module_mutable(self, lint_source):
        violations, _ = lint_source(
            "src/repro/robots/algorithms/alg.py", """\
            _CACHE = {}
            """)
        assert rules_of(violations) == ["REP002"]
        assert "mutable container" in violations[0].message

    def test_bad_global_rebind(self, lint_source):
        violations, _ = lint_source(
            "src/repro/robots/algorithms/alg.py", """\
            _round = 0

            def compute(obs):
                global _round
                _round += 1
                return obs
            """)
        assert "REP002" in rules_of(violations)

    def test_bad_parameter_stash(self, lint_source):
        violations, _ = lint_source(
            "src/repro/robots/algorithms/alg.py", """\
            def compute(obs):
                obs.seen = True
                return obs
            """)
        assert rules_of(violations) == ["REP002"]
        assert "obs.seen" in violations[0].message

    def test_bad_setattr_stash(self, lint_source):
        violations, _ = lint_source(
            "src/repro/robots/algorithms/alg.py", """\
            def compute(robot, key, flags):
                setattr(robot, key, flags)
                return robot
            """)
        assert rules_of(violations) == ["REP002"]

    def test_good_immutable_constants_and_self(self, lint_source):
        violations, _ = lint_source(
            "src/repro/robots/algorithms/alg.py", """\
            from types import MappingProxyType

            __all__ = ["Alg"]
            _NAMES = ("a", "b")
            _TABLE = MappingProxyType({"a": 1})


            class Alg:
                def __init__(self):
                    self.name = "alg"

                def compute(self, obs):
                    local = dict(_TABLE)
                    local["b"] = obs
                    return local
            """)
        assert violations == []

    def test_out_of_scope_file_not_checked(self, lint_source):
        violations, _ = lint_source("src/repro/analysis/agg.py", """\
            _ROWS = []
            """)
        assert "REP002" not in rules_of(violations)


class TestCachePurity:
    def test_bad_repr_bytes(self, lint_source):
        violations, _ = lint_source("src/repro/perf/keys.py", """\
            def digest_of(part, h):
                h.update(repr(part).encode())
            """)
        assert rules_of(violations) == ["REP003"]
        assert "repr()" in violations[0].message

    def test_bad_mutable_default(self, lint_source):
        violations, _ = lint_source("src/repro/perf/memo.py", """\
            def lookup(key, store={}):
                return store.get(key)
            """)
        assert rules_of(violations) == ["REP003"]

    def test_bad_unjustified_global(self, lint_source):
        violations, _ = lint_source("src/repro/perf/state.py", """\
            _handle = None

            def reset():
                global _handle
                _handle = None
            """)
        assert rules_of(violations) == ["REP003"]

    def test_bad_fstring_in_key_builder(self, lint_source):
        violations, _ = lint_source("src/repro/perf/keys.py", """\
            def cache_key(shape, seed):
                return f"{shape}:{seed}"
            """)
        assert rules_of(violations) == ["REP003"]
        assert "f-string" in violations[0].message

    def test_good_error_fstring_in_key_builder(self, lint_source):
        violations, _ = lint_source("src/repro/perf/keys.py", """\
            def exact_digest(part, h):
                raise TypeError(f"no encoding for {type(part)}")
            """)
        assert violations == []

    def test_good_exact_bytes(self, lint_source):
        violations, _ = lint_source("src/repro/perf/keys.py", """\
            import numpy as np

            def cache_key(arr, h):
                h.update(np.ascontiguousarray(arr).tobytes())
            """)
        assert violations == []

    def test_out_of_scope_file_not_checked(self, lint_source):
        violations, _ = lint_source("src/repro/analysis/out.py", """\
            def label(part, h):
                h.update(repr(part).encode())
            """)
        assert "REP003" not in rules_of(violations)


class TestSeedingDiscipline:
    def test_bad_legacy_numpy(self, lint_source):
        violations, _ = lint_source("src/repro/gen.py", """\
            import numpy as np

            def sample():
                return np.random.rand(3)
            """)
        assert rules_of(violations) == ["REP004"]
        assert "module-global RNG" in violations[0].message

    def test_bad_stdlib_random(self, lint_source):
        violations, _ = lint_source("src/repro/gen.py", """\
            import random

            def pick(items):
                return random.choice(items)
            """)
        assert rules_of(violations) == ["REP004"]

    def test_bad_unseeded_default_rng(self, lint_source):
        violations, _ = lint_source("src/repro/gen.py", """\
            import numpy as np

            def stream():
                return np.random.default_rng()
            """)
        assert rules_of(violations) == ["REP004"]
        assert "OS entropy" in violations[0].message

    def test_bad_seed_arithmetic(self, lint_source):
        violations, _ = lint_source("src/repro/gen.py", """\
            import numpy as np

            def trial_stream(seed, t):
                return np.random.default_rng(seed + t)
            """)
        assert rules_of(violations) == ["REP004"]
        assert "fan-out" in violations[0].message

    def test_good_seeded_and_spawned(self, lint_source):
        violations, _ = lint_source("src/repro/gen.py", """\
            import numpy as np

            def streams(seed, n):
                root = np.random.SeedSequence(seed)
                return [np.random.default_rng(child)
                        for child in root.spawn(n)]
            """)
        assert violations == []


class TestRowDeterminism:
    def test_bad_wall_clock(self, lint_source):
        violations, _ = lint_source("src/repro/rows.py", """\
            import time

            def stamp(row):
                row["at"] = time.time()
                return row
            """)
        assert rules_of(violations) == ["REP005"]
        assert "wall clock" in violations[0].message

    def test_bad_date_today(self, lint_source):
        violations, _ = lint_source("benchmarks/run.py", """\
            import datetime

            def label():
                return datetime.date.today().isoformat()
            """)
        assert rules_of(violations) == ["REP005"]

    def test_bad_monotonic_clock_outside_audited_module(
            self, lint_source):
        violations, _ = lint_source("src/repro/obs/trace.py", """\
            import time

            def now():
                return time.perf_counter()
            """)
        assert rules_of(violations) == ["REP005"]
        assert "audited" in violations[0].message
        assert "repro.obs.clock" in violations[0].message

    def test_bad_monotonic_ns_variant(self, lint_source):
        violations, _ = lint_source("benchmarks/run.py", """\
            import time

            def tick():
                return time.monotonic_ns()
            """)
        assert rules_of(violations) == ["REP005"]

    def test_good_monotonic_clock_in_audited_module(self, lint_source):
        violations, _ = lint_source("src/repro/obs/clock.py", """\
            import time

            def _system_clock():
                return time.perf_counter()
            """)
        assert violations == []

    def test_bad_unsorted_listing(self, lint_source):
        violations, _ = lint_source("src/repro/scan.py", """\
            import os

            def inputs(root):
                return [name for name in os.listdir(root)]
            """)
        assert rules_of(violations) == ["REP005"]
        assert "sorted" in violations[0].message

    def test_good_sorted_listing(self, lint_source):
        violations, _ = lint_source("src/repro/scan.py", """\
            import os

            def inputs(root):
                return sorted(os.listdir(root))
            """)
        assert violations == []

    def test_bad_set_iteration(self, lint_source):
        violations, _ = lint_source("src/repro/rows.py", """\
            def rows(names):
                out = []
                for name in set(names):
                    out.append({"name": name})
                return out
            """)
        assert rules_of(violations) == ["REP005"]
        assert "PYTHONHASHSEED" in violations[0].message

    def test_good_sorted_iteration(self, lint_source):
        violations, _ = lint_source("src/repro/rows.py", """\
            def rows(names):
                out = []
                for name in sorted(set(names)):
                    out.append({"name": name})
                return out
            """)
        assert violations == []


class TestCampaignPurity:
    def test_bad_getpid_in_campaign(self, lint_source):
        violations, _ = lint_source("src/repro/campaign/foo.py", """\
            import os

            def tag() -> int:
                return os.getpid()
            """)
        assert rules_of(violations) == ["REP007"]
        assert "machine/process identity" in violations[0].message

    def test_bad_hostname_and_uuid(self, lint_source):
        violations, _ = lint_source("src/repro/campaign/foo.py", """\
            import socket
            import uuid

            def tag() -> tuple:
                return socket.gethostname(), uuid.uuid4()
            """)
        assert rules_of(violations) == ["REP007", "REP007"]

    def test_bad_secrets_call(self, lint_source):
        violations, _ = lint_source("src/repro/campaign/foo.py", """\
            import secrets

            def tag() -> str:
                return secrets.token_hex(8)
            """)
        assert rules_of(violations) == ["REP007"]
        assert "nondeterministic by design" in violations[0].message

    def test_bad_fstring_in_digest_builder(self, lint_source):
        violations, _ = lint_source("src/repro/campaign/foo.py", """\
            import hashlib

            def cell_digest(cell: object) -> str:
                text = f"{cell.experiment}:{cell.seed}"
                return hashlib.sha256(text.encode()).hexdigest()
            """)
        assert rules_of(violations) == ["REP007"]
        assert "digest builder" in violations[0].message

    def test_bad_repr_bytes_in_digest_builder(self, lint_source):
        violations, _ = lint_source("src/repro/campaign/foo.py", """\
            import hashlib

            def make_digest(spec: object) -> str:
                return hashlib.sha256(repr(spec).encode()).hexdigest()
            """)
        assert rules_of(violations) == ["REP007"]

    def test_good_canonical_json_digest(self, lint_source):
        violations, _ = lint_source("src/repro/campaign/foo.py", """\
            import hashlib
            import json

            def cell_digest(preimage: dict) -> str:
                canonical = json.dumps(preimage, sort_keys=True,
                                       separators=(",", ":"))
                return hashlib.sha256(
                    canonical.encode("utf-8")).hexdigest()
            """)
        assert violations == []

    def test_good_fstring_in_digest_error_message(self, lint_source):
        violations, _ = lint_source("src/repro/campaign/foo.py", """\
            def cell_digest(cell: object) -> str:
                if cell is None:
                    raise ValueError(f"bad cell: {cell!r}")
                return "0" * 64
            """)
        assert violations == []

    def test_good_identity_calls_outside_campaign(self, lint_source):
        violations, _ = lint_source("src/repro/analysis/foo.py", """\
            import os

            def tag():
                return os.getpid()
            """)
        assert violations == []
