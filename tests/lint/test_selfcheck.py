"""The determinism self-check catches planted violations — and passes on
the real tree (the same invocation CI runs as ``repro-dpm lint --self``)."""

import textwrap
from pathlib import Path

from repro.lint import lint_paths, lint_source, selfcheck
from repro.lint.findings import Severity


def lint(source, relpath="repro/module.py"):
    return lint_source(textwrap.dedent(source), relpath)


def codes(findings):
    return [finding.code for finding in findings]


class TestWallClock:
    def test_time_time_call(self):
        findings = lint("""
            import time
            started = time.time()
        """)
        assert codes(findings) == ["DET-WALLCLOCK"]
        assert findings[0].path == "repro/module.py:3"
        assert findings[0].severity is Severity.ERROR

    def test_aliased_time_module(self):
        findings = lint("""
            import time as _wallclock
            t = _wallclock.perf_counter()
        """)
        assert codes(findings) == ["DET-WALLCLOCK"]

    def test_from_time_import(self):
        findings = lint("""
            from time import perf_counter
            t = perf_counter()
        """)
        assert codes(findings) == ["DET-WALLCLOCK"]

    def test_datetime_now(self):
        findings = lint("""
            from datetime import datetime
            stamp = datetime.now()
        """)
        assert codes(findings) == ["DET-WALLCLOCK"]

    def test_datetime_module_utcnow(self):
        findings = lint("""
            import datetime
            stamp = datetime.datetime.utcnow()
        """)
        assert codes(findings) == ["DET-WALLCLOCK"]

    def test_sleep_is_not_a_wall_clock_read(self):
        assert lint("""
            import time
            time.sleep(0.1)
        """) == []


class TestRandom:
    def test_module_global_random(self):
        findings = lint("""
            import random
            x = random.random()
        """)
        assert codes(findings) == ["DET-RANDOM"]

    def test_from_random_import_function(self):
        findings = lint("""
            from random import choice
        """)
        assert codes(findings) == ["DET-RANDOM"]

    def test_seeded_random_instance_is_fine(self):
        assert lint("""
            import random
            rng = random.Random(42)
            x = rng.random()
        """) == []

    def test_from_random_import_random_class_is_fine(self):
        assert lint("""
            from random import Random
            rng = Random(7)
        """) == []


class TestFloatTime:
    def test_float_literal_times_fs_in_sim(self):
        findings = lint("""
            def f(delay_fs):
                return delay_fs * 1.5
        """, relpath="repro/sim/kernel.py")
        assert codes(findings) == ["DET-FLOAT-TIME"]

    def test_float_addition_to_fs_attribute_in_sim(self):
        findings = lint("""
            def f(event):
                return 0.5 + event.t_fs
        """, relpath="repro/sim/kernel.py")
        assert codes(findings) == ["DET-FLOAT-TIME"]

    def test_same_code_outside_sim_is_not_flagged(self):
        assert lint("""
            def f(delay_fs):
                return delay_fs * 1.5
        """, relpath="repro/analysis/report.py") == []

    def test_integer_fs_math_is_fine(self):
        assert lint("""
            def f(delay_fs):
                return delay_fs * 2 + 7
        """, relpath="repro/sim/kernel.py") == []


class TestSetOrder:
    def test_for_over_set_literal(self):
        findings = lint("""
            for x in {1, 2, 3}:
                print(x)
        """)
        assert codes(findings) == ["DET-SET-ORDER"]
        assert findings[0].severity is Severity.WARN

    def test_comprehension_over_set_call(self):
        findings = lint("""
            out = [x for x in set(items)]
        """)
        assert codes(findings) == ["DET-SET-ORDER"]

    def test_sorted_set_is_fine(self):
        assert lint("""
            for x in sorted({1, 2, 3}):
                print(x)
        """) == []


class TestPragma:
    def test_same_line_pragma_suppresses(self):
        assert lint("""
            import time
            t = time.time()  # repro-lint: allow[DET-WALLCLOCK]
        """) == []

    def test_pragma_is_code_specific(self):
        findings = lint("""
            import time
            t = time.time()  # repro-lint: allow[DET-RANDOM]
        """)
        assert codes(findings) == ["DET-WALLCLOCK"]

    def test_pragma_accepts_code_lists(self):
        assert lint("""
            import time
            t = time.time()  # repro-lint: allow[DET-RANDOM, DET-WALLCLOCK]
        """) == []


class TestTreeAndPaths:
    def test_planted_file_is_caught_via_lint_paths(self, tmp_path):
        bad = tmp_path / "sim" / "planted.py"
        bad.parent.mkdir()
        bad.write_text(
            "import time\n"
            "def f(now_fs):\n"
            "    return time.time() + now_fs * 0.5\n",
            encoding="utf-8",
        )
        findings = lint_paths([tmp_path])
        assert sorted(codes(findings)) == ["DET-FLOAT-TIME", "DET-WALLCLOCK"]

    def test_real_tree_is_clean(self):
        # The exact check CI runs as `repro-dpm lint --self`.
        report = selfcheck()
        assert report.is_clean(strict=True), report.describe()

    def test_test_tree_is_clean(self):
        # No test's pass/fail may hang on the machine's speed: a test that
        # reads a wall clock (or the global RNG) fails here.
        tests_root = Path(__file__).resolve().parents[1]
        findings = lint_paths([tests_root])
        assert findings == [], "\n".join(str(finding) for finding in findings)
