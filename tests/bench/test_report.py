"""Unit tests for the benchmark reporting containers."""

import pytest

from repro.bench.report import (ExperimentResult, ShapeCheck,
                                format_series, format_table)


class TestShapeCheck:
    def test_pass_rendering(self):
        c = ShapeCheck("latency ordering", True, "34 < 43")
        assert str(c) == "[PASS] latency ordering (34 < 43)"

    def test_fail_rendering(self):
        c = ShapeCheck("x", False)
        assert str(c) == "[FAIL] x"


class TestExperimentResult:
    def make(self):
        return ExperimentResult(
            experiment="tX", title="Test table",
            headers=["a", "b"], rows=[[1, 2.5], ["x", 1234.0]])

    def test_check_accumulates(self):
        r = self.make()
        r.check("one", True)
        r.check("two", False, "detail")
        assert not r.all_passed
        assert len(r.checks) == 2

    def test_all_passed(self):
        r = self.make()
        r.check("one", True)
        assert r.all_passed

    def test_render_contains_everything(self):
        r = self.make()
        r.notes.append("a note")
        r.check("claim", True, "why")
        text = r.render()
        assert "tX" in text and "Test table" in text
        assert "a note" in text
        assert "[PASS] claim" in text
        assert "1,234" in text  # thousands formatting

    def test_truthy_coercion(self):
        r = self.make()
        r.check("numpy bool", bool(1 == 1))
        assert r.checks[0].passed is True


class TestFormatting:
    def test_format_table_alignment(self):
        text = format_table(["col", "value"], [["a", 1.0], ["bb", 22.5]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("col")
        # All rows equal width.
        assert len(set(len(ln) for ln in lines[1:])) == 1

    def test_float_formatting(self):
        text = format_table(["v"], [[0.123456], [12.3456], [12345.6]])
        assert "0.12" in text
        assert "12.3" in text
        assert "12,346" in text

    def test_format_series(self):
        s = format_series("lapi", [16, 64], [0.351, 1.5])
        assert s == "lapi: 16:0.35, 64:1.50"


class TestPaperReference:
    def test_table2_values(self):
        from repro.bench.paper import TABLE2
        assert TABLE2[("lapi", "polling")] == 34.0
        assert TABLE2[("mpl", "interrupt_round_trip")] == 200.0

    def test_table1_covers_all_groups(self):
        from repro.bench.paper import TABLE1_FUNCTIONS
        assert len(TABLE1_FUNCTIONS) == 8  # eight operation groups
        fns = [f for group in TABLE1_FUNCTIONS.values() for f in group]
        assert len(fns) == 14  # fourteen functions in Table 1

    def test_function_map_complete(self):
        from repro.bench.paper import TABLE1_FUNCTIONS
        from repro.bench.table1 import FUNCTION_MAP
        fns = {f for group in TABLE1_FUNCTIONS.values() for f in group}
        assert fns == set(FUNCTION_MAP)


class TestRunnerHelpers:
    def test_mean_skips_warmup(self):
        from repro.bench.runner import mean
        assert mean([100.0, 10.0, 10.0]) == 10.0
        assert mean([5.0]) == 5.0  # too short to skip

    def test_reps_for_size_monotone(self):
        from repro.bench.runner import reps_for_size
        small = reps_for_size(16)
        large = reps_for_size(2 * 1024 * 1024)
        assert small >= large
        assert large >= 3

    def test_bandwidth_units(self):
        from repro.bench.runner import bandwidth_mbs
        # 1000 bytes in 10us = 100 bytes/us = 100 MB/s.
        assert bandwidth_mbs(1000, 10.0) == 100.0

    def test_table1_experiment_passes(self):
        from repro.bench.table1 import submit_table1
        result = submit_table1().finish()
        assert result.all_passed
        assert len(result.rows) == 8
