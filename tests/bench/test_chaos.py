"""Chaos bench: scenario determinism and serial/parallel parity."""

import pytest

from repro.bench import parallel, runner
from repro.bench.chaos import (CHAOS_BYTES, CHAOS_SEED,
                               CHAOS_WINDOW_US, chaos_jobs,
                               chaos_point, chaos_scenarios,
                               crash_scenarios, degradation_pct,
                               submit_chaos)
from repro.bench.parallel import sweep
from repro.faults import FaultSchedule, GilbertElliott, LinkOutage


@pytest.fixture
def restore_engine():
    yield
    runner.configure_observability()
    parallel.configure(1)


class TestScenarios:
    def test_baseline_first_and_unique_names(self):
        names = [n for n, _ in chaos_scenarios()]
        assert names[0] == "baseline"
        assert len(names) == len(set(names))

    def test_quick_is_a_subset(self):
        full = dict(chaos_scenarios())
        quick = chaos_scenarios(quick=True)
        assert 1 < len(quick) < len(full)
        assert all((s is None and full[n] is None)
                   or full[n].clauses == s.clauses for n, s in quick)
        assert quick[0][0] == "baseline"

    def test_all_schedules_validate(self):
        for name, sched in chaos_scenarios():
            assert sched is None or isinstance(sched, FaultSchedule)


class TestChaosPoint:
    def test_same_args_identical(self):
        sched = FaultSchedule([GilbertElliott(loss_good=0.05)])
        a = chaos_point(CHAOS_BYTES, 6, sched, CHAOS_SEED)
        b = chaos_point(CHAOS_BYTES, 6, sched, CHAOS_SEED)
        assert a == b
        assert a["intact"] and a["fault_drops"] > 0

    def test_baseline_point_fault_free(self):
        rec = chaos_point(CHAOS_BYTES, 4, None, CHAOS_SEED)
        assert rec["retransmissions"] == 0
        assert rec["fault_drops"] == 0 and rec["crc_drops"] == 0
        assert rec["intact"]
        assert rec["detection_us"] is None

    def test_point_emits_time_resolved_goodput_curve(self):
        rec = chaos_point(CHAOS_BYTES, 4, None, CHAOS_SEED)
        assert rec["window_us"] == CHAOS_WINDOW_US
        # Zero-delta windows are legitimate (fence/control packets
        # deliver no payload bytes but still touch the stream).
        windows = rec["goodput_windows"]
        assert windows and all(
            isinstance(w, int) and d >= 0 for w, d in windows)
        assert any(d > 0 for _, d in windows)
        assert [w for w, _ in windows] == sorted(w for w, _ in windows)
        # The curve accounts for every delivered payload byte: the puts
        # plus fence/control traffic both directions.
        assert sum(d for _, d in windows) >= CHAOS_BYTES * 4

    def test_outage_point_records_detection_and_gap(self):
        sched = FaultSchedule([
            LinkOutage(src=0, dst=1, start=400.0, end=900.0)])
        rec = chaos_point(CHAOS_BYTES, 6, sched, CHAOS_SEED)
        assert rec["detection_us"] is not None
        assert rec["detection_us"] >= 400.0
        # During the outage the goodput curve dips: some window in the
        # active span delivers less than the curve's best window.
        deltas = dict(rec["goodput_windows"])
        span = range(min(deltas), max(deltas) + 1)
        assert min(deltas.get(w, 0) for w in span) < max(deltas.values())


class TestDegradationPct:
    def test_negative_dust_clamps_to_zero(self):
        # Regression: a scenario a float-hair *faster* than baseline
        # used to render "-0.0" in the degradation column.
        value = degradation_pct(35.2000001, 35.2)
        assert value == 0.0
        assert str(value) == "0.0"  # not "-0.0"

    def test_equal_goodput_is_zero(self):
        assert degradation_pct(10.0, 10.0) == 0.0

    def test_positive_degradation_rounds(self):
        assert degradation_pct(5.0, 10.0) == 50.0
        assert degradation_pct(8.77, 10.0) == 12.3


class TestRunChaos:
    def test_quick_sweep_passes_all_checks(self):
        result = submit_chaos(quick=True).finish()
        assert result.all_passed, result.render()
        expected = [n for n, _ in chaos_scenarios(quick=True)]
        expected += [n for n, _ in crash_scenarios(quick=True)]
        assert len(result.rows) == len(expected)
        assert set(result.payload) == set(expected)

    def test_parallel_matches_serial(self, restore_engine):
        serial = sweep(chaos_jobs(quick=True))
        parallel.configure(jobs=2)
        pooled = sweep(chaos_jobs(quick=True))
        assert pooled == serial
