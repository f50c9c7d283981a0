"""The parallel sweep engine: seed spread, key merge, determinism.

The engine's contract is that ``--jobs N`` is an invisible wall-clock
optimization: results, ``--metrics`` blocks, and virtual-time numbers
are byte-identical to a serial run.  These tests pin the unit pieces
(SplitMix seed spread, job-key resolution and ordering), the futures
(cross-sweep pipelining, idempotent results), the error paths (failed
jobs propagate their original exception, a dead worker raises instead
of hanging, no worker outlives a shutdown) and the end-to-end
guarantee on reduced fig2/table2 sweeps.
"""

import multiprocessing
import os
import time
from concurrent.futures import CancelledError
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.bench import parallel, runner
from repro.bench.bandwidth import run_fig2
from repro.bench.latency import lapi_pingpong_job, run_table2
from repro.bench.parallel import (Deferred, JobSpec, SweepScheduler,
                                  host_record, parse_jobs, spread_seed)


# Module-level so worker processes can unpickle them by reference.
def _add(a, b):
    return a + b


def _slow_identity(x, delay):
    # Variable delay scrambles completion order across pool workers;
    # the merge must put results back in spec order regardless.
    time.sleep(delay)
    return x


def _boom():
    raise KeyError("boom")


def _die():
    os._exit(3)


def _pingpong_job():
    return lapi_pingpong_job(interrupt_mode=False)


@pytest.fixture
def restore_engine():
    yield
    runner.configure_observability()
    parallel.configure(1)


class TestSpreadSeed:
    def test_seeds_are_distinct(self):
        seeds = [spread_seed(0xBE1, i) for i in range(1000)]
        assert len(set(seeds)) == 1000

    def test_seeds_are_stable(self):
        # Fixed values: the spread is part of the reproducibility
        # contract, so a silent algorithm change must fail loudly.
        assert spread_seed(0xBE1, 0) == spread_seed(0xBE1, 0)
        assert spread_seed(0xBE1, 0) != spread_seed(0xBE1, 1)
        assert spread_seed(0, 0) == 16294208416658607535

    def test_bases_decouple(self):
        a = {spread_seed(0xA5, i) for i in range(100)}
        b = {spread_seed(0xF1, i) for i in range(100)}
        assert not (a & b)

    def test_seeds_fit_64_bits(self):
        for i in range(100):
            assert 0 <= spread_seed(0xBE1, i) < (1 << 64)


class TestJobKeys:
    def test_explicit_keys_preserved(self):
        specs = [JobSpec(_add, (i, 1), key=("k", i)) for i in range(3)]
        assert parallel._resolved_keys(specs) == [
            ("k", 0), ("k", 1), ("k", 2)]

    def test_empty_key_derived_from_fn_and_index(self):
        specs = [JobSpec(_add, (i, 1)) for i in range(2)]
        keys = parallel._resolved_keys(specs)
        assert keys[0] != keys[1]
        assert keys[0][:2] == (_add.__module__, _add.__qualname__)

    def test_duplicate_keys_rejected(self):
        specs = [JobSpec(_add, (0, 1), key=("dup",)),
                 JobSpec(_add, (1, 1), key=("dup",))]
        with pytest.raises(ValueError, match="duplicate job key"):
            SweepScheduler(jobs=1).map(specs)


class TestExecutor:
    def test_serial_results_in_spec_order(self):
        ex = SweepScheduler(jobs=1)
        out = ex.map([JobSpec(_add, (i, 10), key=("s", i))
                      for i in range(5)])
        assert out == [10, 11, 12, 13, 14]

    def test_empty_sweep(self):
        assert SweepScheduler(jobs=4).map([]) == []

    def test_parallel_results_in_spec_order(self):
        # Later specs finish first (shorter sleeps); the merge by job
        # key must still return values in submission order.
        delays = [0.2, 0.15, 0.1, 0.05, 0.0]
        ex = SweepScheduler(jobs=4)
        try:
            out = ex.map([JobSpec(_slow_identity, (i, d), key=("p", i))
                          for i, d in enumerate(delays)])
        finally:
            ex.shutdown()
        assert out == [0, 1, 2, 3, 4]

    def test_single_spec_uses_pool(self):
        # Even one-spec sweeps go through the pool when jobs>1: under
        # pipelined submission an inline run would interleave its live
        # captures with other sweeps' worker-shipped ones.
        ex = SweepScheduler(jobs=4)
        try:
            assert ex.map([JobSpec(_add, (1, 2))]) == [3]
            assert multiprocessing.active_children()
        finally:
            ex.shutdown()

    def test_serial_scheduler_never_forks(self):
        ex = SweepScheduler(jobs=1)
        assert ex.map([JobSpec(_add, (1, 2)),
                       JobSpec(_add, (3, 4))]) == [3, 7]
        assert multiprocessing.active_children() == []  # never forked

    def test_worker_exception_propagates(self):
        ex = SweepScheduler(jobs=2)
        specs = [JobSpec(_add, (1,), key=("bad", i)) for i in range(2)]
        try:
            with pytest.raises(TypeError):
                ex.map(specs)
        finally:
            ex.shutdown()


class TestPipelining:
    def test_sweeps_overlap_without_barriers(self):
        # Sweep A is slow, sweep B fast; B's future resolves while A
        # is still outstanding, and A still merges correctly after.
        ex = SweepScheduler(jobs=2)
        try:
            slow = ex.submit([JobSpec(_slow_identity, (0, 0.4),
                                      key=("slow",))])
            fast = ex.submit([JobSpec(_add, (i, 0), key=("fast", i))
                              for i in range(3)])
            t0 = time.perf_counter()
            assert fast.result() == [0, 1, 2]
            fast_wait = time.perf_counter() - t0
            assert not slow.done()
            assert slow.result() == [0]
        finally:
            ex.shutdown()
        # Waiting on the fast sweep never waits out the slow one.
        assert fast_wait < 0.4

    def test_result_is_idempotent(self):
        ex = SweepScheduler(jobs=1)
        future = ex.submit([JobSpec(_add, (7, 0), key=("i",))])
        assert future.result() == [7]
        assert future.result() is future.result()


class TestErrorPaths:
    def test_original_exception_type_propagates(self):
        ex = SweepScheduler(jobs=2)
        try:
            with pytest.raises(KeyError, match="boom"):
                ex.map([JobSpec(_boom, key=("bad",)),
                        JobSpec(_add, (1, 0), key=("ok",))])
        finally:
            ex.shutdown()

    def test_pool_survives_a_failed_job(self):
        # A job failure is shipped back as its exception; the same
        # workers run the next sweep.
        ex = SweepScheduler(jobs=2)
        try:
            with pytest.raises(KeyError):
                ex.map([JobSpec(_boom, key=("bad",))])
            pids = {p.pid for p in multiprocessing.active_children()}
            assert ex.map([JobSpec(_add, (5, 0), key=("ok",))]) == [5]
            assert {p.pid for p in multiprocessing.active_children()} \
                == pids
        finally:
            ex.shutdown()

    def test_dead_worker_raises_instead_of_hanging(self):
        ex = SweepScheduler(jobs=2)
        try:
            future = ex.submit([JobSpec(_die, key=("die",))])
            deadline = time.monotonic() + 30.0
            while not future.done() and time.monotonic() < deadline:
                time.sleep(0.05)
            assert future.done(), "a dead worker must not hang the sweep"
            with pytest.raises(BrokenProcessPool):
                future.result()
        finally:
            ex.shutdown()
        assert multiprocessing.active_children() == []

    def test_clean_shutdown_leaves_no_children(self):
        ex = SweepScheduler(jobs=2)
        assert ex.map([JobSpec(_add, (1, 0), key=("k",))]) == [1]
        assert multiprocessing.active_children()
        ex.shutdown()
        assert multiprocessing.active_children() == []

    def test_shutdown_with_jobs_outstanding_leaves_no_children(self):
        # Shutdown with jobs outstanding cancels the queued ones and
        # joins those in flight (at most a few), so it returns well
        # before the whole backlog could have run.
        ex = SweepScheduler(jobs=2)
        future = ex.submit([JobSpec(_slow_identity, (i, 0.2),
                                    key=("backlog", i))
                            for i in range(20)])
        t0 = time.perf_counter()
        ex.shutdown()
        assert time.perf_counter() - t0 < 10 * 0.2
        assert multiprocessing.active_children() == []
        with pytest.raises(CancelledError):
            future.result()

    def test_failing_experiment_does_not_orphan_workers(
            self, restore_engine, monkeypatch, capsys):
        """Regression: the CLI must tear the pool down when an
        experiment raises (the finally path), not leak workers."""
        from repro.bench import __main__ as cli

        def fake_submitters(quick):
            return {"table1": lambda: Deferred(
                parallel.submit([JobSpec(_boom, key=("boom",))]),
                lambda values: values)}

        monkeypatch.setattr(cli, "_submitters", fake_submitters)
        with pytest.raises(KeyError, match="boom"):
            cli.main(["table1", "--jobs", "2"])
        assert multiprocessing.active_children() == []


class TestCaptureShipping:
    def test_parallel_captures_match_serial(self, restore_engine):
        """Worker-shipped captures equal in-process conversions."""
        specs = [JobSpec(_pingpong_job, key=("cap", i))
                 for i in range(3)]

        runner.configure_observability(metrics=True, capture=True)
        parallel.configure(1)
        serial_values = parallel.sweep(specs)
        serial_caps = runner.drain_captures()

        parallel.configure(4)
        par_values = parallel.sweep(specs)
        par_caps = runner.drain_captures()

        assert par_values == serial_values
        assert len(par_caps) == len(serial_caps) == 3
        for a, b in zip(serial_caps, par_caps):
            assert a.nnodes == b.nnodes
            assert a.now == b.now
            assert a.events == b.events
            assert a.metrics_block == b.metrics_block

    def test_trace_records_match_serial(self, restore_engine):
        """Trace parity requires packet uids to restart per cluster:
        a serial run's second cluster must not number its packets
        after the first's, or a fork-fresh worker diverges."""
        specs = [JobSpec(_pingpong_job, key=("trace", i))
                 for i in range(3)]

        runner.configure_observability(trace=True, capture=True)
        parallel.configure(1)
        parallel.sweep(specs)
        serial_caps = runner.drain_captures()

        parallel.configure(4)
        parallel.sweep(specs)
        par_caps = runner.drain_captures()

        serial_traces = [c.trace for c in serial_caps]
        par_traces = [c.trace for c in par_caps]
        assert serial_traces[0], "expected trace records"
        # Identical clusters produce identical traces...
        assert serial_traces[0] == serial_traces[1] == serial_traces[2]
        # ...and the worker-shipped records match the serial ones,
        # packet uids included.
        assert par_traces == serial_traces


def _run_reduced_suite():
    """Reduced fig2 + table2 with full observability; returns every
    surface the determinism guarantee covers."""
    fig2 = run_fig2(sizes=[1024, 16384])
    fig2_caps = runner.drain_captures()
    table2 = run_table2()
    table2_caps = runner.drain_captures()
    return {
        "fig2_render": fig2.render(),
        "table2_render": table2.render(),
        "metrics": [c.metrics_block for c in fig2_caps + table2_caps],
        "virtual_us": [c.now for c in fig2_caps + table2_caps],
        "events": [c.events for c in fig2_caps + table2_caps],
        "clusters": len(fig2_caps) + len(table2_caps),
    }


class TestDeterminism:
    def test_jobs1_and_jobs4_byte_identical(self, restore_engine):
        """The acceptance guarantee on a reduced sweep: rendered
        tables, metrics blocks, and virtual-time results identical
        between serial and 4-way parallel execution."""
        runner.configure_observability(metrics=True, capture=True)
        parallel.configure(1)
        serial = _run_reduced_suite()
        parallel.configure(4)
        par = _run_reduced_suite()
        assert serial == par
        assert serial["clusters"] == 10  # 6 fig2 points + 4 table2


class TestCliHelpers:
    def test_parse_jobs(self):
        assert parse_jobs("3") == 3
        assert parse_jobs("auto") >= 1
        with pytest.raises(Exception):
            parse_jobs("0")
        with pytest.raises(Exception):
            parse_jobs("many")

    def test_host_record_shape(self):
        rec = host_record(jobs=4)
        assert rec["jobs"] == 4
        assert rec["cpu_count"] >= 1
        assert rec["cpus_usable"] >= 1
        assert rec["python"].count(".") == 2
