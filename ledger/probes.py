"""Isolated, workload-independent probes of single mechanisms.

Each probe times one tight loop over one public primitive, best of
``REPS`` (host noise only ever adds), and reports host nanoseconds or
microseconds per operation.  They exist so a change to, say, the
kernel's timer path can be seen without the other eleven layers
diluting it; they are never an end-to-end claim.
"""

from __future__ import annotations

import time

from repro.bench import JobSpec, configure, sweep
from repro.machine import Cluster
from repro.obs import QuantileSketch
from repro.sim import Channel, Simulator

__all__ = ["run_probes"]

REPS = 5


def _best(fn, ops: int, unit_per_s: float) -> float:
    """Best-of-REPS host CPU time of ``fn()`` per operation."""
    best = float("inf")
    for _ in range(REPS):
        t0 = time.process_time()
        fn()
        best = min(best, time.process_time() - t0)
    return best * unit_per_s / ops


def _timer_loop(n: int):
    def run():
        sim = Simulator()
        fired = []
        for i in range(n):
            sim.call_at(float(i), fired.append, i)
        sim.run()
        if len(fired) != n:
            raise RuntimeError(f"timer probe fired {len(fired)} of {n}")
    return run


def _switch_loop(n: int):
    """Two processes handing a token back and forth through channels:
    every ``get`` is one process-to-process hand-off."""
    def run():
        sim = Simulator()
        there, back = Channel(sim, "there"), Channel(sim, "back")

        def ping():
            for i in range(n):
                there.put(i)
                yield back.get()

        def pong():
            for _ in range(n):
                token = yield there.get()
                back.put(token)

        sim.process(pong())
        proc = sim.process(ping())
        sim.run_until_complete(proc)
    return run


def _timeout_loop(n: int):
    def run():
        sim = Simulator()

        def sleeper():
            for _ in range(n):
                yield sim.timeout(1.0)

        sim.run_until_complete(sim.process(sleeper()))
        if sim.now != float(n):
            raise RuntimeError(f"timeout probe ended at {sim.now}us")
    return run


def _ga_local_put_loop(n: int):
    """Owner-local 64x64 patch puts on a one-node cluster: GA's
    section/packing/copy work with no network underneath."""
    def run():
        def main(task):
            ga = task.ga
            handle = yield from ga.create((128, 128), name="probe")
            section = (0, 63, 0, 63)
            buf = ga.alloc_local(section)
            for _ in range(n):
                yield from ga.put(handle, section, buf)
            yield from ga.sync()

        Cluster(1).run_job(main, ga_backend="lapi")
    return run


def _sketch_loop(n: int):
    values = [1.0 + (i * 7919 % 1000) for i in range(n)]

    def run():
        sketch = QuantileSketch()
        observe = sketch.observe
        for v in values:
            observe(v)
    return run


def _noop() -> None:
    return None


def _sweep_loop(n: int):
    specs = [JobSpec(_noop, key=("probe", i)) for i in range(n)]

    def run():
        # A fresh serial scheduler: whatever the workload installed
        # must not leak into a workload-independent number.
        configure(jobs=1)
        sweep(specs)
    return run


def run_probes(smoke: bool = False) -> dict:
    """All probes, keyed by per-layer metric name."""
    k = 20 if smoke else 1
    n_timer, n_switch, n_timeout = 100_000 // k, 40_000 // k, 60_000 // k
    # The sweep probe stays under the cost model's 4096-entry cap, past
    # which every job pays an eviction sort.
    n_put, n_sketch, n_sweep = 2_000 // k, 200_000 // k, 2_000 // k
    return {
        "sim.timer_ns": _best(_timer_loop(n_timer), n_timer, 1e9),
        "sim.switch_ns": _best(_switch_loop(n_switch), 2 * n_switch, 1e9),
        "sim.timeout_ns": _best(_timeout_loop(n_timeout), n_timeout, 1e9),
        "ga.local_put_us": _best(_ga_local_put_loop(n_put), n_put, 1e6),
        "obs.sketch_insert_ns": _best(_sketch_loop(n_sketch), n_sketch,
                                      1e9),
        "bench.sweep_overhead_us": _best(_sweep_loop(n_sweep), n_sweep,
                                         1e6),
    }
