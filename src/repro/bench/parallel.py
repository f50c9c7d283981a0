"""Sweep engine: shard independent simulations across processes.

Every experiment in the evaluation is a sweep of *independent*
fresh-cluster simulations (one cluster per measured point), so the
natural horizontal speedup is a process pool: each inline sweep loop is
a list of declarative :class:`JobSpec` records, run on the workers of
one :class:`concurrent.futures.ProcessPoolExecutor`, and merged back in
spec order so the output is byte-identical to a serial run.

:func:`submit` queues a sweep and returns a :class:`SweepFuture` at
once, so *independent sweeps pipeline*: while one experiment's jobs
are still running, the next experiment's jobs wait behind them in the
executor's one shared queue, and every idle worker takes the next job
from it.  The only blocking point is :meth:`SweepFuture.result`, and
only for the jobs that sweep owns.  :func:`sweep` (submit + result) is
the blocking form.

Determinism contract
--------------------
* A job is a pure function of its spec: a module-level callable plus
  pickled arguments (configs are frozen dataclasses).  Nothing a job
  computes depends on which worker ran it or when.
* Results and observability captures are merged in **spec submission
  order**, never in completion order.  Tables, metrics blocks,
  trace files, span streams, and virtual-time sums are therefore
  byte-identical between ``--jobs 1`` and ``--jobs N``.
* Per-job seeds are part of the spec, derived up front with a
  SplitMix64-style spread (:func:`spread_seed`) where an experiment
  wants distinct shards -- there is no shared RNG between jobs, so
  sharding cannot perturb any stream.
* Equal specs in one :func:`submit` are one job.  Specs whose ``fn``,
  ``args`` and ``kwargs`` compare equal run once (the first of them);
  every one gets its value, in spec order, and the job's captures are
  recorded once.  Nothing is shared across submits.

The serial path (``jobs=1``, the default) runs specs inline, eagerly,
in order, through exactly the code path a direct call would take.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from . import runner

if TYPE_CHECKING:
    from concurrent.futures import Future, ProcessPoolExecutor

__all__ = ["JobSpec", "SweepScheduler", "SweepFuture", "Deferred",
           "sweep", "submit", "get_executor", "set_executor",
           "configure", "shutdown", "spread_seed", "parse_jobs",
           "auto_jobs", "host_record"]

_U64 = (1 << 64) - 1

#: Set in worker processes so nested sweeps degrade to serial instead
#: of forking pools from pool workers.
_IN_WORKER = False


def spread_seed(base: int, index: int) -> int:
    """SplitMix64 spread: a distinct, stable seed per job index.

    Jobs of one sweep share a ``base`` (the experiment seed) and get
    well-separated 64-bit seeds, so shards never couple through a
    shared RNG stream and the derivation is reproducible from the spec
    alone (no call-order dependence).
    """
    z = (base + (index + 1) * 0x9E3779B97F4A7C15) & _U64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
    return (z ^ (z >> 31)) & _U64


@dataclass(frozen=True)
class JobSpec:
    """One independent simulation job of a sweep.

    ``fn`` must be a module-level callable (worker processes import it
    by reference) and every argument picklable.  ``key`` is the job's
    stable identity -- experiment name, series, message size, ... --
    and must be unique within a sweep.  Specs with an empty key get
    ``(module, qualname, index)`` derived at submission.
    """

    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    key: tuple = ()

    def run(self) -> Any:
        return self.fn(*self.args, **self.kwargs)


def _resolved_keys(specs: Sequence[JobSpec]) -> list[tuple]:
    keys = []
    for index, spec in enumerate(specs):
        keys.append(tuple(spec.key) if spec.key
                    else (spec.fn.__module__, spec.fn.__qualname__,
                          index))
    seen: set[tuple] = set()
    for key in keys:
        if key in seen:
            raise ValueError(f"duplicate job key {key!r}: the"
                             " deterministic merge needs unique keys")
        seen.add(key)
    return keys


def _distinct_jobs(specs: Sequence[JobSpec]
                   ) -> tuple[list[JobSpec], list[int]]:
    """The distinct jobs of ``specs`` and, per spec, its job's index.

    Two specs are one job when their ``fn``, ``args`` and ``kwargs``
    are equal; the first of them runs.  A linear scan, so arguments
    need not be hashable: a sweep has at most a few hundred specs, and
    each job is a whole cluster simulation.
    """
    jobs: list[JobSpec] = []
    slots = []
    for spec in specs:
        same = (spec.fn, spec.args, spec.kwargs)
        slot = next((i for i, job in enumerate(jobs)
                     if (job.fn, job.args, job.kwargs) == same), len(jobs))
        if slot == len(jobs):
            jobs.append(spec)
        slots.append(slot)
    return jobs, slots


def _worker_init(obs, capture: bool) -> None:
    """Arm the parent's observability spec in each worker."""
    global _IN_WORKER
    _IN_WORKER = True
    runner.configure_observability(obs, capture=capture)


def _run_one(spec: JobSpec) -> tuple:
    """Run one spec in a worker; returns (value, cpu_s, captures).

    CPU time, not wall: a worker's wall clock keeps ticking while it
    is descheduled on an oversubscribed host.  The clusters the job
    captured are drained even when it raises, so they never leak into
    the next job's captures.
    """
    cpu_start = time.process_time()
    try:
        value = spec.run()
    finally:
        clusters = runner.captured_clusters()
    cpu = time.process_time() - cpu_start
    return value, cpu, [runner.capture_cluster(c) for c in clusters]


class SweepFuture:
    """The pending results of one submitted sweep.

    ``result()`` blocks until every job of *this* sweep completed
    (other sweeps keep flowing through the pool), then returns values
    in spec order and records the jobs' observability captures -- in
    that same order -- with the runner.  A failed job re-raises its
    original exception; a worker that died raises
    :class:`concurrent.futures.process.BrokenProcessPool`.  Calling
    ``result()`` again returns the cached list.
    """

    def __init__(self, futures: Sequence[Future] = (),
                 values: Optional[list] = None) -> None:
        self._futures = list(futures)
        self._values = values
        #: Per spec, the index of the job that ran it (set by
        #: :func:`submit`); None when each spec ran as its own job.
        self.slots: Optional[list[int]] = None
        #: CPU seconds the sweep's pool jobs consumed, known once
        #: ``result()`` returned (0.0 for inline sweeps).
        self.job_cpu_s = 0.0

    def done(self) -> bool:
        return self._values is not None or all(
            f.done() for f in self._futures)

    def result(self) -> list[Any]:
        """Values in spec order; raises the first failed job's error."""
        if self._values is None:
            outcomes = [f.result() for f in self._futures]
            for _, _, captures in outcomes:
                runner.record_captures(captures)
            self.job_cpu_s = sum(cpu for _, cpu, _ in outcomes)
            self._values = [value for value, _, _ in outcomes]
        if self.slots is not None:
            slots, self.slots = self.slots, None
            self._values = [self._values[i] for i in slots]
        return self._values


@dataclass
class Deferred:
    """A submitted sweep plus the builder that turns its raw values
    into the finished experiment artifact.

    Experiment modules return these from their ``submit_*`` entry
    points: submission queues the jobs (pipelining them behind any
    other submitted sweep) and :meth:`finish` blocks only to assemble
    the final table.  ``future`` is None for experiments with no
    cluster jobs (``build`` then receives an empty list).
    """

    future: Optional[SweepFuture]
    build: Callable[[list], Any]

    def finish(self) -> Any:
        values = self.future.result() if self.future is not None else []
        return self.build(values)

    __call__ = finish

    @property
    def job_cpu_s(self) -> float:
        return self.future.job_cpu_s if self.future is not None else 0.0


class SweepScheduler:
    """Runs job specs serially (``jobs=1``) or on a process pool.

    The pool is created lazily on the first parallel submit (after the
    CLI has armed observability, so workers inherit the flags) and
    kept warm across every sweep of the bench invocation.
    """

    def __init__(self, jobs: int = 1) -> None:
        self.jobs = max(1, int(jobs))
        self._executor: Optional[ProcessPoolExecutor] = None

    def submit(self, specs: Sequence[JobSpec]) -> SweepFuture:
        """Queue a sweep; returns immediately with its future.

        Serial schedulers (``jobs=1``) and nested submissions inside a
        pool worker run the specs inline, eagerly, through exactly the
        code path a direct call would take.  Even a one-spec sweep
        goes to the pool when ``jobs > 1``: under pipelined submission
        an inline run would interleave its live captures with other
        sweeps' worker-shipped ones.
        """
        specs = list(specs)
        _resolved_keys(specs)
        if not specs or self.jobs <= 1 or _IN_WORKER:
            return SweepFuture(values=[spec.run() for spec in specs])
        if self._executor is None:
            # Imported here: they load ~1 MB of modules (logging,
            # pickle, sockets, multiprocessing queues) that serial runs
            # never use.
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            # fork, where available, skips re-importing the model (and
            # numpy, once GA has loaded it) in every worker; the bench
            # runs no threads of its own for a forked child to inherit
            # mid-operation.
            methods = multiprocessing.get_all_start_methods()
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=multiprocessing.get_context(
                    "fork" if "fork" in methods else "spawn"),
                initializer=_worker_init,
                initargs=runner.armed())
        return SweepFuture([self._executor.submit(_run_one, spec)
                            for spec in specs])

    def map(self, specs: Sequence[JobSpec]) -> list[Any]:
        """Run every spec; results in spec order."""
        return self.submit(specs).result()

    def shutdown(self) -> None:
        """Stop the workers: queued jobs are cancelled, jobs already in
        flight (about one per worker) run to completion, and no worker
        outlives this call."""
        if self._executor is not None:
            executor, self._executor = self._executor, None
            executor.shutdown(wait=True, cancel_futures=True)


#: Process-wide scheduler consulted by the experiment modules.
_EXECUTOR = SweepScheduler(jobs=1)


def get_executor() -> SweepScheduler:
    return _EXECUTOR


def set_executor(executor: SweepScheduler) -> SweepScheduler:
    """Install ``executor`` globally, shutting down the previous one."""
    global _EXECUTOR
    _EXECUTOR.shutdown()
    _EXECUTOR = executor
    return executor


def configure(jobs: int = 1) -> SweepScheduler:
    """Install a fresh scheduler with ``jobs`` workers (1 == serial)."""
    return set_executor(SweepScheduler(jobs=jobs))


def shutdown() -> None:
    """Tear down the global scheduler's pool."""
    _EXECUTOR.shutdown()


def submit(specs: Sequence[JobSpec]) -> SweepFuture:
    """Queue ``specs`` on the installed scheduler; returns the future
    immediately so independent sweeps pipeline through the pool.

    Equal specs are queued as one job (see :func:`_distinct_jobs`);
    the future hands its value to each of them, in spec order.
    """
    specs = list(specs)
    _resolved_keys(specs)
    jobs, slots = _distinct_jobs(specs)
    future = _EXECUTOR.submit(jobs)
    if len(jobs) < len(specs):
        future.slots = slots
    return future


def sweep(specs: Sequence[JobSpec]) -> list[Any]:
    """Run ``specs`` on the installed scheduler; results in spec
    order (submit + block)."""
    return submit(specs).result()


# ----------------------------------------------------------------------
# CLI / report helpers
# ----------------------------------------------------------------------

def auto_jobs() -> int:
    """Worker count for ``--jobs auto``: the usable core count."""
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


def parse_jobs(value: str) -> int:
    """argparse type for ``--jobs``: a positive int or ``auto``."""
    import argparse

    if value == "auto":
        return auto_jobs()
    try:
        jobs = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer or 'auto', got {value!r}"
        ) from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {jobs}")
    return jobs


def host_record(jobs: int) -> dict:
    """Host metadata stamped into ``BENCH_SCALE.json`` so scale runs
    stay comparable across machines and job counts."""
    import platform

    return {
        "cpu_count": os.cpu_count() or 1,
        "cpus_usable": auto_jobs(),
        "python": platform.python_version(),
        "platform": sys.platform,
        "jobs": jobs,
    }
