"""Work-stealing sweep scheduler: shard independent simulations.

Every experiment in the evaluation is a sweep of *independent*
fresh-cluster simulations (one cluster per measured point), so the
natural horizontal speedup is a worker pool: each inline sweep loop is
a list of declarative :class:`JobSpec` records, executed across ``N``
worker processes, and merged back **by job key** so the output is
byte-identical to a serial run.

The scheduler is futures-based: :func:`submit` enqueues a sweep and
returns a :class:`SweepFuture` immediately, so *independent sweeps
pipeline* -- while one experiment's jobs are still running, the next
experiment's jobs are already queued behind them on the same warm
workers.  There is no barrier between sweeps; the only blocking point
is :meth:`SweepFuture.result`, and only for the jobs that particular
sweep owns.  :func:`sweep` (submit + result) keeps the old blocking
call for code that wants it.

Scheduling policy
-----------------
* **Cost model.**  Every job's wall/CPU seconds are recorded under its
  stable job key into a :class:`CostModel` (exponentially smoothed
  across runs, optionally persisted to ``.repro/job_costs.json``), so
  the second bench invocation knows how long each point takes.
* **LPT issue order.**  Jobs are dispatched longest-estimated-first
  (classic longest-processing-time list scheduling), which keeps the
  multi-second 2 MB points from landing last and stretching the tail.
  Jobs with no estimate yet are assumed moderately long
  (``DEFAULT_EST_S``).  ``REPRO_SWEEP_ORDER=fifo`` restores
  submission order.
* **Chunking.**  Sub-millisecond jobs (by estimate) are packed into
  multi-job chunks so one pickle/IPC round trip amortizes across many
  tiny simulations.
* **Work stealing.**  Chunks are pre-assigned to per-worker queues by
  greedy LPT; a worker that drains its own queue steals the smallest
  queued chunk from the most-loaded worker.  Steal counts and
  idle-time per worker are surfaced in the ``parallel`` stats block.

Determinism contract
--------------------
* A job is a pure function of its spec: a module-level callable plus
  pickled arguments (configs are frozen dataclasses).  Nothing a job
  computes depends on which worker ran it, when it ran, or what the
  cost cache contained.
* Results and observability captures are merged in **spec submission
  order, keyed by the job key**, never in completion order.  Tables,
  ``--metrics`` blocks, trace files, span streams, and virtual-time
  sums are therefore byte-identical between ``--jobs 1`` and
  ``--jobs N``, FIFO and LPT order, cold and warm cost cache.
* Per-job seeds are part of the spec, derived up front with a
  SplitMix64-style spread (:func:`spread_seed`) where an experiment
  wants distinct shards -- there is no shared RNG between jobs, so
  sharding cannot perturb any stream.

The serial path (``jobs=1``, the default) runs specs inline, in
order, through exactly the code path a direct call would take; tier-1
behaviour is unchanged unless ``--jobs`` is raised.
"""

from __future__ import annotations

import argparse
import atexit
import json
import multiprocessing
import os
import pickle
import platform
import queue as queue_mod
import sys
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from . import runner

__all__ = ["JobSpec", "SweepScheduler", "SweepExecutor", "SweepFuture",
           "Deferred", "CostModel", "sweep", "submit", "get_executor",
           "set_executor", "configure", "shutdown", "spread_seed",
           "parse_jobs", "auto_jobs", "host_record",
           "DEFAULT_COST_PATH"]

_U64 = (1 << 64) - 1

#: Set in worker processes so nested sweeps degrade to serial instead
#: of forking pools from pool workers.
_IN_WORKER = False

#: Default on-disk location of the persistent job-cost cache (used by
#: the CLI; library callers get an in-memory model unless they pass a
#: path).  ``REPRO_COST_CACHE`` overrides it.
DEFAULT_COST_PATH = os.path.join(".repro", "job_costs.json")

#: Jobs estimated below this many seconds are packed into chunks.
TINY_JOB_S = 0.001
#: Target summed estimate per chunk of tiny jobs.
CHUNK_TARGET_S = 0.005
#: Hard cap on jobs per chunk (bounds the cost of losing a worker).
CHUNK_MAX_JOBS = 64
#: Chunks kept in flight per worker: 2 means a worker always has the
#: next chunk locally queued while the parent is busy elsewhere, so
#: pipelined submission never starves the pool.
PREFETCH = 2
#: Assumed cost (seconds) of a job with no cost-cache estimate, used
#: only for load-balance arithmetic (never for correctness).
DEFAULT_EST_S = 0.05


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
    used for the deterministic merge *and* as the cost-model key; it
    must be unique within a sweep.  Specs with an empty key get
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


def _cost_key(key: tuple) -> str:
    """Stable string form of a resolved job key (cost-model index)."""
    return "/".join(str(part) for part in key)


# ----------------------------------------------------------------------
# persistent per-job-key cost model
# ----------------------------------------------------------------------

class CostModel:
    """Exponentially-smoothed wall/CPU seconds per job key.

    Persisted as JSON (``path``) across bench invocations so the
    second run schedules with real per-point costs; entirely advisory
    -- estimates drive issue order and chunking, never results.  With
    ``path=None`` the model lives in memory only (the library/test
    default; the CLI passes a real path).
    """

    SCHEMA = 1

    def __init__(self, path: Optional[str] = None, *,
                 alpha: float = 0.3, max_entries: int = 4096) -> None:
        self.path = path
        self.alpha = alpha
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._stamp = 0
        self._dirty = False
        self._entries: dict[str, dict] = {}
        if path:
            self._load()

    def _load(self) -> None:
        try:
            with open(self.path, encoding="utf-8") as fh:
                data = json.load(fh)
            if data.get("schema") != self.SCHEMA:
                return
            entries = data.get("entries", {})
            for key, rec in entries.items():
                self._entries[str(key)] = {
                    "wall_s": float(rec["wall_s"]),
                    "cpu_s": float(rec["cpu_s"]),
                    "runs": int(rec.get("runs", 1)),
                    "stamp": int(rec.get("stamp", 0)),
                }
            self._stamp = max((r["stamp"] for r in
                               self._entries.values()), default=0)
        except (OSError, ValueError, KeyError, TypeError):
            # A missing or corrupt cache is never an error: start cold.
            self._entries = {}

    def save(self) -> None:
        """Atomically persist the model (no-op for in-memory models)."""
        if not self.path or not self._dirty:
            return
        payload = {"schema": self.SCHEMA, "entries": self._entries}
        directory = os.path.dirname(self.path)
        try:
            if directory:
                os.makedirs(directory, exist_ok=True)
            tmp = f"{self.path}.tmp.{os.getpid()}"
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=1, sort_keys=True)
                fh.write("\n")
            os.replace(tmp, self.path)
            self._dirty = False
        except OSError:  # pragma: no cover - read-only checkout etc.
            pass

    def estimate(self, key: tuple) -> Optional[float]:
        """Estimated CPU seconds for ``key``; None when unseen."""
        rec = self._entries.get(_cost_key(key))
        if rec is None:
            self.misses += 1
            return None
        self.hits += 1
        return rec["cpu_s"]

    def observe(self, key: tuple, wall_s: float, cpu_s: float) -> None:
        """Fold one measured run into the smoothed per-key costs."""
        ck = _cost_key(key)
        self._stamp += 1
        rec = self._entries.get(ck)
        if rec is None:
            self._entries[ck] = {"wall_s": wall_s, "cpu_s": cpu_s,
                                 "runs": 1, "stamp": self._stamp}
        else:
            a = self.alpha
            rec["wall_s"] = (1 - a) * rec["wall_s"] + a * wall_s
            rec["cpu_s"] = (1 - a) * rec["cpu_s"] + a * cpu_s
            rec["runs"] += 1
            rec["stamp"] = self._stamp
        self._dirty = True
        if len(self._entries) > self.max_entries:
            self._evict()

    def _evict(self) -> None:
        """Drop the least-recently-updated entries back to the cap."""
        by_age = sorted(self._entries.items(),
                        key=lambda item: item[1]["stamp"])
        for key, _ in by_age[:len(self._entries) - self.max_entries]:
            del self._entries[key]

    def __len__(self) -> int:
        return len(self._entries)

    def record(self) -> dict:
        """JSON-ready summary for the ``parallel`` stats block."""
        return {"entries": len(self._entries), "hits": self.hits,
                "misses": self.misses,
                "path": self.path or "(memory)"}


# ----------------------------------------------------------------------
# worker-side execution
# ----------------------------------------------------------------------

def _worker_init(obs_kwargs: dict) -> None:
    """Arm each worker's private observability switchboard."""
    global _IN_WORKER
    _IN_WORKER = True
    runner.configure_observability(**obs_kwargs)


def _ship_exception(exc: BaseException) -> tuple:
    """A picklable representation of a worker-side job failure."""
    tb = "".join(traceback.format_exception(type(exc), exc,
                                            exc.__traceback__))
    try:
        return ("pickle", pickle.dumps(exc), tb)
    except Exception:
        return ("repr", repr(exc), tb)


def _raise_shipped(shipped: tuple) -> None:
    kind, payload, tb = shipped
    if kind == "pickle":
        exc = pickle.loads(payload)
        raise exc from RuntimeError(f"worker traceback:\n{tb}")
    raise RuntimeError(
        f"job failed in worker: {payload}\nworker traceback:\n{tb}")


def _run_one(spec: JobSpec) -> tuple:
    """Run one spec here; returns (ok, value, wall, cpu, events, caps).

    Both wall and CPU time are measured: CPU time is the honest
    serial-equivalent cost (a worker's wall clock keeps ticking while
    it is descheduled on an oversubscribed host), wall time shows pool
    occupancy.
    """
    start = time.perf_counter()
    cpu_start = time.process_time()
    try:
        value = spec.run()
        ok = True
    except BaseException as exc:  # shipped to the parent, re-raised
        value = _ship_exception(exc)
        ok = False
    cpu = time.process_time() - cpu_start
    wall = time.perf_counter() - start
    captures = [runner.capture_cluster(c)
                for c in runner.captured_clusters()]
    events = sum(c.events for c in captures)
    return ok, value, wall, cpu, events, captures


def _worker_loop(worker_id: int, task_q, result_q,
                 obs_kwargs: dict) -> None:
    """One pool worker: pull chunks, run jobs, ship results.

    Stays alive for the whole bench invocation (warm-worker reuse);
    exits on the ``None`` sentinel.  Job failures are shipped as data
    -- the worker survives to take the next chunk, so one bad job
    never orphans or restarts the pool.
    """
    _worker_init(obs_kwargs)
    pid = os.getpid()
    last_done = time.perf_counter()
    while True:
        try:
            item = task_q.get()
        except (EOFError, OSError):  # pragma: no cover - parent died
            break
        if item is None:
            break
        chunk_id, jobs = item
        idle = time.perf_counter() - last_done
        entries = []
        for job_id, spec in jobs:
            ok, value, wall, cpu, events, caps = _run_one(spec)
            entries.append((job_id, ok, value, wall, cpu, events,
                            caps))
        try:
            result_q.put(("chunk", worker_id, pid, chunk_id, idle,
                          runner.peak_rss_mb(), entries))
        except Exception:  # pragma: no cover - unpicklable result
            shipped = _ship_exception(
                RuntimeError("could not ship chunk result"))
            result_q.put(("chunk", worker_id, pid, chunk_id, idle,
                          runner.peak_rss_mb(),
                          [(job_id, False, shipped, 0.0, 0.0, 0, [])
                           for job_id, _ in jobs]))
        last_done = time.perf_counter()


# ----------------------------------------------------------------------
# pool statistics (fed into BENCH_PERF.json by the CLI)
# ----------------------------------------------------------------------

@dataclass
class _WorkerStats:
    jobs: int = 0
    chunks: int = 0
    steals: int = 0
    busy_s: float = 0.0
    cpu_s: float = 0.0
    idle_s: float = 0.0
    events: int = 0
    peak_rss_mb: float = 0.0


@dataclass
class PoolStats:
    """Accumulated across every sweep of one scheduler.

    ``wall_s`` (via :meth:`add_busy`) is the *busy-interval union*:
    seconds during which at least one job was outstanding anywhere in
    the scheduler.  With cross-sweep pipelining, per-sweep walls
    overlap, so summing them would double-count; the union is what a
    stopwatch on the whole bench run would show the pool doing.
    """

    jobs: int
    sweeps: int = 0
    jobs_run: int = 0
    chunks_run: int = 0
    serial_equivalent_s: float = 0.0
    wall_s: float = 0.0
    workers: dict[int, _WorkerStats] = field(default_factory=dict)

    def note_job(self, pid: int, wall: float, cpu: float,
                 events: int, peak_rss_mb: float = 0.0) -> None:
        w = self.workers.setdefault(pid, _WorkerStats())
        w.jobs += 1
        w.busy_s += wall
        w.cpu_s += cpu
        w.events += events
        if peak_rss_mb > w.peak_rss_mb:
            w.peak_rss_mb = peak_rss_mb
        self.jobs_run += 1
        # CPU time, not worker wall: on an oversubscribed host a
        # worker's wall clock ticks while it is descheduled, which
        # would overstate what a serial run would have cost.
        self.serial_equivalent_s += cpu

    def note_chunk(self, pid: int, idle_s: float) -> None:
        w = self.workers.setdefault(pid, _WorkerStats())
        w.chunks += 1
        w.idle_s += idle_s
        self.chunks_run += 1

    def note_steal(self, pid: int) -> None:
        self.workers.setdefault(pid, _WorkerStats()).steals += 1

    def note_sweep(self) -> None:
        self.sweeps += 1

    def add_busy(self, elapsed: float) -> None:
        self.wall_s += elapsed

    def record(self, cost_model: Optional[CostModel] = None,
               order: str = "lpt") -> dict:
        """JSON-ready summary: per-worker throughput, steal/idle
        accounting, pool efficiency, and the aggregate speedup over a
        serial execution of the same jobs (sum of per-job CPU seconds
        / busy-interval union of the pool wall)."""
        workers = {}
        for i, pid in enumerate(sorted(self.workers)):
            w = self.workers[pid]
            workers[f"w{i}"] = {
                "jobs": w.jobs,
                "chunks": w.chunks,
                "steals": w.steals,
                "busy_s": round(w.busy_s, 3),
                "idle_s": round(w.idle_s, 3),
                "cpu_s": round(w.cpu_s, 3),
                "events": w.events,
                "events_per_sec": (round(w.events / w.cpu_s)
                                   if w.cpu_s > 0 else 0),
                "peak_rss_mb": round(w.peak_rss_mb, 1),
            }
        speedup = (self.serial_equivalent_s / self.wall_s
                   if self.wall_s > 0 else 0.0)
        peak_rss = max((w.peak_rss_mb for w in self.workers.values()),
                      default=0.0)
        record = {
            "jobs": self.jobs,
            "order": order,
            "sweeps": self.sweeps,
            "jobs_run": self.jobs_run,
            "chunks_run": self.chunks_run,
            "steals": sum(w.steals for w in self.workers.values()),
            "idle_s": round(sum(w.idle_s
                                for w in self.workers.values()), 3),
            "serial_equivalent_s": round(self.serial_equivalent_s, 3),
            "wall_s": round(self.wall_s, 3),
            "speedup": round(speedup, 2),
            "efficiency": (round(speedup / self.jobs, 3)
                           if self.jobs > 0 else 0.0),
            "peak_worker_rss_mb": round(peak_rss, 1),
            "workers": workers,
        }
        if cost_model is not None:
            record["cost_model"] = cost_model.record()
        return record


# ----------------------------------------------------------------------
# futures
# ----------------------------------------------------------------------

class SweepFuture:
    """The pending results of one submitted sweep.

    ``result()`` blocks until every job of *this* sweep completed
    (other sweeps keep flowing through the pool), then returns values
    merged in spec submission order by job key and records the jobs'
    observability captures -- in that same deterministic order -- with
    the runner.  Calling ``result()`` again returns the cached list.
    """

    def __init__(self, scheduler: "SweepScheduler",
                 keys: list[tuple]) -> None:
        self._scheduler = scheduler
        self._keys = keys
        self._values: list[Any] = [None] * len(keys)
        self._captures: list[list] = [[] for _ in keys]
        self._errors: dict[int, tuple] = {}
        self._ncomplete = 0
        self._done = len(keys) == 0
        self._collected: Optional[list] = None
        self._serial = False
        self.job_wall_s = 0.0
        self.job_cpu_s = 0.0
        self.events = 0

    def __len__(self) -> int:
        return len(self._keys)

    def done(self) -> bool:
        return self._done

    def _store(self, pos: int, ok: bool, value: Any, wall: float,
               cpu: float, events: int, captures: list) -> None:
        if ok:
            self._values[pos] = value
        else:
            self._errors[pos] = value
        self._captures[pos] = captures
        self.job_wall_s += wall
        self.job_cpu_s += cpu
        self.events += events
        self._ncomplete += 1
        if self._ncomplete == len(self._keys):
            self._done = True

    def result(self) -> list[Any]:
        """Values in spec order; raises the first failed job's error."""
        if self._collected is not None:
            return self._collected
        if not self._done:
            self._scheduler._pump(wait_for=self)
        if self._errors:
            _raise_shipped(self._errors[min(self._errors)])
        if not self._serial:
            # Deterministic merge: reassemble observability captures
            # in spec order by key, never completion order.
            for caps in self._captures:
                runner.record_captures(caps)
        self._collected = list(self._values)
        return self._collected


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

    @property
    def job_wall_s(self) -> float:
        return self.future.job_wall_s if self.future is not None \
            else 0.0


# ----------------------------------------------------------------------
# the scheduler
# ----------------------------------------------------------------------

class _Chunk:
    __slots__ = ("id", "jobs", "est")

    def __init__(self, chunk_id: int, jobs: list, est: float) -> None:
        self.id = chunk_id
        self.jobs = jobs  # [(job_id, spec), ...]
        self.est = est


class _Worker:
    __slots__ = ("id", "proc", "task_q", "backlog", "inflight",
                 "inflight_est")

    def __init__(self, worker_id: int, proc, task_q) -> None:
        self.id = worker_id
        self.proc = proc
        self.task_q = task_q
        self.backlog: deque[_Chunk] = deque()  # parent-side queue
        self.inflight = 0          # chunks sent, not yet completed
        self.inflight_est = 0.0

    @property
    def load_est(self) -> float:
        return self.inflight_est + sum(c.est for c in self.backlog)


class SweepScheduler:
    """Runs job specs serially (``jobs=1``) or on a warm worker pool.

    The pool is created lazily on the first parallel submit (after the
    CLI has armed observability, so workers inherit the flags) and
    kept warm across every sweep of the bench invocation; per-worker
    statistics aggregate over the whole run.
    """

    def __init__(self, jobs: int = 1, *, order: Optional[str] = None,
                 cost_path: Optional[str] = None,
                 cost_model: Optional[CostModel] = None,
                 tiny_job_s: float = TINY_JOB_S,
                 chunk_target_s: float = CHUNK_TARGET_S) -> None:
        self.jobs = max(1, int(jobs))
        if order is None:
            order = os.environ.get("REPRO_SWEEP_ORDER", "lpt")
        if order not in ("lpt", "fifo"):
            raise ValueError(f"unknown sweep order {order!r}"
                             " (expected 'lpt' or 'fifo')")
        self.order = order
        self.costs = cost_model if cost_model is not None \
            else CostModel(cost_path)
        self.tiny_job_s = tiny_job_s
        self.chunk_target_s = chunk_target_s
        self.stats = PoolStats(jobs=self.jobs)
        self._workers: list[_Worker] = []
        self._result_q = None
        self._ctx = None
        self._next_job_id = 0
        self._next_chunk_id = 0
        #: job_id -> (future, position, key) for in-flight jobs.
        self._registry: dict[int, tuple] = {}
        self._outstanding = 0
        self._busy_since: Optional[float] = None

    # -- pool lifecycle -------------------------------------------------
    def _ensure_pool(self) -> None:
        if self._workers:
            return
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")
        self._result_q = self._ctx.Queue()
        obs_kwargs = runner.observability_kwargs()
        for worker_id in range(self.jobs):
            task_q = self._ctx.Queue()
            proc = self._ctx.Process(
                target=_worker_loop,
                args=(worker_id, task_q, self._result_q, obs_kwargs),
                daemon=True)
            proc.start()
            self._workers.append(_Worker(worker_id, proc, task_q))

    @property
    def _pool(self):
        """Truthy while worker processes exist (back-compat probe)."""
        return self._workers or None

    def shutdown(self) -> None:
        """Stop the workers (stats and the cost model are retained).

        A clean shutdown (no outstanding jobs) sends each worker the
        stop sentinel and joins it; with jobs still outstanding (an
        experiment raised mid-run) the workers are terminated instead
        of waiting out their queues.  Either way no worker outlives
        this call -- the error path must not orphan processes.
        """
        if self._workers:
            force = self._outstanding > 0
            if not force:
                for w in self._workers:
                    try:
                        w.task_q.put(None)
                    except Exception:  # pragma: no cover
                        force = True
            for w in self._workers:
                if force:
                    w.proc.terminate()
                w.proc.join(timeout=10)
                if w.proc.is_alive():  # pragma: no cover - stuck child
                    w.proc.terminate()
                    w.proc.join(timeout=10)
            for w in self._workers:
                w.task_q.close()
            if self._result_q is not None:
                self._result_q.close()
            self._workers = []
            self._result_q = None
            if self._busy_since is not None:
                self.stats.add_busy(time.perf_counter()
                                    - self._busy_since)
                self._busy_since = None
            self._outstanding = 0
            self._registry.clear()
        self.costs.save()

    # -- submission -----------------------------------------------------
    def submit(self, specs: Sequence[JobSpec]) -> SweepFuture:
        """Queue a sweep; returns immediately with its future.

        Serial schedulers (``jobs=1``) and nested submissions inside a
        pool worker run the specs inline, eagerly, through exactly the
        code path a direct call would take.
        """
        specs = list(specs)
        keys = _resolved_keys(specs)
        future = SweepFuture(self, keys)
        if not specs:
            return future
        self.stats.note_sweep()
        if self.jobs <= 1 or _IN_WORKER:
            self._run_inline(specs, keys, future)
            return future
        self._ensure_pool()
        chunks = self._build_chunks(specs, keys, future)
        if self.order == "lpt":
            chunks.sort(key=lambda c: c.est, reverse=True)
        if self._outstanding == 0:
            self._busy_since = time.perf_counter()
        self._outstanding += len(specs)
        for chunk in chunks:
            target = min(self._workers, key=lambda w: w.load_est)
            target.backlog.append(chunk)
        for worker in self._workers:
            self._fill(worker)
        self._pump(wait_for=None)  # drain whatever already finished
        return future

    def map(self, specs: Sequence[JobSpec]) -> list[Any]:
        """Run every spec; results in spec order, merged by job key."""
        return self.submit(specs).result()

    # -- serial path ----------------------------------------------------
    def _run_inline(self, specs: Sequence[JobSpec], keys: list[tuple],
                    future: SweepFuture) -> None:
        future._serial = True
        pid = os.getpid()
        start = time.perf_counter()
        try:
            for pos, (spec, key) in enumerate(zip(specs, keys)):
                watermark = runner.live_cluster_index()
                t0 = time.perf_counter()
                c0 = time.process_time()
                value = spec.run()
                cpu = time.process_time() - c0
                wall = time.perf_counter() - t0
                events = runner.events_since(watermark)
                self.stats.note_job(pid, wall, cpu, events,
                                    runner.peak_rss_mb())
                self.costs.observe(key, wall, cpu)
                future._store(pos, True, value, wall, cpu, events, [])
        finally:
            self.stats.add_busy(time.perf_counter() - start)

    # -- chunk assembly -------------------------------------------------
    def _build_chunks(self, specs: Sequence[JobSpec],
                      keys: list[tuple],
                      future: SweepFuture) -> list[_Chunk]:
        """Register the jobs and pack tiny ones into shared chunks.

        Only jobs with a *known* sub-``tiny_job_s`` estimate are
        packed (an unseen job might be long, so it rides alone);
        chunks target ``chunk_target_s`` of summed estimate and never
        exceed ``CHUNK_MAX_JOBS`` members.
        """
        chunks: list[_Chunk] = []
        tiny: list[tuple[int, JobSpec, float]] = []
        for pos, (spec, key) in enumerate(zip(specs, keys)):
            job_id = self._next_job_id
            self._next_job_id += 1
            self._registry[job_id] = (future, pos, key)
            est = self.costs.estimate(key)
            if est is not None and est < self.tiny_job_s:
                tiny.append((job_id, spec, est))
            else:
                chunks.append(self._make_chunk(
                    [(job_id, spec)],
                    est if est is not None else DEFAULT_EST_S))
        group: list = []
        group_est = 0.0
        for job_id, spec, est in tiny:
            group.append((job_id, spec))
            group_est += est
            if (group_est >= self.chunk_target_s
                    or len(group) >= CHUNK_MAX_JOBS):
                chunks.append(self._make_chunk(group, group_est))
                group, group_est = [], 0.0
        if group:
            chunks.append(self._make_chunk(group, group_est))
        return chunks

    def _make_chunk(self, jobs: list, est: float) -> _Chunk:
        chunk = _Chunk(self._next_chunk_id, jobs, est)
        self._next_chunk_id += 1
        return chunk

    # -- dispatch / work stealing ---------------------------------------
    def _fill(self, worker: _Worker) -> None:
        """Keep ``worker`` topped up to the prefetch depth, stealing
        from the most-loaded peer once its own queue runs dry."""
        while worker.inflight < PREFETCH:
            if worker.backlog:
                chunk = worker.backlog.popleft()
            else:
                chunk = self._steal_for(worker)
                if chunk is None:
                    return
            worker.task_q.put((chunk.id, chunk.jobs))
            worker.inflight += 1
            worker.inflight_est += chunk.est

    def _steal_for(self, thief: _Worker) -> Optional[_Chunk]:
        """Take the smallest queued chunk from the busiest victim.

        Only chunks the victim cannot itself issue right now are fair
        game: a victim with spare inflight slots will drain its own
        backlog on its next fill, and stealing that work would
        serialize two otherwise-concurrent workers.
        """
        victims = [w for w in self._workers
                   if w is not thief
                   and len(w.backlog) > PREFETCH - w.inflight]
        if not victims:
            return None
        victim = max(victims, key=lambda w: w.load_est)
        chunk = victim.backlog.pop()  # tail = smallest under LPT
        if thief.proc.pid is not None:
            self.stats.note_steal(thief.proc.pid)
        return chunk

    # -- completion pump ------------------------------------------------
    def _pump(self, wait_for: Optional[SweepFuture]) -> None:
        """Drain completed chunks; with ``wait_for``, block until that
        future is done (other futures' results are banked as they
        arrive -- the pool never idles waiting for a specific sweep).
        """
        while True:
            if wait_for is not None:
                if wait_for.done():
                    return
            block = wait_for is not None
            try:
                if block:
                    message = self._result_q.get(True, 1.0)
                else:
                    message = self._result_q.get(False)
            except queue_mod.Empty:
                if not block:
                    return
                self._check_alive()
                continue
            self._handle(message)

    def _handle(self, message: tuple) -> None:
        kind = message[0]
        if kind != "chunk":  # pragma: no cover - unknown message
            raise RuntimeError(f"unexpected pool message {kind!r}")
        _, worker_id, pid, chunk_id, idle_s, rss_mb, entries = message
        worker = self._workers[worker_id]
        worker.inflight -= 1
        self.stats.note_chunk(pid, idle_s)
        for job_id, ok, value, wall, cpu, events, caps in entries:
            future, pos, key = self._registry.pop(job_id)
            self.stats.note_job(pid, wall, cpu, events, rss_mb)
            if ok:
                self.costs.observe(key, wall, cpu)
            future._store(pos, ok, value, wall, cpu, events, caps)
            self._outstanding -= 1
            worker.inflight_est = max(
                0.0, worker.inflight_est
                - (self.costs.estimate(key) or DEFAULT_EST_S))
        if self._outstanding == 0 and self._busy_since is not None:
            self.stats.add_busy(time.perf_counter() - self._busy_since)
            self._busy_since = None
        self._fill(worker)

    def _check_alive(self) -> None:
        dead = [w for w in self._workers if not w.proc.is_alive()
                and (w.inflight > 0 or w.backlog)]
        if dead:
            pids = [w.proc.pid for w in dead]
            self._outstanding = 0  # force-terminate on shutdown
            raise RuntimeError(
                f"sweep worker(s) {pids} died with jobs outstanding"
                " (simulation crash or OOM kill); aborting the sweep")

    def record(self) -> dict:
        """The ``parallel`` stats block (cost model included)."""
        return self.stats.record(self.costs, self.order)


#: Back-compat alias: the pre-futures executor class name.
SweepExecutor = SweepScheduler


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


def configure(jobs: int = 1, **kwargs: Any) -> SweepScheduler:
    """Install a fresh scheduler with ``jobs`` workers (1 == serial)."""
    return set_executor(SweepScheduler(jobs=jobs, **kwargs))


def shutdown() -> None:
    """Tear down the global scheduler's pool (stats are retained)."""
    _EXECUTOR.shutdown()


@atexit.register
def _atexit_shutdown() -> None:  # pragma: no cover - interpreter exit
    """Last-resort guard: never leave pool workers orphaned, even if
    an experiment raised past every ``finally``."""
    if _IN_WORKER:
        return
    try:
        _EXECUTOR.shutdown()
    except Exception:
        pass


def submit(specs: Sequence[JobSpec]) -> SweepFuture:
    """Queue ``specs`` on the installed scheduler; returns the future
    immediately so independent sweeps pipeline through the pool."""
    return _EXECUTOR.submit(specs)


def sweep(specs: Sequence[JobSpec]) -> list[Any]:
    """Run ``specs`` on the installed scheduler; results in spec
    order (submit + block)."""
    return _EXECUTOR.map(specs)


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
    """Host metadata stamped into ``BENCH_PERF.json`` so the perf
    trajectory stays comparable across machines and job counts."""
    return {
        "cpu_count": os.cpu_count() or 1,
        "cpus_usable": auto_jobs(),
        "python": platform.python_version(),
        "platform": sys.platform,
        "jobs": jobs,
    }
