"""Shared plumbing for benchmark experiments.

Experiments are SPMD jobs on fresh clusters measured in *virtual* time;
these helpers standardize cluster construction, repetition/averaging,
and unit conversions (bytes/us == MB/s).

The module also carries the harness's observability switchboard: when
``python -m repro.bench`` runs with ``--metrics`` or ``--trace-out``,
:func:`configure_observability` arms capture and every cluster built by
:func:`fresh_cluster` gets a structured tracer attached and is retained
so the CLI can render its per-subsystem metrics block and export its
JSONL trace after the experiment finishes.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..machine import Cluster
from ..machine.config import SP_1998, MachineConfig
from ..obs import SpanRecorder, record_to_dict
from ..sim import Tracer

__all__ = ["fresh_cluster", "mean", "reps_for_size", "SIZE_SWEEP",
           "bandwidth_mbs", "configure_observability",
           "captured_clusters", "ClusterCapture", "capture_cluster",
           "record_captures", "drain_captures",
           "observability_kwargs", "peak_rss_mb"]

#: Message-size sweep of Figure 2 (16 bytes to 2 MB).
SIZE_SWEEP = [16, 64, 256, 1024, 4096, 8192, 16384, 32768, 65536,
              131072, 262144, 524288, 1048576, 2097152]


class _Observability:
    """Capture state armed by the CLI; off by default."""

    def __init__(self) -> None:
        self.collect_metrics = False
        self.trace = False
        #: Retain clusters without attaching metrics/trace machinery
        #: (the ledger reads their kernel counters).
        self.capture = False
        #: Arm causal span tracing (``--spans-out``/``--decompose``).
        self.spans = False
        #: Armed :class:`repro.obs.TelemetryConfig` (``--timeline-out``
        #: / ``--flight-out``), or None.  Frozen and picklable, so
        #: :func:`observability_kwargs` ships it to sweep workers
        #: verbatim and every worker arms the parent's exact config.
        self.telemetry = None
        self.trace_limit = 250_000
        self.trace_categories: Optional[Sequence[str]] = None
        self.clusters: list[Cluster] = []
        #: Captures shipped back from sweep-engine workers (see
        #: ``repro.bench.parallel``), already in job-spec order.
        self.captures: list["ClusterCapture"] = []


_OBS = _Observability()


def configure_observability(*, metrics: bool = False, trace: bool = False,
                            capture: bool = False, spans: bool = False,
                            telemetry=None,
                            trace_limit: int = 250_000,
                            trace_categories: Optional[Sequence[str]]
                            = None) -> None:
    """Arm (or disarm) metrics/trace/span capture for new clusters."""
    _OBS.collect_metrics = metrics
    _OBS.trace = trace
    _OBS.capture = capture
    _OBS.spans = spans
    _OBS.telemetry = telemetry
    _OBS.trace_limit = trace_limit
    _OBS.trace_categories = trace_categories
    _OBS.clusters = []
    _OBS.captures = []


def observability_kwargs() -> dict:
    """The armed capture flags, in :func:`configure_observability`
    keyword form -- what the sweep engine replays in each worker."""
    return {"metrics": _OBS.collect_metrics, "trace": _OBS.trace,
            "capture": _OBS.capture, "spans": _OBS.spans,
            "telemetry": _OBS.telemetry,
            "trace_limit": _OBS.trace_limit,
            "trace_categories": _OBS.trace_categories}


def captured_clusters() -> list[Cluster]:
    """Drain the clusters captured since the last call (CLI hook)."""
    clusters = _OBS.clusters
    _OBS.clusters = []
    return clusters


@dataclass
class ClusterCapture:
    """Picklable observability summary of one finished cluster.

    Everything the CLI reads after an experiment -- kernel event
    counts, final virtual time, the rendered ``--metrics`` block, and
    serialized trace records -- without the (unpicklable) live
    cluster.  Sweep-engine workers ship these back to the parent; the
    serial path converts live clusters lazily, so both modes feed the
    CLI byte-identical material.
    """

    nnodes: int
    now: float
    events: int
    metrics_block: Optional[str] = None
    trace: list[dict] = field(default_factory=list)
    #: Serialized spans of this cluster (``--spans-out``), in canonical
    #: order -- identical whether shipped from a worker or drained
    #: from a live in-process cluster.
    spans: list[dict] = field(default_factory=list)
    #: Telemetry snapshot (``TelemetryRuntime.snapshot()``: windowed
    #: series and flight dumps) when the cluster was armed.
    #: Plain nested dicts in deterministic order, so worker-shipped and
    #: in-process captures serialize byte-identically.
    telemetry: Optional[dict] = None


def capture_cluster(cluster: Cluster) -> ClusterCapture:
    """Condense a finished cluster into a :class:`ClusterCapture`."""
    metrics_block = (cluster.metrics.render()
                     if _OBS.collect_metrics else None)
    trace = ([record_to_dict(r) for r in cluster.trace.records]
             if cluster.trace is not None else [])
    spans = (cluster.spans.span_dicts()
             if cluster.spans is not None else [])
    telemetry = (cluster.telemetry.snapshot()
                 if cluster.telemetry is not None else None)
    return ClusterCapture(nnodes=cluster.nnodes, now=cluster.sim.now,
                          events=cluster.sim.events_processed,
                          metrics_block=metrics_block, trace=trace,
                          spans=spans, telemetry=telemetry)


def record_captures(captures: Sequence[ClusterCapture]) -> None:
    """Append worker-shipped captures (sweep engine, in job order)."""
    _OBS.captures.extend(captures)


def drain_captures() -> list[ClusterCapture]:
    """Drain all capture state as :class:`ClusterCapture` records.

    Worker-shipped captures come first (the sweep engine records them
    in job-spec order), then any live clusters built in-process,
    converted in construction order.  An experiment never mixes the
    two within one drain: either its jobs all ran on the pool or all
    ran inline.
    """
    captures = _OBS.captures
    clusters = _OBS.clusters
    _OBS.captures = []
    _OBS.clusters = []
    return captures + [capture_cluster(c) for c in clusters]


def fresh_cluster(nnodes: int = 2, config: MachineConfig = SP_1998,
                  seed: int = 0xBE1, faults=None,
                  telemetry=None) -> Cluster:
    """A new cluster per measurement: no cross-experiment state.

    ``faults`` is an optional :class:`repro.faults.FaultSchedule`
    installed at construction time (the chaos bench's entry point).
    ``telemetry`` overrides the armed
    :class:`repro.obs.TelemetryConfig` for this cluster (the chaos
    bench always arms its own); None falls back to whatever the CLI
    armed, usually nothing.
    """
    trace = Tracer(categories=_OBS.trace_categories,
                   limit=_OBS.trace_limit) if _OBS.trace else None
    spans = SpanRecorder() if _OBS.spans else None
    if telemetry is None:
        telemetry = _OBS.telemetry
    cluster = Cluster(nnodes=nnodes, config=config, seed=seed,
                      trace=trace, spans=spans, faults=faults,
                      telemetry=telemetry)
    if (_OBS.collect_metrics or _OBS.trace or _OBS.capture
            or _OBS.spans or telemetry is not None):
        _OBS.clusters.append(cluster)
    return cluster


def mean(values: Sequence[float], *, skip_warmup: int = 1) -> float:
    """Average, discarding warm-up iterations when there are enough.

    The warm-up values are dropped whenever at least one measured value
    remains afterwards; with ``skip_warmup`` or fewer samples nothing
    is discarded.  An empty sequence is a caller bug and raises.
    """
    vals = list(values)
    if not vals:
        raise ValueError("mean() of an empty sequence of measurements")
    if len(vals) > skip_warmup:
        vals = vals[skip_warmup:]
    return sum(vals) / len(vals)


def reps_for_size(nbytes: int, *, budget_bytes: int = 1 << 20,
                  lo: int = 3, hi: int = 24) -> int:
    """Series length decreasing with request size (as in section 5.4)."""
    reps = budget_bytes // max(nbytes, 1)
    return max(lo, min(hi, reps))


def peak_rss_mb() -> float:
    """This process's resident-memory high watermark, in MB.

    ``ru_maxrss`` units are platform-defined: kilobytes on Linux (per
    getrusage(2)) but **bytes** on macOS -- normalize per platform so
    RSS gates are not 1024x off outside Linux.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-Unix host
        return 0.0
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / (1e6 if sys.platform == "darwin" else 1e3)


def bandwidth_mbs(nbytes: int, elapsed_us: float) -> float:
    """Bytes over microseconds is numerically MB/s.

    A non-positive elapsed time is always a measurement bug (virtual
    clocks never run backwards and every transfer costs time); raising
    keeps a zero-duration defect from turning into an ``inf`` that
    silently contaminates a ``mean()`` over a sweep.
    """
    if elapsed_us <= 0:
        raise ValueError(
            f"bandwidth_mbs: non-positive elapsed time {elapsed_us}us"
            f" for {nbytes} bytes (zero-duration measurement bug)")
    return nbytes / elapsed_us
