"""Shared plumbing for benchmark experiments.

Experiments are SPMD jobs on fresh clusters measured in *virtual* time;
these helpers standardize cluster construction, repetition/averaging,
and unit conversions (bytes/us == MB/s).

The module also holds the harness's armed observability: when
``python -m repro.bench`` runs with ``--obs NAMES``,
:func:`configure_observability` arms an :class:`repro.obs.ObsSpec`,
every cluster built by :func:`fresh_cluster` gets its recorders and is
retained, and the CLI drains their captures after each experiment.
"""

from __future__ import annotations

import sys
from typing import Optional, Sequence

from ..machine import Cluster
from ..machine.config import SP_1998, MachineConfig
from ..obs import ClusterCapture, ObsSpec

__all__ = ["fresh_cluster", "mean", "reps_for_size", "SIZE_SWEEP",
           "bandwidth_mbs", "configure_observability", "armed",
           "captured_clusters", "ClusterCapture", "capture_cluster",
           "record_captures", "drain_captures", "peak_rss_mb"]

#: Message-size sweep of Figure 2 (16 bytes to 2 MB).
SIZE_SWEEP = [16, 64, 256, 1024, 4096, 8192, 16384, 32768, 65536,
              131072, 262144, 524288, 1048576, 2097152]

#: The armed spec; empty (nothing armed) by default.
_spec = ObsSpec()
#: Retain clusters even with nothing armed (the ledger reads their
#: kernel counters).
_capture = False
#: Live clusters built in this process since the last drain.
_clusters: list[Cluster] = []
#: Captures shipped back from sweep-engine workers (see
#: ``repro.bench.parallel``), already in job-spec order.
_captures: list[ClusterCapture] = []


def configure_observability(obs: ObsSpec = ObsSpec(), *,
                            capture: bool = False) -> None:
    """Arm ``obs`` for new clusters (the empty spec disarms) and drop
    anything retained so far."""
    global _spec, _capture, _clusters, _captures
    _spec, _capture, _clusters, _captures = obs, capture, [], []


def armed() -> tuple[ObsSpec, bool]:
    """The armed spec and capture flag, in
    :func:`configure_observability`'s argument order -- what the sweep
    engine replays in each worker."""
    return _spec, _capture


def captured_clusters() -> list[Cluster]:
    """Drain the clusters captured since the last call (CLI hook)."""
    global _clusters
    clusters, _clusters = _clusters, []
    return clusters


def capture_cluster(cluster: Cluster) -> ClusterCapture:
    """Condense a finished cluster into a :class:`ClusterCapture` of
    the armed artifacts."""
    return _spec.capture(cluster)


def record_captures(captures: Sequence[ClusterCapture]) -> None:
    """Append worker-shipped captures (sweep engine, in job order)."""
    _captures.extend(captures)


def drain_captures() -> list[ClusterCapture]:
    """Drain all capture state as :class:`ClusterCapture` records.

    Worker-shipped captures come first (the sweep engine records them
    in job-spec order), then any live clusters built in-process,
    converted in construction order.  An experiment never mixes the
    two within one drain: either its jobs all ran on the pool or all
    ran inline.
    """
    global _captures
    captures, _captures = _captures, []
    return captures + [capture_cluster(c) for c in captured_clusters()]


def fresh_cluster(nnodes: int = 2, config: MachineConfig = SP_1998,
                  seed: int = 0xBE1, faults=None,
                  obs: Optional[ObsSpec] = None) -> Cluster:
    """A new cluster per measurement: no cross-experiment state.

    ``faults`` is an optional :class:`repro.faults.FaultSchedule`
    installed at construction time (the chaos bench's entry point).
    ``obs`` replaces the armed spec for this cluster; it must name
    every armed artifact (the chaos bench adds its own timeline).
    """
    cluster = Cluster(nnodes=nnodes, config=config, seed=seed,
                      faults=faults,
                      obs=_spec if obs is None else obs)
    if _capture or _spec.names:
        _clusters.append(cluster)
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
