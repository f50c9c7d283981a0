"""Unified observability: metrics, trace export, and causal spans.

The paper's whole argument is quantitative (Tables 1-2, Figures 2-4
are counter- and latency-derived), so the simulator carries one
first-class measurement surface instead of per-subsystem ad-hoc
counters:

* :class:`MetricsRegistry` -- cluster-wide named counters, gauges, and
  fixed-bucket virtual-time histograms, addressed by
  ``(subsystem, node, name)``.  Every :class:`repro.machine.Cluster`
  owns one as ``cluster.metrics``; the machine, LAPI, MPL, and GA
  layers wire themselves into it at init time.
* :func:`write_trace_jsonl` and friends -- export
  :class:`repro.sim.Tracer` records as JSONL
  (``time_us, node, subsystem, event, fields``), transparently
  gzipped for ``.gz`` paths.
* :class:`SpanRecorder` (:mod:`repro.obs.spans`) -- causal span
  tracing: every LAPI/MPL/GA operation as a tree of virtual-time
  spans (call/tx/wire/rx_dma/dispatch/handler phases), stitched
  across nodes by packet uids and message ids.
* :func:`decompose` / :func:`critical_path`
  (:mod:`repro.obs.profile`) -- per-phase latency decomposition in
  the shape of the paper's Table 1, plus the gating node/phase of
  each synchronization epoch.
* :func:`write_chrome_trace` (:mod:`repro.obs.chrome`) -- Chrome
  trace-event export, loadable in Perfetto, with cross-node flow
  events for wire hops.

Determinism is a hard guarantee: identical seeds produce identical
snapshots (and byte-identical rendered blocks / trace files / span
streams), serial or parallel.  Recording is purely observational --
arming any of it never perturbs virtual time.  See
``docs/observability.md`` for the schemas and the bench-harness flags
(``python -m repro.bench --metrics --trace-out FILE --spans
--spans-out FILE --decompose``).
"""

from .chrome import chrome_trace_events, write_chrome_trace
from .export import (coerce_value, jsonl_lines, record_to_dict,
                     write_trace_jsonl)
from .flight import FlightRecorder, write_flight_jsonl
from .metrics import (Counter, DEPTH_BUCKETS, Gauge, Histogram,
                      LATENCY_BUCKETS_US, MetricsRegistry)
from .pools import pool_stats
from .profile import (MANDATORY_PHASES, PHASE_ORDER, SIZE_BUCKETS,
                      bucket_of, critical_path, decompose, percentile,
                      render_critical_path, render_decomposition)
from .sketch import DEFAULT_ALPHA, QuantileSketch, merge_sketches
from .spans import SPAN_SCHEMA_KEYS, Span, SpanRecorder, span_to_dict
from .timeline import (TelemetryConfig, TelemetryRuntime, Timeline,
                       DEFAULT_WINDOW_US)

__all__ = [
    "Counter",
    "DEFAULT_ALPHA",
    "DEFAULT_WINDOW_US",
    "DEPTH_BUCKETS",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS_US",
    "MANDATORY_PHASES",
    "MetricsRegistry",
    "PHASE_ORDER",
    "QuantileSketch",
    "SIZE_BUCKETS",
    "SPAN_SCHEMA_KEYS",
    "Span",
    "SpanRecorder",
    "TelemetryConfig",
    "TelemetryRuntime",
    "Timeline",
    "bucket_of",
    "chrome_trace_events",
    "coerce_value",
    "critical_path",
    "decompose",
    "jsonl_lines",
    "merge_sketches",
    "percentile",
    "pool_stats",
    "record_to_dict",
    "render_critical_path",
    "render_decomposition",
    "span_to_dict",
    "write_chrome_trace",
    "write_flight_jsonl",
    "write_trace_jsonl",
]
