"""Unified observability: metrics, traces, spans, telemetry.

The paper's whole argument is quantitative (Tables 1-2, Figures 2-4
are counter- and latency-derived), so the simulator carries one
measurement surface, armed by one handle: an :class:`ObsSpec`
(:mod:`repro.obs.spec`) names the artifacts a run produces
(:data:`ARTIFACTS`), and ``Cluster(obs=...)`` asks it for recorders.

* :class:`MetricsRegistry` -- cluster-wide fixed-bucket virtual-time
  histograms plus the counters subsystems expose through collectors,
  addressed by ``(subsystem, node, name)``; every cluster owns one as
  ``cluster.metrics``.
* :func:`write_trace_jsonl` and friends -- :class:`repro.sim.Tracer`
  records as JSONL (``time_us, node, subsystem, event, fields``).
* :class:`SpanRecorder` (:mod:`repro.obs.spans`) -- every LAPI/MPL/GA
  operation as a tree of virtual-time phase spans, stitched across
  nodes; :func:`decompose` / :func:`critical_path` reduce them to the
  paper's Table 1, and :func:`write_chrome_trace` to Perfetto.
* :class:`Timeline` / :class:`FlightRecorder` -- per-window series of
  every histogram and goodput stream, and fault-triggered black-box
  dumps.

Determinism is a hard guarantee: identical seeds produce identical
snapshots (and byte-identical rendered blocks / trace files / span
streams), serial or parallel.  Recording is purely observational --
arming any of it never perturbs virtual time.  See
``docs/observability.md`` for the schemas and the bench harness's
``python -m repro.bench --obs metrics,trace,spans --obs-out DIR``.
"""

from .chrome import chrome_trace_events, write_chrome_trace
from .export import (coerce_value, jsonl_lines, record_to_dict,
                     write_trace_jsonl)
from .flight import FlightRecorder, write_flight_jsonl
from .metrics import (DEPTH_BUCKETS, Histogram, LATENCY_BUCKETS_US,
                      MetricsRegistry)
from .pools import pool_stats
from .profile import (MANDATORY_PHASES, PHASE_ORDER, SIZE_BUCKETS,
                      bucket_of, critical_path, decompose, percentile,
                      render_critical_path, render_decomposition)
from .sketch import DEFAULT_ALPHA, QuantileSketch, merge_sketches
from .spans import SPAN_SCHEMA_KEYS, Span, SpanRecorder, span_to_dict
from .spec import ARTIFACTS, ClusterCapture, ObsOutput, ObsSpec
from .timeline import DEFAULT_WINDOW_US, Timeline

__all__ = [
    "ARTIFACTS",
    "ClusterCapture",
    "DEFAULT_ALPHA",
    "DEFAULT_WINDOW_US",
    "DEPTH_BUCKETS",
    "FlightRecorder",
    "Histogram",
    "LATENCY_BUCKETS_US",
    "MANDATORY_PHASES",
    "MetricsRegistry",
    "ObsOutput",
    "ObsSpec",
    "PHASE_ORDER",
    "QuantileSketch",
    "SIZE_BUCKETS",
    "SPAN_SCHEMA_KEYS",
    "Span",
    "SpanRecorder",
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
