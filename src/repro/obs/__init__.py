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

Every name loads its module on first access (PEP 562), and
:class:`ObsSpec` imports each recorder and writer only in the path that
arms, captures or writes its artifact: a cluster built with the empty
spec loads :mod:`.metrics` and :mod:`.spec` and nothing else.
"""

import importlib

#: Exported name -> the submodule that defines it, loaded on first use.
_LAZY = {
    "ARTIFACTS": "spec",
    "ClusterCapture": "spec",
    "DEFAULT_ALPHA": "sketch",
    "DEFAULT_WINDOW_US": "spec",
    "DEPTH_BUCKETS": "metrics",
    "FlightRecorder": "flight",
    "Histogram": "metrics",
    "LATENCY_BUCKETS_US": "metrics",
    "MANDATORY_PHASES": "profile",
    "MetricsRegistry": "metrics",
    "ObsOutput": "spec",
    "ObsSpec": "spec",
    "PHASE_ORDER": "profile",
    "QuantileSketch": "sketch",
    "SIZE_BUCKETS": "profile",
    "SPAN_SCHEMA_KEYS": "spans",
    "Span": "spans",
    "SpanRecorder": "spans",
    "Timeline": "timeline",
    "bucket_of": "profile",
    "chrome_trace_events": "chrome",
    "coerce_value": "export",
    "critical_path": "profile",
    "decompose": "profile",
    "jsonl_lines": "export",
    "merge_sketches": "sketch",
    "percentile": "profile",
    "pool_stats": "pools",
    "record_to_dict": "export",
    "render_critical_path": "profile",
    "render_decomposition": "profile",
    "span_to_dict": "spans",
    "write_chrome_trace": "chrome",
    "write_flight_jsonl": "flight",
    "write_trace_jsonl": "export",
}

__all__ = sorted(_LAZY)


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
