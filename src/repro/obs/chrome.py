"""Chrome trace-event export: open span streams in Perfetto.

Converts serialized span dicts (:func:`repro.obs.spans.span_to_dict`)
into the Chrome trace-event JSON format (the ``{"traceEvents": [...]}``
container), loadable at https://ui.perfetto.dev:

* one *process* per (cluster, node) -- the per-node timeline the paper
  reasons about;
* spans become complete (``"X"``) events, greedily packed onto lanes
  (tids) so concurrent spans on a node never overlap within a lane;
* wire hops become flow events (``"s"`` at the end of the source's
  ``wire`` span, ``"f"`` at the start of the destination's ``rx_dma``
  span), drawing the cross-node causal arrows.

Virtual microseconds map directly onto trace-event ``ts``/``dur``
(which are microseconds by definition).  Output is deterministic:
fixed event ordering, fixed key order, gzip with a zeroed mtime when
the path ends in ``.gz``.
"""

from __future__ import annotations

import json
import os
from typing import Sequence, Union

from .export import write_lines

__all__ = ["chrome_trace_events", "write_chrome_trace"]

#: pid namespacing: cluster index * stride + node id.
_PID_STRIDE = 100
#: flow-id namespacing across clusters (packet uids restart per
#: cluster, so ids must be offset to stay globally unique).
_FLOW_STRIDE = 10_000_000


def chrome_trace_events(
        span_streams: Sequence[Sequence[dict]]) -> list[dict]:
    """Trace events for a sequence of per-cluster span streams.

    ``span_streams[i]`` is the serialized span list of cluster ``i``
    (canonical ``(t0, sid)`` order, as shipped by
    :class:`~repro.bench.runner.ClusterCapture`).
    """
    events: list[dict] = []
    for cidx, spans in enumerate(span_streams):
        _one_cluster(events, cidx, spans)
    return events


def _one_cluster(events: list[dict], cidx: int,
                 spans: Sequence[dict]) -> None:
    ordered = sorted(spans, key=lambda sp: (sp["t0_us"], sp["sid"]))
    #: pid -> list of per-lane end times (greedy interval packing).
    lanes: dict[int, list[float]] = {}
    seen_pids: list[int] = []
    flow_src: dict[int, dict] = {}
    flow_dst: dict[int, dict] = {}

    for sp in ordered:
        pid = cidx * _PID_STRIDE + sp["node"]
        if pid not in lanes:
            lanes[pid] = []
            seen_pids.append(pid)
        ends = lanes[pid]
        for lane, end in enumerate(ends):
            if end <= sp["t0_us"]:
                break
        else:
            ends.append(0.0)
            lane = len(ends) - 1
        ends[lane] = max(sp["t1_us"], sp["t0_us"])
        fields = sp.get("fields") or {}
        args = {"sid": sp["sid"], "parent": sp["parent"]}
        for k in sorted(fields):
            args[k] = fields[k]
        event = {
            "name": f"{sp['subsystem']}.{sp['op']}/{sp['phase']}",
            "cat": sp["subsystem"],
            "ph": "X",
            "ts": sp["t0_us"],
            "dur": round(sp["t1_us"] - sp["t0_us"], 6),
            "pid": pid,
            "tid": lane,
            "args": args,
        }
        events.append(event)
        flow = sp.get("flow")
        if flow is not None:
            if sp["phase"] == "wire":
                flow_src[flow] = event
            elif sp["phase"] == "rx_dma":
                flow_dst[flow] = event

    for pid in seen_pids:
        node = pid - cidx * _PID_STRIDE
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args":
                       {"name": f"cluster{cidx}/node{node}"}})
        for lane in range(len(lanes[pid])):
            events.append({"name": "thread_name", "ph": "M", "pid": pid,
                           "tid": lane,
                           "args": {"name": f"lane{lane:02d}"}})

    # Flow arrows for every wire hop observed end-to-end.
    for uid in sorted(flow_src):
        dst = flow_dst.get(uid)
        if dst is None:
            continue  # lost or still-in-flight packet: no arrow
        src = flow_src[uid]
        fid = cidx * _FLOW_STRIDE + uid
        events.append({"name": "wire", "cat": "flow", "ph": "s",
                       "id": fid, "ts": round(src["ts"] + src["dur"], 6),
                       "pid": src["pid"], "tid": src["tid"]})
        events.append({"name": "wire", "cat": "flow", "ph": "f",
                       "bp": "e", "id": fid, "ts": dst["ts"],
                       "pid": dst["pid"], "tid": dst["tid"]})


def write_chrome_trace(span_streams: Sequence[Sequence[dict]],
                       path: Union[str, "os.PathLike"]) -> int:
    """Write a Perfetto-loadable trace to ``path``; returns the event
    count.  Transparently gzips when the name ends in ``.gz``
    (deterministically: zeroed mtime, no embedded filename)."""
    events = chrome_trace_events(span_streams)
    write_lines([json.dumps({"traceEvents": events,
                             "displayTimeUnit": "ms"},
                            separators=(",", ":"), default=str)], path)
    return len(events)
