"""Cluster-wide metrics: fixed-bucket histograms plus collectors.

The registry is the single measurement surface of the simulator.  Every
count comes from a *collector*: a zero-argument callable a subsystem
(adapter, switch, reliability layer, LAPI/MPL dispatchers, GA buffer
pools) registers to expose the counters it already keeps, which the
registry invokes lazily at snapshot time -- hot paths stay untouched
while everything still aggregates into one report.  The only
instruments updated on a hot path are histograms (:class:`Histogram`),
for distributions no plain counter can carry.

Metrics are addressed by ``(subsystem, node, name)``; ``node=None``
denotes a cluster-wide metric (the switch).  All values derive from
virtual-time simulation state, so identical seeds produce *identical*
snapshots -- byte-identical once rendered -- which tests assert.

Histograms use fixed log-spaced buckets so that two runs always bucket
identically; :data:`LATENCY_BUCKETS_US` (powers of two from 0.5us to
~1s) suits virtual-time latencies, :data:`DEPTH_BUCKETS` small integer
depths (queue/stash occupancy).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Callable, Optional, Sequence

from ..errors import SimulationError

__all__ = ["Histogram", "MetricsRegistry", "LATENCY_BUCKETS_US",
           "DEPTH_BUCKETS"]

#: Log-spaced virtual-time latency buckets: 0.5us .. ~1s, then +inf.
LATENCY_BUCKETS_US = tuple(2.0 ** k for k in range(-1, 21))

#: Log-spaced occupancy/depth buckets: 1, 2, 4 .. 1024, then +inf.
DEPTH_BUCKETS = tuple(float(2 ** k) for k in range(0, 11))


class Histogram:
    """Fixed-bucket histogram of virtual-time observations.

    ``buckets`` are the inclusive upper edges; an implicit ``+inf``
    bucket catches everything beyond the last edge.  Buckets are fixed
    at construction, never rescaled, so identically seeded runs bucket
    identically.
    """

    __slots__ = ("name", "buckets", "counts", "count", "total", "min",
                 "max", "_tl")

    def __init__(self, name: str,
                 buckets: Sequence[float] = LATENCY_BUCKETS_US) -> None:
        edges = tuple(float(b) for b in buckets)
        if not edges or any(b <= a for a, b in zip(edges, edges[1:])):
            raise SimulationError(
                f"histogram {name}: buckets must be strictly increasing")
        self.name = name
        self.buckets = edges
        self.counts = [0] * (len(edges) + 1)  # last slot == +inf
        self.count = 0
        self.total = 0.0
        self.min = 0.0
        self.max = 0.0
        self._tl = None

    def observe(self, value: float) -> None:
        # min/max seed from the first sample: an all-negative stream
        # must not report max=0.0 (and min must not report 0.0 for an
        # all-positive one).
        if self.count == 0:
            self.min = value
            self.max = value
        else:
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
        self.count += 1
        self.total += value
        # bisect_left finds the first edge >= value -- the same slot the
        # linear "value <= edge" scan selected; len(edges) lands in the
        # +inf overflow bucket.
        self.counts[bisect_left(self.buckets, value)] += 1
        if self._tl is not None:
            self._tl.observe(value)

    def snapshot_value(self) -> dict:
        """Stable dict form: count/sum/min/max plus nonzero buckets."""
        nonzero = {}
        for edge, n in zip(self.buckets, self.counts):
            if n:
                nonzero[format(edge, "g")] = n
        if self.counts[-1]:
            nonzero["inf"] = self.counts[-1]
        return {"count": self.count, "sum": round(self.total, 6),
                "min": round(self.min, 6), "max": round(self.max, 6),
                "buckets": nonzero}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Histogram {self.name} n={self.count}>"


def _node_key(node: Optional[int]) -> str:
    return "-" if node is None else str(node)


def _fmt_value(v: Any) -> str:
    if isinstance(v, float):
        return format(round(v, 6), "g")
    if isinstance(v, dict):  # histogram snapshot
        buckets = "|".join(f"{k}:{n}" for k, n in v["buckets"].items())
        return (f"{{count={v['count']} sum={format(v['sum'], 'g')}"
                f" min={format(v['min'], 'g')}"
                f" max={format(v['max'], 'g')}"
                f" buckets={buckets or '-'}}}")
    return str(v)


class MetricsRegistry:
    """All metrics of one simulated cluster.

    Histograms are get-or-create: asking twice for the same
    ``(subsystem, node, name)`` returns the same object, so layers can
    wire themselves up independently.  Snapshots are plain nested dicts
    (``subsystem -> node -> name -> value``) with deterministically
    sorted keys; :meth:`render` produces the per-subsystem text block
    the bench harness prints under ``--obs metrics``.
    """

    def __init__(self) -> None:
        #: (subsystem, node_key, name) -> histogram
        self._instruments: dict[tuple[str, str, str], Histogram] = {}
        #: (subsystem, node_key) -> [collector, ...]
        self._collectors: dict[tuple[str, str], list[Callable]] = {}
        #: Armed timeline (repro.obs.timeline.Timeline) or None.
        self._timeline = None

    # -- histograms -----------------------------------------------------
    def attach_timeline(self, timeline) -> None:
        """Arm windowed telemetry: every existing histogram -- and
        every histogram created from now on -- mirrors its observations
        into a :class:`repro.obs.timeline.Timeline` series.

        Purely additive: snapshots, renders, and collectors are
        untouched, so ``--obs metrics`` output is identical armed or not.
        """
        self._timeline = timeline
        for (subsystem, node_key, name), inst in \
                self._instruments.items():
            inst._tl = timeline.series("hist", subsystem, name, node_key)

    def histogram(self, subsystem: str, name: str,
                  node: Optional[int] = None,
                  buckets: Sequence[float] = LATENCY_BUCKETS_US
                  ) -> Histogram:
        key = (subsystem, _node_key(node), name)
        inst = self._instruments.get(key)
        if inst is None:
            inst = Histogram(f"{subsystem}.{name}", buckets)
            self._instruments[key] = inst
            if self._timeline is not None:
                inst._tl = self._timeline.series(
                    "hist", subsystem, name, key[1])
        return inst

    # -- lazy collectors ------------------------------------------------
    def register_collector(self, subsystem: str, fn: Callable[[], dict],
                           node: Optional[int] = None) -> None:
        """Attach ``fn`` (returning ``{name: value}``) to a subsystem.

        Called at snapshot time; the cheap way to export counters a
        component already keeps without touching its hot path.
        """
        self._collectors.setdefault((subsystem, _node_key(node)),
                                    []).append(fn)

    # -- snapshot / render ----------------------------------------------
    @staticmethod
    def _node_sort_key(k: str):
        return (0, int(k)) if k.lstrip("-").isdigit() and k != "-" \
            else (1, k)

    def snapshot(self) -> dict:
        """Deterministic ``subsystem -> node -> name -> value`` dict."""
        merged: dict[str, dict[str, dict[str, Any]]] = {}
        for (subsystem, node, name), inst in self._instruments.items():
            merged.setdefault(subsystem, {}).setdefault(node, {})[
                name] = inst.snapshot_value()
        for (subsystem, node), fns in self._collectors.items():
            block = merged.setdefault(subsystem, {}).setdefault(node, {})
            for fn in fns:
                for name, value in fn().items():
                    block[name] = value
        return {
            sub: {
                node: dict(sorted(merged[sub][node].items()))
                for node in sorted(merged[sub],
                                   key=self._node_sort_key)
            }
            for sub in sorted(merged)
        }

    def render(self) -> str:
        """Per-subsystem text block (what ``--obs metrics`` prints)."""
        snap = self.snapshot()
        if not snap:
            return "(no metrics registered)"
        lines = []
        for subsystem, nodes in snap.items():
            lines.append(f"{subsystem}:")
            for node, values in nodes.items():
                where = "cluster" if node == "-" else f"node {node}"
                body = " ".join(f"{k}={_fmt_value(v)}"
                                for k, v in values.items())
                lines.append(f"  {where}: {body}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<MetricsRegistry {len(self._instruments)} instruments,"
                f" {sum(len(v) for v in self._collectors.values())}"
                " collectors>")
