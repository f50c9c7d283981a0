"""Virtual-time windowed telemetry: per-window series over every metric.

The registry (:mod:`repro.obs.metrics`) answers "what happened by the
end of the run"; the paper's figures -- and the chaos bench's recovery
curves -- need "what happened *when*".  This module resolves every
registered histogram, and the timeline-only counter streams components
request directly, over fixed-width virtual-time windows:

* window ``k`` covers ``[k * window_us, (k + 1) * window_us)`` --
  an observation exactly on an edge belongs to the *later* window;
* counter streams record the per-window **delta**;
* histograms record a per-window :class:`~repro.obs.sketch.QuantileSketch`
  (p50/p99/p99.9 per window) plus a cumulative whole-run sketch.

Recording is **push-based**: histograms armed by
:meth:`repro.obs.MetricsRegistry.attach_timeline` route each update
here together with the current virtual time, so no window-boundary
timers exist -- the kernel's event stream, ``events_processed``, and
every virtual-time observable are untouched (the zero-perturbation
contract), and a disarmed run pays exactly one ``is None`` test per
histogram observation.  Series are independent: each one closes its open
window into its own ring when its next update lands in a later window
(virtual time is monotone, so a closed window can never receive more
data), and :meth:`Timeline.finalize` closes whatever is still open.

Memory is bounded: each series keeps its trailing :data:`RING_WINDOWS`
windows in a ring (empty windows occupy no ring slot), so 4096-node
``--scale`` runs stay flat-memory no matter how long they run.

Everything here is a pure function of the observation stream, so
serial and ``--jobs N`` runs produce byte-identical snapshots -- the
parity CI enforces on the ``timeline`` artifact.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Optional

from ..errors import SimulationError
from .sketch import QuantileSketch
from .spec import DEFAULT_WINDOW_US

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import Simulator

__all__ = ["Timeline", "DEFAULT_WINDOW_US", "RING_WINDOWS"]

#: Trailing-window ring depth per series.
RING_WINDOWS = 512

#: Quantiles reported in timeline snapshots.
_SNAPSHOT_QUANTILES = (("p50", 0.50), ("p99", 0.99), ("p999", 0.999))


def _node_key(node: Optional[int]) -> str:
    return "-" if node is None else str(node)


class _Series:
    """Shared shape of one windowed series.

    ``ring`` holds ``(window_index, value)`` for the trailing non-empty
    windows; ``cur_w``/``cur`` is the open (accumulating) cell.
    """

    __slots__ = ("sim", "window_us", "key", "ring", "cur_w", "cur")
    kind = "series"

    def __init__(self, timeline: "Timeline", key: tuple) -> None:
        # The clock and the width, not the timeline, which holds this
        # series: a dropped cluster then frees both by refcounting.
        self.sim = timeline.sim
        self.window_us = timeline.window_us
        self.key = key  # (subsystem, node_key, name)
        self.ring: deque = deque(maxlen=RING_WINDOWS)
        self.cur_w: Optional[int] = None
        self.cur: Any = None

    def _open(self, w: int) -> None:
        """Make window ``w`` the open cell, closing the previous one.
        Instant ``t`` lies in window ``int(t // window_us)``: an edge
        ``t == k * window_us`` is window k."""
        if w == self.cur_w:
            return
        self.flush()
        self.cur_w = w
        self.cur = self._fresh()

    def flush(self) -> None:
        """Close the open cell into the ring, if there is one."""
        if self.cur_w is None:
            return
        self.ring.append((self.cur_w, self._close()))
        self.cur_w = None
        self.cur = None

    # Overridden per kind --------------------------------------------------
    def _fresh(self) -> Any:
        raise NotImplementedError

    def _close(self) -> Any:
        return self.cur

    def window_values(self) -> list:
        """Serialized ``[window_index, value]`` pairs (ring order)."""
        return [[w, v] for w, v in self.ring]

    def snapshot(self) -> dict:
        sub, node, name = self.key
        return {"subsystem": sub, "node": node, "name": name,
                "kind": self.kind, "windows": self.window_values()}


class _CounterSeries(_Series):
    """Per-window deltas of one monotone counter."""

    __slots__ = ()
    kind = "counter"

    def _fresh(self) -> int:
        return 0

    def add(self, n: int) -> None:
        self._open(int(self.sim.now // self.window_us))
        self.cur += n


class _HistSeries(_Series):
    """Per-window quantile sketches plus a cumulative run sketch."""

    __slots__ = ("cumulative",)
    kind = "hist"

    def __init__(self, timeline: "Timeline", key: tuple) -> None:
        super().__init__(timeline, key)
        self.cumulative = QuantileSketch()

    def _fresh(self) -> QuantileSketch:
        return QuantileSketch()

    def observe(self, value: float) -> None:
        self._open(int(self.sim.now // self.window_us))
        self.cur.observe(value)
        self.cumulative.observe(value)

    def window_values(self) -> list:
        return [[w, v.to_dict()] for w, v in self.ring]

    def snapshot(self) -> dict:
        out = super().snapshot()
        out["cumulative"] = self.cumulative.to_dict()
        quantiles = {}
        for label, q in _SNAPSHOT_QUANTILES:
            value = self.cumulative.quantile(q)
            quantiles[label] = (None if value is None
                                else round(value, 6))
        out["quantiles"] = quantiles
        return out


_SERIES_KINDS = {"counter": _CounterSeries, "hist": _HistSeries}


class Timeline:
    """All windowed series of one cluster.

    Series exist for (a) every histogram the metrics registry armed
    via :meth:`repro.obs.MetricsRegistry.attach_timeline` and (b)
    timeline-only streams components request directly (payload-byte
    goodput) -- streams that have no end-of-run metric but matter per
    window.
    """

    def __init__(self, sim: "Simulator",
                 window_us: float = DEFAULT_WINDOW_US) -> None:
        self.sim = sim
        #: Validated by :class:`repro.obs.ObsSpec`.
        self.window_us = window_us
        #: (kind, subsystem, node_key, name) -> series
        self._series: dict[tuple, _Series] = {}
        self._finalized = False

    # ------------------------------------------------------------------
    def series(self, kind: str, subsystem: str, name: str,
               node: Optional[int] = None) -> _Series:
        """Get-or-create the ``kind`` series for one stream."""
        cls = _SERIES_KINDS.get(kind)
        if cls is None:
            raise SimulationError(f"unknown timeline series kind"
                                  f" {kind!r}")
        key = (kind, subsystem, _node_key(node), name)
        series = self._series.get(key)
        if series is None:
            series = cls(self, key[1:])
            self._series[key] = series
        elif type(series) is not cls:  # pragma: no cover - defensive
            raise SimulationError(
                f"timeline stream {key[1:]} already registered as"
                f" {series.kind}")
        return series

    def stream_counter(self, subsystem: str, name: str,
                       node: Optional[int] = None) -> _CounterSeries:
        """A timeline-only counter stream (no registry metric)."""
        return self.series("counter", subsystem, name, node)

    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Close every series' open (possibly partial) window.

        Called once the run is over, before any snapshot: each final
        window is sealed by the end of the run rather than by a later
        update (its value covers only the part of the window the run
        reached).  Idempotent.
        """
        if self._finalized:
            return
        self._finalized = True
        for series in self._series.values():
            series.flush()

    # ------------------------------------------------------------------
    def counter_windows(self, subsystem: str, name: str,
                        node: Optional[int] = None) -> list:
        """``[window_index, delta]`` pairs of one counter stream
        (empty when the stream never recorded)."""
        key = ("counter", subsystem, _node_key(node), name)
        series = self._series.get(key)
        return series.window_values() if series is not None else []

    def snapshot(self) -> dict:
        """Deterministic picklable form of every series.

        Finalizes first (the trailing window is sealed), then emits
        series sorted by (subsystem, node, name, kind) -- the order
        the ``timeline`` artifact is written in.
        """
        self.finalize()
        entries = sorted(
            self._series.items(),
            key=lambda item: (item[0][1], self._node_sort(item[0][2]),
                              item[0][3], item[0][0]))
        return {"window_us": self.window_us,
                "series": [series.snapshot() for _, series in entries]}

    @staticmethod
    def _node_sort(key: str):
        return (0, int(key)) if key != "-" and key.lstrip("-").isdigit() \
            else (1, key)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Timeline {len(self._series)} series,"
                f" window={self.window_us}us>")
