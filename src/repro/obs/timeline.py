"""Virtual-time windowed telemetry: per-window series over every metric.

The registry (:mod:`repro.obs.metrics`) answers "what happened by the
end of the run"; the paper's figures -- and every serving-style SLO --
need "what happened *when*".  This module resolves every registered
counter, gauge, and histogram over fixed-width virtual-time windows:

* window ``k`` covers ``[k * window_us, (k + 1) * window_us)`` --
  an observation exactly on an edge belongs to the *later* window;
* counters record the per-window **delta** (provably monotone:
  :meth:`repro.obs.Counter.inc` rejects negative increments);
* gauges record the last value set within the window;
* histograms record a per-window :class:`~repro.obs.sketch.QuantileSketch`
  (p50/p99/p99.9 per window) plus a cumulative whole-run sketch.

Recording is **push-based**: instruments armed by
:meth:`repro.obs.MetricsRegistry.attach_timeline` route each update
here together with the current virtual time, so no window-boundary
timers exist -- the kernel's event stream, ``events_processed``, and
every virtual-time observable are untouched (the zero-perturbation
contract), and a disarmed run pays exactly one ``is None`` test per
instrument update.  Windows *close* when any later-window update
arrives (virtual time is monotone, so a closed window can never
receive more data); close listeners (the SLO evaluator,
:mod:`repro.obs.slo`) run at that point with the window's assembled
values.

Memory is bounded: each series keeps its trailing ``ring_windows``
windows in a ring (empty windows occupy no ring slot), so 4096-node
``--scale`` runs stay flat-memory no matter how long they run.

Everything here is a pure function of the observation stream, so
serial and ``--jobs N`` runs produce byte-identical snapshots -- the
``--timeline-out`` parity CI enforces.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional

from ..errors import SimulationError
from .sketch import DEFAULT_ALPHA, QuantileSketch, merge_sketches

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import Simulator

__all__ = ["TelemetryConfig", "Timeline", "TelemetryRuntime",
           "DEFAULT_WINDOW_US", "DEFAULT_RING_WINDOWS"]

#: Default window width: 100 virtual microseconds resolves the chaos
#: bench's few-thousand-us runs into dozens of points while keeping
#: Figure-2-scale runs to a few hundred windows.
DEFAULT_WINDOW_US = 100.0

#: Default trailing-window ring depth per series.
DEFAULT_RING_WINDOWS = 512

#: Quantiles reported in timeline snapshots.
_SNAPSHOT_QUANTILES = (("p50", 0.50), ("p99", 0.99), ("p999", 0.999))


@dataclass(frozen=True)
class TelemetryConfig:
    """Declarative arming record for the virtual-time telemetry stack.

    Frozen and picklable: the sweep engine ships it to ``--jobs N``
    workers verbatim, so every worker arms exactly the parent's
    configuration (the byte-identity contract).  ``slo`` holds
    :mod:`repro.obs.slo` rule records; an empty tuple arms the
    timeline and flight recorder without any alerting.
    """

    window_us: float = DEFAULT_WINDOW_US
    ring_windows: int = DEFAULT_RING_WINDOWS
    sketch_alpha: float = DEFAULT_ALPHA
    slo: tuple = ()
    flight_entries: int = 64
    flight_dumps: int = 8

    def validate(self) -> None:
        # Negated so NaN fails too; inf would fold every sample into
        # window 0.
        if not 0.0 < self.window_us < math.inf:
            raise SimulationError(
                f"telemetry window_us must be finite and > 0,"
                f" got {self.window_us}")
        if self.ring_windows < 1:
            raise SimulationError(
                f"telemetry ring_windows must be >= 1,"
                f" got {self.ring_windows}")
        if self.flight_entries < 1 or self.flight_dumps < 0:
            raise SimulationError(
                "telemetry flight_entries must be >= 1 and"
                " flight_dumps >= 0")


def _node_key(node: Optional[int]) -> str:
    return "-" if node is None else str(node)


class _Series:
    """Shared shape of one windowed series.

    ``ring`` holds ``(window_index, value)`` for the trailing non-empty
    windows; ``cur_w``/``cur`` is the open (accumulating) cell.
    """

    __slots__ = ("timeline", "key", "ring", "cur_w", "cur")
    kind = "series"

    def __init__(self, timeline: "Timeline", key: tuple) -> None:
        self.timeline = timeline
        self.key = key  # (subsystem, node_key, name)
        self.ring: deque = deque(maxlen=timeline.ring_windows)
        self.cur_w: Optional[int] = None
        self.cur: Any = None

    def _open(self, w: int) -> None:
        """Route an update in window ``w`` through the window machinery."""
        if self.cur_w is not None and w == self.cur_w:
            return
        self.timeline._advance(w)
        if self.cur_w is not None:
            # _advance closed every window before w, including ours.
            self.ring.append((self.cur_w, self._close()))
        self.cur_w = w
        self.cur = self._fresh()

    def flush(self, upto_w: int, sink: Optional[dict]) -> None:
        """Close the open cell if its window precedes ``upto_w``."""
        if self.cur_w is None or self.cur_w >= upto_w:
            return
        value = self._close()
        self.ring.append((self.cur_w, value))
        if sink is not None:
            sink.setdefault(self.cur_w, {})[self.key] = (self.kind,
                                                         value)
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
        self._open(self.timeline.window_of(self.timeline.sim.now))
        self.cur += n


class _GaugeSeries(_Series):
    """Last value set per window."""

    __slots__ = ()
    kind = "gauge"

    def _fresh(self) -> float:
        return 0.0

    def set(self, value: float) -> None:
        self._open(self.timeline.window_of(self.timeline.sim.now))
        self.cur = value


class _HistSeries(_Series):
    """Per-window quantile sketches plus a cumulative run sketch."""

    __slots__ = ("cumulative",)
    kind = "hist"

    def __init__(self, timeline: "Timeline", key: tuple) -> None:
        super().__init__(timeline, key)
        self.cumulative = QuantileSketch(alpha=timeline.sketch_alpha)

    def _fresh(self) -> QuantileSketch:
        return QuantileSketch(alpha=self.timeline.sketch_alpha)

    def observe(self, value: float) -> None:
        self._open(self.timeline.window_of(self.timeline.sim.now))
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


_SERIES_KINDS = {"counter": _CounterSeries, "gauge": _GaugeSeries,
                 "hist": _HistSeries}


class Timeline:
    """All windowed series of one cluster.

    Series exist for (a) every instrument the metrics registry armed
    via :meth:`repro.obs.MetricsRegistry.attach_timeline` and (b)
    timeline-only streams components request directly (payload-byte
    goodput, per-window retransmit counts) -- streams that have no
    end-of-run metric but matter per window.
    """

    def __init__(self, sim: "Simulator",
                 config: Optional[TelemetryConfig] = None) -> None:
        config = config if config is not None else TelemetryConfig()
        config.validate()
        self.sim = sim
        self.config = config
        self.window_us = config.window_us
        self.ring_windows = config.ring_windows
        self.sketch_alpha = config.sketch_alpha
        #: (kind, subsystem, node_key, name) -> series
        self._series: dict[tuple, _Series] = {}
        #: First window index not yet closed; None before any record.
        self._watermark: Optional[int] = None
        #: Highest window index that received data (None when empty).
        self._last_w: Optional[int] = None
        #: Close listeners ``fn(window_index, window_end_us, values)``
        #: where ``values`` maps series key -> (kind, closed value).
        self._listeners: list[Callable[[int, float, dict], None]] = []
        self._finalized = False

    # ------------------------------------------------------------------
    def window_of(self, now: float) -> int:
        """Window index of virtual instant ``now`` (edges round down
        into the later window: ``t == k * window_us`` is window k)."""
        return int(now // self.window_us)

    def window_end_us(self, w: int) -> float:
        return (w + 1) * self.window_us

    def add_close_listener(
            self, fn: Callable[[int, float, dict], None]) -> None:
        self._listeners.append(fn)

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
    def _advance(self, w: int) -> None:
        """Close every window preceding ``w`` and notify listeners.

        Virtual time is monotone, so once an update lands in window
        ``w`` no earlier window can receive data -- they are final.
        Listeners (SLO evaluation, and through it flight-recorder
        dumps) therefore see each window exactly once, immediately
        after the virtual instant that sealed it.
        """
        if self._last_w is None or w > self._last_w:
            self._last_w = w
        mark = self._watermark
        if mark is None:
            self._watermark = w
            return
        if w <= mark:
            if w < mark:  # pragma: no cover - defensive
                raise SimulationError(
                    f"timeline update in closed window {w}"
                    f" (watermark {mark}): virtual time ran backwards?")
            return
        sink: Optional[dict] = {} if self._listeners else None
        for series in self._series.values():
            series.flush(w, sink)
        if self._listeners:
            for closed in range(mark, w):
                values = sink.get(closed, {}) if sink else {}
                end_us = self.window_end_us(closed)
                for fn in self._listeners:
                    fn(closed, end_us, values)
        self._watermark = w

    def finalize(self) -> None:
        """Close the trailing (possibly partial) window.

        Called once the run is over, before any snapshot: the final
        window is sealed by the end of the run rather than by a later
        update, and listeners see it like any other (its values cover
        only the part of the window the run reached).  Idempotent.
        """
        if self._finalized:
            return
        self._finalized = True
        if self._last_w is None:
            return
        self._advance(self._last_w + 1)

    # ------------------------------------------------------------------
    def counter_windows(self, subsystem: str, name: str,
                        node: Optional[int] = None) -> list:
        """``[window_index, delta]`` pairs of one counter stream
        (empty when the stream never recorded)."""
        key = ("counter", subsystem, _node_key(node), name)
        series = self._series.get(key)
        return series.window_values() if series is not None else []

    def merged_hist(self, subsystem: str, name: str) -> QuantileSketch:
        """Cumulative sketch of one histogram stream merged across
        every node -- the cross-node quantile view."""
        parts = [s.cumulative for (kind, sub, _, nm), s
                 in sorted(self._series.items())
                 if kind == "hist" and sub == subsystem and nm == name]
        return merge_sketches(parts, alpha=self.sketch_alpha)

    def snapshot(self) -> dict:
        """Deterministic picklable form of every series.

        Finalizes first (the trailing window is sealed), then emits
        series sorted by (subsystem, node, name, kind) -- the order
        ``--timeline-out`` writes and CI byte-compares.
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
                f" window={self.window_us}us,"
                f" watermark={self._watermark}>")


@dataclass
class TelemetryRuntime:
    """The armed telemetry stack of one cluster.

    Built by :class:`repro.machine.Cluster` when a
    :class:`TelemetryConfig` is passed: the timeline attaches to the
    cluster's metrics registry (arming every instrument, present and
    future), the flight recorder hangs off ``sim.flight`` for the
    reliability/fault trigger points, and the SLO evaluator -- when
    rules are configured -- subscribes to window closes and routes its
    alerts into the flight recorder.
    """

    config: TelemetryConfig
    timeline: Timeline
    flight: Any = None
    slo: Any = None

    @classmethod
    def install(cls, config: TelemetryConfig, sim: "Simulator",
                metrics) -> "TelemetryRuntime":
        from .flight import FlightRecorder
        from .slo import SloEvaluator
        config.validate()
        timeline = Timeline(sim, config)
        metrics.attach_timeline(timeline)
        flight = FlightRecorder(sim, entries=config.flight_entries,
                                max_dumps=config.flight_dumps)
        sim.flight = flight
        slo = None
        if config.slo:
            slo = SloEvaluator(config.slo, timeline, flight=flight)
        return cls(config=config, timeline=timeline, flight=flight,
                   slo=slo)

    def snapshot(self) -> dict:
        """Picklable telemetry capture of one finished cluster:
        the windowed series, the SLO alert log, and every flight-
        recorder dump, all in deterministic order."""
        out = {"timeline": self.timeline.snapshot()}
        out["alerts"] = (self.slo.alert_dicts()
                         if self.slo is not None else [])
        out["flight"] = (self.flight.dump_dicts()
                        if self.flight is not None else [])
        return out
