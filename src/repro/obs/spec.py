"""One observability spec: which artifacts a run produces, and how each
one is armed, captured and written.

An :class:`ObsSpec` names a subset of :data:`ARTIFACTS` and carries the
timeline window.  It is frozen and picklable: the bench CLI's ``--obs``
builds one, the sweep workers receive it, and ``Cluster(obs=...)`` asks
it for the recorders.  After a run, :meth:`ObsSpec.capture` condenses a
cluster into a picklable :class:`ClusterCapture`, and :class:`ObsOutput`
prints each experiment's stdout artifacts and feeds the file ones.
Every writer orders its output by experiment, then by cluster, so the
files are byte-identical between ``--jobs 1`` and ``--jobs N``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Optional

from ..errors import SimulationError
from ..sim import Tracer, trace as sim_trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..machine import Cluster
    from .spans import SpanRecorder
    from .timeline import Timeline

__all__ = ["ARTIFACTS", "ClusterCapture", "DEFAULT_WINDOW_US", "ObsOutput",
           "ObsSpec"]

#: Default timeline window: 100 virtual microseconds resolves the chaos
#: bench's few-thousand-us runs into dozens of points while keeping
#: Figure-2-scale runs to a few hundred windows.
DEFAULT_WINDOW_US = 100.0


@dataclass
class ClusterCapture:
    """Picklable summary of one finished cluster: ``artifacts`` maps
    each armed artifact name to its payload (plain data in
    deterministic order)."""

    nnodes: int
    now: float
    events: int
    artifacts: dict = field(default_factory=dict)


def _capture_trace(cluster: "Cluster") -> tuple[list[str], int]:
    """The kept records as JSONL lines, and how many the cap dropped."""
    from .export import jsonl_lines

    trace = cluster.trace
    return list(jsonl_lines(trace.records)), trace.suppressed


def _capture_spans(cluster: "Cluster") -> list[dict]:
    return cluster.spans.span_dicts()


def _render_metrics(experiment: str, captures: list) -> Optional[str]:
    return "\n".join(
        f"-- metrics: {experiment} cluster #{i}"
        f" ({c.nnodes} nodes @ {c.now:.1f} virtual us)"
        f" --\n{c.artifacts['metrics']}"
        for i, c in enumerate(captures)) or None


def _render_decompose(experiment: str, captures: list) -> Optional[str]:
    flat = [s for c in captures for s in c.artifacts["decompose"]]
    if not flat:
        return None
    from .profile import render_critical_path, render_decomposition

    cpath = render_critical_path(flat)
    return ("\n" + render_decomposition(flat, experiment)
            + ("\n" + cpath if cpath else ""))


def _trace_lines(experiment: str, captures: list):
    for c in captures:
        yield from c.artifacts["trace"][0]


def _timeline_lines(experiment: str, captures: list):
    for i, c in enumerate(captures):
        snap = c.artifacts["timeline"]
        for series in snap["series"]:
            yield _row({"experiment": experiment, "cluster": i,
                        "record": "series",
                        "window_us": snap["window_us"], **series})


def _flight_lines(experiment: str, captures: list):
    for i, c in enumerate(captures):
        for dump in c.artifacts["flight"]:
            yield _row({"experiment": experiment, "cluster": i, **dump})


def _row(row: dict) -> str:
    import json

    return json.dumps(row, sort_keys=True, separators=(",", ":"))


class _LineFile:
    """A JSONL artifact, appended as each experiment finishes so a long
    run never holds every line at once."""

    def __init__(self, path: str, noun: str, lines: Callable) -> None:
        self.path, self.noun, self.lines = path, noun, lines
        self.count = self.dropped = 0
        open(path, "wb").close()

    def add(self, experiment: str, captures: list) -> None:
        from .export import write_lines

        self.count += write_lines(self.lines(experiment, captures),
                                  self.path, append=True)

    def close(self) -> str:
        line = f"wrote {self.count} {self.noun} to {self.path}"
        if self.dropped:
            line += (f" ({self.dropped} more dropped: the cap is"
                     f" {sim_trace.TRACE_LIMIT} per cluster)")
        return line


class _TraceFile(_LineFile):
    """``trace``: also counts the records each cluster's cap dropped."""

    def __init__(self, path: str) -> None:
        super().__init__(path, "trace records", _trace_lines)

    def add(self, experiment: str, captures: list) -> None:
        super().add(experiment, captures)
        self.dropped += sum(c.artifacts["trace"][1] for c in captures)


class _SpanFile:
    """One Chrome trace-event file over every non-empty span stream."""

    def __init__(self, path: str) -> None:
        self.path, self.streams = path, []

    def add(self, experiment: str, captures: list) -> None:
        self.streams += [c.artifacts["spans"] for c in captures
                         if c.artifacts["spans"]]

    def close(self) -> str:
        from .chrome import write_chrome_trace

        nevents = write_chrome_trace(self.streams, self.path)
        nspans = sum(len(s) for s in self.streams)
        return (f"wrote {nevents} trace events ({nspans} spans,"
                f" {len(self.streams)} clusters) to {self.path}")


class Artifact(NamedTuple):
    """How one artifact is captured, and either printed per experiment
    (``render``) or written under the output directory (``filename``,
    ``open``)."""

    capture: Callable[["Cluster"], Any]
    render: Optional[Callable[[str, list], Optional[str]]] = None
    filename: Optional[str] = None
    open: Optional[Callable[[str], Any]] = None


#: Every artifact a run can produce, in the order the CLI emits them.
ARTIFACTS: dict[str, Artifact] = {
    "metrics": Artifact(lambda c: c.metrics.render(),
                        render=_render_metrics),
    "trace": Artifact(_capture_trace, filename="trace.jsonl.gz",
                      open=_TraceFile),
    "spans": Artifact(_capture_spans, filename="spans.json.gz",
                      open=_SpanFile),
    "decompose": Artifact(_capture_spans, render=_render_decompose),
    "timeline": Artifact(
        lambda c: c.telemetry.snapshot(), filename="timeline.jsonl",
        open=lambda path: _LineFile(path, "timeline records",
                                    _timeline_lines)),
    "flight": Artifact(
        lambda c: c.sim.flight.dump_dicts(), filename="flight.jsonl",
        open=lambda path: _LineFile(path, "flight dumps", _flight_lines)),
}


@dataclass(frozen=True)
class ObsSpec:
    """Which artifacts to produce, and the timeline window.  The empty
    spec (the default) arms nothing; no recorder perturbs virtual
    time."""

    names: frozenset = frozenset()
    window_us: float = DEFAULT_WINDOW_US

    def __post_init__(self) -> None:
        object.__setattr__(self, "names", frozenset(self.names))
        unknown = sorted(self.names - ARTIFACTS.keys())
        if unknown:
            raise SimulationError(
                f"unknown observability artifact(s) {', '.join(unknown)};"
                f" choose from {', '.join(ARTIFACTS)}")
        # Negated so NaN fails too; inf would fold every sample into
        # window 0.
        if not 0.0 < self.window_us < math.inf:
            raise SimulationError(
                f"telemetry window_us must be finite and > 0,"
                f" got {self.window_us}")

    @classmethod
    def parse(cls, text: str) -> "ObsSpec":
        """``"metrics,trace"`` -> the spec naming those artifacts."""
        return cls(frozenset(filter(None, map(str.strip,
                                              text.split(",")))))

    def ordered(self) -> list[str]:
        """The named artifacts, in :data:`ARTIFACTS` order."""
        return [name for name in ARTIFACTS if name in self.names]

    @property
    def files(self) -> list[str]:
        return [n for n in self.ordered() if ARTIFACTS[n].filename]

    def tracer(self) -> Optional[Tracer]:
        return Tracer() if "trace" in self.names else None

    def span_recorder(self) -> Optional[SpanRecorder]:
        if self.names.isdisjoint(("spans", "decompose")):
            return None
        from .spans import SpanRecorder

        return SpanRecorder()

    def timeline(self, sim, metrics) -> Optional[Timeline]:
        """Hang a flight recorder off ``sim.flight`` if ``flight`` is
        named; arm and return a timeline over ``metrics`` if
        ``timeline`` is named, else None."""
        if "flight" in self.names:
            from .flight import FlightRecorder

            sim.flight = FlightRecorder(sim)
        if "timeline" not in self.names:
            return None
        from .timeline import Timeline

        timeline = Timeline(sim, self.window_us)
        metrics.attach_timeline(timeline)
        return timeline

    def capture(self, cluster: "Cluster") -> ClusterCapture:
        """Condense a finished cluster armed with (at least) this
        spec.  Artifacts that read one recorder share one payload."""
        payloads: dict[Callable, Any] = {}
        for name in self.ordered():
            fn = ARTIFACTS[name].capture
            if fn not in payloads:
                payloads[fn] = fn(cluster)
        return ClusterCapture(
            nnodes=cluster.nnodes, now=cluster.sim.now,
            events=cluster.sim.events_processed,
            artifacts={name: payloads[ARTIFACTS[name].capture]
                       for name in self.ordered()})


class ObsOutput:
    """A run's artifacts: :meth:`add` feeds one experiment's captures
    to every named file and returns the texts to print after its
    table; :meth:`close` finishes the files, one ``wrote`` line each."""

    def __init__(self, spec: ObsSpec, out_dir: Optional[str]) -> None:
        self.renders = [ARTIFACTS[n].render for n in spec.ordered()
                        if ARTIFACTS[n].render is not None]
        if spec.files:
            os.makedirs(out_dir, exist_ok=True)
        self.files = [ARTIFACTS[n].open(
            os.path.join(out_dir, ARTIFACTS[n].filename))
            for n in spec.files]

    def add(self, experiment: str, captures: list) -> list[str]:
        for out in self.files:
            out.add(experiment, captures)
        texts = [render(experiment, captures) for render in self.renders]
        return [text for text in texts if text is not None]

    def close(self) -> list[str]:
        return [out.close() for out in self.files]
