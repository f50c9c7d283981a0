"""Lightweight structured tracing for simulations.

A :class:`Tracer` collects ``(time, source, category, message, fields)``
records.  It exists for debugging protocol interactions (e.g. watching a
LAPI multi-packet message reassemble out of order), for tests that
assert on event sequences, and -- through :mod:`repro.obs.export` -- for
machine-readable JSONL trace files.  Tracing is off by default and
costs nothing when disabled: callers on hot paths gate any expensive
record construction on :meth:`Tracer.wants`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from .kernel import _fire_event, _fire_timeout

__all__ = ["TRACE_LIMIT", "TraceRecord", "Tracer"]

#: Records one tracer keeps; later ones are counted, not kept.
TRACE_LIMIT = 250_000

_NO_FIELDS: Mapping[str, Any] = {}


@dataclass(frozen=True)
class TraceRecord:
    """One trace entry, in virtual microseconds.

    ``fields`` carries optional structured key/value detail (packet
    src/dst/kind, sequence numbers...); the JSONL exporter emits it
    verbatim, while ``message`` stays the human-readable summary.
    """

    time: float
    source: str
    category: str
    message: str
    fields: Mapping[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        tail = ""
        if self.fields:
            tail = " " + " ".join(f"{k}={v}"
                                  for k, v in self.fields.items())
        return (f"[{self.time:12.3f}us] {self.source:<18s}"
                f" {self.category:<10s} {self.message}{tail}")


class Tracer:
    """Collects trace records, up to :data:`TRACE_LIMIT` of them."""

    def __init__(self) -> None:
        self.records: list[TraceRecord] = []
        self.suppressed = 0

    def wants(self) -> bool:
        """Would a record be stored right now?

        Hot paths check this before building expensive record content
        (``repr`` of packets/events), so records past the cap cost
        nothing.  A record refused at the cap counts as suppressed
        here, since those callers never reach :meth:`log`.
        """
        if len(self.records) >= TRACE_LIMIT:
            self.suppressed += 1
            return False
        return True

    def log(self, time: float, source: str, category: str,
            message: str, **fields: Any) -> None:
        """Record one entry (subject to the cap)."""
        if len(self.records) >= TRACE_LIMIT:
            self.suppressed += 1
            return
        self.records.append(TraceRecord(time, source, category, message,
                                        fields if fields else _NO_FIELDS))

    def kernel_event(self, time: float, fn: Any, arg: Any) -> None:
        """Hook invoked by the kernel for every queue entry it fires.

        ``fn(arg)`` is the entry: an event's firing (rendered as the
        event's ``repr``) or a :meth:`~repro.sim.Simulator.call_at`
        callback (rendered as ``<call_at qualname(arg)>``).  The cap
        check runs *before* any of that is built: on long runs past the
        cap, this hook must not format millions of strings that are
        immediately discarded.
        """
        if len(self.records) >= TRACE_LIMIT:
            self.suppressed += 1
            return
        if fn is _fire_event:
            message = repr(arg)
        elif fn is _fire_timeout:
            # The entry is what triggers it: describe it as its
            # callbacks will see it.
            message = f"<{arg._label()} triggered at {id(arg):#x}>"
        else:
            label = getattr(fn, "__qualname__", repr(fn))
            message = f"<call_at {label}({arg!r})>"
        self.log(time, "kernel", "event", message)

    def by_category(self, category: str) -> list[TraceRecord]:
        """All records of one category, in time order."""
        return [r for r in self.records if r.category == category]

    def clear(self) -> None:
        self.records.clear()
        self.suppressed = 0

    def __len__(self) -> int:
        return len(self.records)
