"""Fault-triggered flight recorder: a bounded black box per node.

When something goes wrong mid-run -- a ``PeerUnreachableError``
surfacing through the error handler, a peer convicted by the failure
detector, a fault clause engaging -- the interesting evidence is what
each node was doing in the *moments before*, and by the end of the run
that context is gone.  This module keeps a bounded ring of recent
notes per node (retransmit timer fires, fault verdicts, delivery
stalls) and, when a trigger fires, snapshots every ring into a dump:
the aircraft flight-recorder pattern.

Design constraints, same as the rest of ``repro.obs``:

* **Zero cost disarmed.**  The recorder hangs off ``sim.flight``
  (``None`` by default); hot paths pay one ``is None`` test.
* **Bounded.**  Rings hold :data:`RING_ENTRIES` notes per node; at
  most :data:`MAX_DUMPS` dumps are kept; each distinct trigger ``key``
  fires once (a retransmit storm produces one dump, not thousands).
* **Deterministic.**  Notes carry a global sequence number assigned in
  simulation order (the kernel is serial per cluster), dumps merge
  rings by that sequence, and :func:`write_flight_jsonl` emits sorted
  JSON -- so serial and ``--jobs N`` runs produce byte-identical
  black boxes.

Dump JSONL format (one JSON object per line, sorted keys)::

    {"detail": {...}, "entries": [...], "reason": "...",
     "seq": <dump #>, "t_us": <virtual trigger time>}

where each entry is ``{"event", "node", "seq", "subsystem", "t_us",
...fields}``.
"""

from __future__ import annotations

import json
from collections import deque
from typing import TYPE_CHECKING, Optional

from .export import coerce_value, write_lines

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import Simulator

__all__ = ["FlightRecorder", "write_flight_jsonl"]

#: Notes kept per node ring.
RING_ENTRIES = 64
#: Dumps kept per recorder; later triggers are counted, not kept.
MAX_DUMPS = 8


class FlightRecorder:
    """Per-node rings of recent notes plus the triggered dumps."""

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._rings: dict = {}
        self._seq = 0
        self._fired: set = set()
        self.dumps: list[dict] = []
        self.notes_total = 0
        self.suppressed = 0

    # ------------------------------------------------------------------
    def note(self, node: Optional[int], subsystem: str, event: str,
             **fields) -> None:
        """Record one breadcrumb on ``node``'s ring.

        ``fields`` must be JSON-safe primitives; they are emitted
        verbatim into dumps.  The core keys (``seq``/``t_us``/``node``/
        ``subsystem``/``event``) belong to the recorder and win over
        same-named fields -- ``seq`` in particular is the global merge
        key, so a caller's packet sequence must ride under another
        name.  Old notes fall off the ring -- this is the black box,
        not a trace.
        """
        ring = self._rings.get(node)
        if ring is None:
            ring = self._rings[node] = deque(maxlen=RING_ENTRIES)
        self._seq += 1
        self.notes_total += 1
        entry = dict(fields) if fields else {}
        entry.update(seq=self._seq, t_us=round(self.sim.now, 3),
                     node=node, subsystem=subsystem, event=event)
        ring.append(entry)

    # ------------------------------------------------------------------
    def trigger(self, reason: str, key=None, **detail) -> bool:
        """Snapshot every ring into a dump.

        ``key`` deduplicates: a given key fires at most once (pass
        ``None`` to always fire).  Returns ``True`` when a dump was
        captured, ``False`` when suppressed (duplicate key or the
        :data:`MAX_DUMPS` cap)."""
        if key is not None:
            if key in self._fired:
                self.suppressed += 1
                return False
            self._fired.add(key)
        if len(self.dumps) >= MAX_DUMPS:
            self.suppressed += 1
            return False
        entries = sorted((entry for ring in self._rings.values()
                          for entry in ring),
                         key=lambda entry: entry["seq"])
        self.dumps.append({
            "seq": len(self.dumps),
            "t_us": round(self.sim.now, 3),
            "reason": reason,
            "detail": {k: coerce_value(v)
                       for k, v in sorted(detail.items())},
            "entries": [dict(entry) for entry in entries],
        })
        return True

    # ------------------------------------------------------------------
    def dump_dicts(self) -> list[dict]:
        """The captured dumps (JSON-safe, deterministic order)."""
        return [dict(dump) for dump in self.dumps]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<FlightRecorder nodes={len(self._rings)}"
                f" notes={self.notes_total} dumps={len(self.dumps)}>")


def write_flight_jsonl(dumps: list, path: str) -> int:
    """Write flight dumps as deterministic JSONL (one dump per line,
    sorted keys, fixed separators).  Returns the line count."""
    return write_lines((json.dumps(dump, sort_keys=True,
                                   separators=(",", ":"))
                        for dump in dumps), path)
