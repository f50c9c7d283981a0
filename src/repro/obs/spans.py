"""Causal span tracing: per-phase virtual-time spans with cross-node
causal edges.

The paper's core quantitative artifact is a latency *decomposition*
(Table 1 splits LAPI's 34 us one-sided latency into call overhead,
adapter/wire time, interrupt dispatch, and handler execution).  The
metrics registry records flat counters; this module records *where the
microseconds go*: every LAPI/MPL/GA operation becomes a tree of
virtual-time spans following the full lifecycle

    origin API call -> TX queue -> wire -> RX DMA ->
    interrupt-or-poll dispatch -> header handler ->
    completion handler -> counter update

with cross-node causality stitched through packet uids and message
ids (origin-registered side tables; no ambient per-timer context, so
the kernel's allocation-free ``call_at`` fast path is untouched).

Hard invariant: recording is *purely observational*.  Every hook reads
``sim.now`` and appends to host-level lists; none schedules events,
consumes RNG, or touches protocol state.  Arming a recorder therefore
cannot perturb virtual time -- ``--metrics`` blocks and figure outputs
are byte-identical with spans on or off (asserted by tests).

Spans are recorded per cluster (packet uids and span ids both restart
per cluster), so serial and ``--jobs N`` runs produce byte-identical
span streams -- the same parity contract the trace/metrics captures
already obey.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..machine.packet import Packet

__all__ = ["Span", "SpanRecorder", "span_to_dict", "SPAN_SCHEMA_KEYS"]

#: Fixed serialization key order of one span dict (schema-stable).
SPAN_SCHEMA_KEYS = ("sid", "parent", "node", "subsystem", "op", "phase",
                    "t0_us", "t1_us", "dur_us", "flow", "fields")


class Span:
    """One closed virtual-time interval on one node.

    Attributes
    ----------
    sid, parent:
        Span id (deterministic creation order per cluster) and parent
        span id (None for roots).
    node:
        Node id the interval elapsed on.
    subsystem, op, phase:
        ``subsystem`` is the owning stack (``lapi``/``mpl``/``ga``),
        ``op`` the logical operation (``put``, ``send``, ``gfence``...),
        ``phase`` the lifecycle phase (``call``, ``tx``, ``wire``,
        ``rx_dma``, ``dispatch``, ``hdr_handler``, ``cmpl_handler``,
        ``counter_update``...; ``op`` for the end-to-end envelope).
    t0, t1:
        Start/end virtual time (us).
    flow:
        Packet uid for wire-hop spans (pairs the ``wire`` span at the
        source with the ``rx_dma`` span at the destination -- the
        Chrome-trace flow events).
    fields:
        Extra structured context (message bytes, uids, epochs...).
    """

    __slots__ = ("sid", "parent", "node", "subsystem", "op", "phase",
                 "t0", "t1", "flow", "fields")

    def __init__(self, sid: int, parent: Optional[int], node: int,
                 subsystem: str, op: str, phase: str, t0: float,
                 t1: float, flow: Optional[int],
                 fields: Optional[dict]) -> None:
        self.sid = sid
        self.parent = parent
        self.node = node
        self.subsystem = subsystem
        self.op = op
        self.phase = phase
        self.t0 = t0
        self.t1 = t1
        self.flow = flow
        self.fields = fields

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Span#{self.sid} {self.subsystem}.{self.op}/{self.phase}"
                f" node={self.node} [{self.t0:.3f},{self.t1:.3f}]>")


def span_to_dict(span: Span) -> dict:
    """Serialize one span with fixed key order (byte-determinism)."""
    return {
        "sid": span.sid,
        "parent": span.parent,
        "node": span.node,
        "subsystem": span.subsystem,
        "op": span.op,
        "phase": span.phase,
        "t0_us": round(span.t0, 6),
        "t1_us": round(span.t1, 6),
        "dur_us": round(span.t1 - span.t0, 6),
        "flow": span.flow,
        "fields": span.fields if span.fields is not None else {},
    }


class _PacketTrack:
    """Side-table entry following one packet's lifecycle timestamps.

    Tracks are recycled through a per-recorder free list (see
    :meth:`SpanRecorder.retire_packet`): the reset in :meth:`reset`
    clears every field, so a reused track carries nothing of the
    previous packet's lifecycle.
    """

    __slots__ = ("parent", "op", "nbytes", "submit", "wire", "rx",
                 "queue")

    def __init__(self, parent: Optional[int], op: Optional[str],
                 nbytes: Optional[int]) -> None:
        self.reset(parent, op, nbytes)

    def reset(self, parent: Optional[int], op: Optional[str],
              nbytes: Optional[int]) -> None:
        self.parent = parent
        self.op = op
        self.nbytes = nbytes
        self.submit: Optional[float] = None
        self.wire: Optional[float] = None
        self.rx: Optional[float] = None
        self.queue: Optional[float] = None


class SpanRecorder:
    """Collects spans for one cluster; attach via ``Cluster(spans=...)``.

    The machine and protocol layers call the hooks below at phase
    boundaries; each hook is a pure host-side append.  Packet-phase
    spans (tx/wire/rx_dma/dispatch) are stitched to their originating
    operation through :meth:`bind_packets` side tables keyed by packet
    uid; target-side handler spans parent through message keys
    (``("lapi", src, msg_id)`` / ``("mpl", src, msg_seq)``).
    """

    def __init__(self, limit: int = 2_000_000) -> None:
        self.records: list[Span] = []
        self.limit = limit
        #: Spans discarded past ``limit`` (cap keeps full-sweep runs
        #: bounded; the count makes truncation visible, never silent).
        self.suppressed = 0
        self._sid = 0
        self._open: dict[int, Span] = {}
        self._pkt: dict[int, _PacketTrack] = {}
        self._msg: dict[tuple, tuple[Optional[int], int]] = {}
        #: Free list of retired packet tracks (reset-on-acquire).
        self._track_free: list[_PacketTrack] = []
        #: Track pool counters (obs export; never in --metrics blocks).
        self.tracks_created = 0
        self.tracks_recycled = 0

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------
    # span primitives
    # ------------------------------------------------------------------
    def open(self, node: int, subsystem: str, op: str, t0: float, *,
             phase: str = "op", parent: Optional[int] = None,
             flow: Optional[int] = None, **fields: Any) -> int:
        """Open a span; returns its sid (close it with :meth:`close`)."""
        self._sid += 1
        sid = self._sid
        self._open[sid] = Span(sid, parent, node, subsystem, op, phase,
                               t0, t0, flow, fields or None)
        return sid

    def close(self, sid: int, t1: float, **fields: Any) -> None:
        """Close an open span at ``t1`` (extra fields merge in)."""
        span = self._open.pop(sid, None)
        if span is None:
            return
        span.t1 = t1
        if fields:
            if span.fields is None:
                span.fields = fields
            else:
                span.fields.update(fields)
        self._append(span)

    def emit(self, node: int, subsystem: str, op: str, phase: str,
             t0: float, t1: float, *, parent: Optional[int] = None,
             flow: Optional[int] = None, **fields: Any) -> int:
        """Record an already-closed span; returns its sid."""
        self._sid += 1
        sid = self._sid
        self._append(Span(sid, parent, node, subsystem, op, phase,
                          t0, t1, flow, fields or None))
        return sid

    def _append(self, span: Span) -> None:
        if len(self.records) >= self.limit:
            self.suppressed += 1
            return
        self.records.append(span)

    # ------------------------------------------------------------------
    # causal side tables (origin registration)
    # ------------------------------------------------------------------
    def bind_packets(self, packets: Iterable["Packet"],
                     parent: Optional[int], op: str, nbytes: int,
                     msg_key: Optional[tuple] = None) -> None:
        """Register a message's packets under their originating span.

        Subsequent adapter/switch hooks attribute each packet's
        tx/wire/rx_dma/dispatch phases to ``op`` with ``parent`` as the
        causal parent; ``msg_key`` additionally lets the *target* side
        (header/completion handlers) find the origin span.
        """
        for pkt in packets:
            self._pkt[pkt.uid] = self._new_track(parent, op, nbytes)
        if msg_key is not None:
            self._msg[msg_key] = (parent, nbytes)

    def bind_packet(self, pkt: "Packet", parent: Optional[int], op: str,
                    nbytes: int = 0) -> None:
        """Register a single (usually control) packet."""
        self._pkt[pkt.uid] = self._new_track(parent, op, nbytes)

    def _new_track(self, parent: Optional[int], op: Optional[str],
                   nbytes: Optional[int]) -> _PacketTrack:
        free = self._track_free
        if free:
            track = free.pop()
            track.reset(parent, op, nbytes)
            return track
        self.tracks_created += 1
        return _PacketTrack(parent, op, nbytes)

    def retire_packet(self, uid: int) -> None:
        """Drop a finished packet's track and recycle the record.

        Called when a packet's lifecycle is provably over (the
        transport consumed its acknowledgement); keeps the side table
        bounded on long runs instead of growing one entry per packet
        ever sent.  Unknown uids no-op.
        """
        track = self._pkt.pop(uid, None)
        if track is not None:
            self.tracks_recycled += 1
            self._track_free.append(track)

    def pool_stats(self) -> dict:
        """Track-pool counters for :func:`repro.obs.pool_stats`."""
        return {
            "tracks_created": self.tracks_created,
            "tracks_recycled": self.tracks_recycled,
            "tracks_live": len(self._pkt),
            "free": len(self._track_free),
        }

    def origin_of(self, pkt: "Packet") -> Optional[int]:
        """Originating span sid of a bound packet (None if unbound)."""
        track = self._pkt.get(pkt.uid)
        return track.parent if track is not None else None

    def origin_of_uid(self, uid: Optional[int]) -> Optional[int]:
        """Originating span sid of a bound packet uid."""
        if uid is None:
            return None
        track = self._pkt.get(uid)
        return track.parent if track is not None else None

    def message_origin(self, key: tuple) -> Optional[int]:
        """Origin span sid registered for a message key."""
        entry = self._msg.get(key)
        return entry[0] if entry is not None else None

    def message_bytes(self, key: tuple) -> Optional[int]:
        """Message byte count registered for a message key."""
        entry = self._msg.get(key)
        return entry[1] if entry is not None else None

    # ------------------------------------------------------------------
    # packet lifecycle hooks (machine layer)
    # ------------------------------------------------------------------
    def _track(self, pkt: "Packet") -> _PacketTrack:
        track = self._pkt.get(pkt.uid)
        if track is None:
            # Unbound packet (transport ack, barrier token...): track it
            # anyway so its phases still appear, attributed to its kind.
            track = self._new_track(None, None, None)
            self._pkt[pkt.uid] = track
        return track

    def packet_submitted(self, pkt: "Packet", now: float) -> None:
        """Packet entered the adapter TX FIFO (origin node)."""
        self._track(pkt).submit = now

    def packet_tx_done(self, pkt: "Packet", now: float) -> None:
        """Packet finished serializing onto the injection link."""
        track = self._track(pkt)
        t0 = track.submit if track.submit is not None else now
        self.emit(pkt.src, pkt.proto, track.op or str(pkt.kind), "tx",
                  t0, now, parent=track.parent, uid=pkt.uid,
                  bytes=track.nbytes, pkt_bytes=pkt.size)
        track.wire = now

    def packet_delivered(self, pkt: "Packet", now: float) -> None:
        """Packet arrived at the destination adapter (wire hop done)."""
        track = self._track(pkt)
        t0 = track.wire if track.wire is not None else now
        self.emit(pkt.src, pkt.proto, track.op or str(pkt.kind), "wire",
                  t0, now, parent=track.parent, flow=pkt.uid,
                  uid=pkt.uid, bytes=track.nbytes, pkt_bytes=pkt.size,
                  dst=pkt.dst)
        track.rx = now

    def packet_lost(self, pkt: "Packet", now: float) -> None:
        """Packet dropped by the fabric (never arrives)."""
        track = self._track(pkt)
        t0 = track.wire if track.wire is not None else now
        self.emit(pkt.src, pkt.proto, track.op or str(pkt.kind), "wire",
                  t0, now, parent=track.parent, uid=pkt.uid,
                  bytes=track.nbytes, pkt_bytes=pkt.size, dst=pkt.dst,
                  lost=True)

    def packet_enqueued(self, pkt: "Packet", now: float) -> None:
        """Receive DMA complete; packet demuxed toward an RX FIFO."""
        track = self._track(pkt)
        t0 = track.rx if track.rx is not None else now
        self.emit(pkt.dst, pkt.proto, track.op or str(pkt.kind),
                  "rx_dma", t0, now, parent=track.parent, flow=pkt.uid,
                  uid=pkt.uid, bytes=track.nbytes, pkt_bytes=pkt.size)
        track.queue = now

    def packet_dropped(self, pkt: "Packet", now: float) -> None:
        """Packet dropped at a full RX FIFO (reliability recovers it)."""
        track = self._track(pkt)
        t0 = track.queue if track.queue is not None else now
        self.emit(pkt.dst, pkt.proto, track.op or str(pkt.kind), "drop",
                  t0, now, parent=track.parent, uid=pkt.uid,
                  bytes=track.nbytes, pkt_bytes=pkt.size)

    def packet_corrupted(self, pkt: "Packet", now: float) -> None:
        """Packet discarded by the receive-side CRC check (fault
        injection): it paid the full wire + receive-DMA path before
        dying, unlike a fabric loss."""
        track = self._track(pkt)
        t0 = track.rx if track.rx is not None else now
        self.emit(pkt.dst, pkt.proto, track.op or str(pkt.kind), "drop",
                  t0, now, parent=track.parent, uid=pkt.uid,
                  bytes=track.nbytes, pkt_bytes=pkt.size, crc=True)

    def packet_dispatched(self, pkt: "Packet", now: float) -> None:
        """Dispatcher picked the packet up (queue wait + demux done)."""
        track = self._track(pkt)
        t0 = track.queue if track.queue is not None else now
        self.emit(pkt.dst, pkt.proto, track.op or str(pkt.kind),
                  "dispatch", t0, now, parent=track.parent, uid=pkt.uid,
                  bytes=track.nbytes, pkt_bytes=pkt.size)

    # ------------------------------------------------------------------
    # draining
    # ------------------------------------------------------------------
    def drain(self) -> list[Span]:
        """All closed spans in canonical ``(t0, sid)`` order."""
        return sorted(self.records, key=lambda s: (s.t0, s.sid))

    def span_dicts(self) -> list[dict]:
        """Serialized spans in canonical order (capture shipping)."""
        return [span_to_dict(s) for s in self.drain()]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<SpanRecorder {len(self.records)} spans,"
                f" {len(self._open)} open,"
                f" {self.suppressed} suppressed>")
