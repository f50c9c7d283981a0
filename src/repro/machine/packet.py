"""Network packets exchanged through the simulated SP switch.

A :class:`Packet` is what the adapter injects and the switch routes.  The
protocol stacks (LAPI, MPL) put their wire-header *size* in
``header_bytes`` -- it occupies link bandwidth -- while the decoded header
*fields* travel in ``info`` (a real implementation would pack them into
those bytes; carrying them decoded keeps the model inspectable without
changing any timing).

``Packet`` is a ``__slots__`` class, not a dataclass: packets are the
single most-allocated model object (one per wire packet plus one per
acknowledgement), and the per-instance ``__dict__`` plus generated
``__init__``/``__post_init__`` chain of the dataclass it used to be were
measurable on the hot path.  Construction semantics are unchanged; uids
still come from the per-cluster counter.

A data message is cut into packets as the send window admits them, not
all at once when it is issued, so a message in flight costs one data
snapshot plus a window of packets.  Its uids are still taken when it is
issued: :func:`reserve_uids` takes the message's block of consecutive
uids and packet *i* carries ``first + i``, so the numbering (which
trace records, span side tables and MPL's ``reply_to`` name) does not
depend on the acknowledgements built while the message streams.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

from ..errors import NetworkError

__all__ = ["Packet", "packet_count", "reserve_uids", "reset_packet_ids"]

_packet_ids = itertools.count()


def reset_packet_ids() -> None:
    """Restart uid numbering (called per cluster, so uids are a
    function of the cluster's own history, not of whatever ran earlier
    in the process — a requirement for serial/parallel trace parity)."""
    global _packet_ids
    _packet_ids = itertools.count()


def reserve_uids(n: int) -> int:
    """Take a block of ``n`` consecutive uids; returns the first."""
    global _packet_ids
    first = next(_packet_ids)
    if n > 1:
        _packet_ids = itertools.count(first + n)
    return first


def packet_count(nbytes: int, chunk: int) -> int:
    """Packets of an ``nbytes`` message cut into ``chunk``-byte
    payloads (>= 1: an empty message still sends one packet)."""
    return -(-nbytes // chunk) or 1


class Packet:
    """One wire packet.

    Attributes
    ----------
    src, dst:
        Node ids of origin and target.
    proto:
        Owning protocol stack, e.g. ``"lapi"`` or ``"mpl"``; the adapter
        demultiplexes arriving packets to the matching client.
    kind:
        Packet type within the protocol (``"data"``, ``"ack"``,
        ``"rts"``...).
    seq:
        Transport-level sequence number assigned by the reliability
        layer; ``-1`` for packets outside any reliable flow.
    header_bytes:
        Wire header size; charged against link bandwidth.
    payload:
        The data bytes carried (may be empty for control packets).
    info:
        Decoded protocol header fields (message id, offsets, handler
        ids...).  Conceptually part of ``header_bytes``.
    uid:
        Unique id for tracing/debugging; not part of the wire format.
    size:
        Total bytes on the wire.  Precomputed: ``header_bytes`` and
        ``payload`` are fixed at construction, and ``size`` is read for
        every serialization/occupancy charge on the TX and route paths.
    """

    __slots__ = ("src", "dst", "proto", "kind", "header_bytes", "payload",
                 "seq", "info", "uid", "size")

    def __init__(self, src: int, dst: int, proto: str, kind: str,
                 header_bytes: int, payload: bytes = b"", seq: int = -1,
                 info: Optional[dict[str, Any]] = None,
                 uid: Optional[int] = None) -> None:
        self.src = src
        self.dst = dst
        self.proto = proto
        self.kind = kind
        self.header_bytes = header_bytes
        self.payload = payload
        self.seq = seq
        self.info = {} if info is None else info
        self.uid = next(_packet_ids) if uid is None else uid
        self.size = header_bytes + len(payload)

    def validate(self, max_size: int,
                 nnodes: Optional[int] = None) -> None:
        """Check wire-format invariants against the machine config
        (and, given ``nnodes``, that both endpoints are on the fabric)."""
        if self.src == self.dst:
            raise NetworkError(f"packet {self.uid} loops to its source")
        if self.src < 0 or self.dst < 0:
            raise NetworkError(f"packet {self.uid} has a negative node id")
        if nnodes is not None and (self.src >= nnodes
                                   or self.dst >= nnodes):
            raise NetworkError(
                f"packet {self.uid} ({self.src}->{self.dst}) addresses a"
                f" node outside the {nnodes}-node fabric")
        if self.header_bytes <= 0:
            raise NetworkError(f"packet {self.uid} has no header")
        if self.size > max_size:
            raise NetworkError(
                f"packet {self.uid} oversize: {self.size} > {max_size}")

    def trace_fields(self) -> dict:
        """Structured identity for trace records (JSONL export)."""
        return {"uid": self.uid, "proto": self.proto,
                "kind": str(self.kind), "src": self.src, "dst": self.dst,
                "seq": self.seq, "bytes": self.size}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Packet#{self.uid} {self.proto}.{self.kind} "
                f"{self.src}->{self.dst} seq={self.seq} "
                f"{len(self.payload)}B+{self.header_bytes}B>")
