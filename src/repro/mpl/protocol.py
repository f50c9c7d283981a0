"""MPL/MPI wire formats: eager data, rendezvous control.

MPI headers are 16 bytes (section 4): two-sided matching means packets
carry only (envelope, sequence, offset) -- the receiver's own state
supplies buffer addresses.  The smaller header is why MPI's peak
bandwidth edges out LAPI's; the matching state it implies is part of
why everything below the peak is slower.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..machine.config import MachineConfig

from ..machine.packet import Packet
from .constants import MplPacketKind

__all__ = ["data_packet", "rts_packet", "cts_packet", "PROTO"]

#: Adapter demultiplexing key for the MPL stack.
PROTO = "mpl"

_DATA = MplPacketKind.DATA


def _mk(src: int, dst: int, kind: str, header: int, payload: bytes,
        info: dict) -> "Packet":
    return Packet(src=src, dst=dst, proto=PROTO, kind=kind,
                  header_bytes=header, payload=payload, info=info)


def data_packet(src: int, dst: int, msg_seq: int, tag: int, data: bytes,
                is_rndv: bool, chunk: int, header: int, i: int,
                uid: int) -> "Packet":
    """Packet ``i`` of one message's data stream (eager or post-CTS).

    The stream is cut into ``chunk``-byte payloads (``mpl_payload``)
    behind ``header``-byte headers and has
    ``packet_count(len(data), chunk)`` packets.  The first packet
    carries the envelope (tag, total, protocol); later packets carry
    only sequence/offset, as real 16-byte headers would.
    """
    offset = i * chunk
    if i:
        info = {"msg_seq": msg_seq, "offset": offset}
    else:
        info = {"msg_seq": msg_seq, "offset": 0, "tag": tag,
                "total": len(data), "is_first": True, "is_rndv": is_rndv}
    return Packet(src, dst, PROTO, _DATA, header,
                  data[offset:offset + chunk], -1, info, uid)


def rts_packet(config: "MachineConfig", src: int, dst: int, msg_seq: int,
               tag: int, total: int) -> "Packet":
    """Rendezvous request-to-send: the envelope travels alone."""
    return _mk(src, dst, MplPacketKind.RTS, config.mpl_header, b"",
               {"msg_seq": msg_seq, "tag": tag, "total": total})


def cts_packet(config: "MachineConfig", src: int, dst: int,
               msg_seq: int, reply_to: int = None) -> "Packet":
    """Rendezvous clear-to-send: receiver is ready, sender may stream.

    ``reply_to`` names the uid of the RTS packet being answered (set
    whenever the receiver knows it -- identical wire contents whether
    span tracing is armed or not)."""
    return _mk(src, dst, MplPacketKind.CTS, config.mpl_header, b"",
               {"msg_seq": msg_seq, "reply_to": reply_to})
