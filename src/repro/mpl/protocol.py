"""MPL/MPI wire formats: eager data, rendezvous control.

MPI headers are 16 bytes (section 4): two-sided matching means packets
carry only (envelope, sequence, offset) -- the receiver's own state
supplies buffer addresses.  The smaller header is why MPI's peak
bandwidth edges out LAPI's; the matching state it implies is part of
why everything below the peak is slower.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..machine.config import MachineConfig

from ..machine.packet import Packet
from .constants import MplPacketKind

__all__ = ["data_packets", "rts_packet", "cts_packet", "PROTO"]

#: Adapter demultiplexing key for the MPL stack.
PROTO = "mpl"

_DATA = MplPacketKind.DATA


def _mk(src: int, dst: int, kind: str, header: int, payload: bytes,
        info: dict) -> "Packet":
    return Packet(src=src, dst=dst, proto=PROTO, kind=kind,
                  header_bytes=header, payload=payload, info=info)


def data_packets(src: int, dst: int, msg_seq: int, tag: int, data: bytes,
                 is_rndv: bool, config: "MachineConfig",
                 uid: int) -> Iterator["Packet"]:
    """The packets of one message's data stream (eager or post-CTS).

    The stream is cut into ``mpl_payload``-byte payloads behind
    ``mpl_header``-byte headers, >= 1 packet even for zero length.  The
    first packet carries the envelope (tag, total, protocol); later
    packets carry only sequence/offset, as real 16-byte headers would.
    Packet *i* gets uid ``uid + i`` and is cut from the snapshot
    ``data`` when it is asked for.
    """
    chunk = config.mpl_payload
    header = config.mpl_header
    total = len(data)
    yield Packet(src, dst, PROTO, _DATA, header, data[:chunk], -1,
                 {"msg_seq": msg_seq, "offset": 0, "tag": tag,
                  "total": total, "is_first": True, "is_rndv": is_rndv},
                 uid)
    for offset in range(chunk, total, chunk):
        uid += 1
        yield Packet(src, dst, PROTO, _DATA, header,
                     data[offset:offset + chunk], -1,
                     {"msg_seq": msg_seq, "offset": offset}, uid)


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
