"""LAPI wire-format construction: packetization of messages.

Every LAPI packet carries a 48-byte header (section 4) because the
one-sided model requires the origin to ship all target-side parameters
(addresses, counter ids, handler ids) with the data; this module builds
those packets.  The header-size cost is real -- it is why LAPI's peak
bandwidth trails MPI's slightly in Figure 2 -- while the decoded fields
ride in ``Packet.info`` for inspectability.

A message larger than one packet is split into payload-sized chunks;
each chunk is fully self-describing (message id, offset, total length,
destination address/handler), which is what lets the dispatcher place
packets arriving in any order.  The builders make one packet at a time,
by index, from the message's data snapshot: a sender builds packet *i*
just before it sends it, under uid ``first + i`` of the block
``reserve_uids`` took for the message when the call was issued.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..errors import LapiError
from ..machine.packet import Packet
from .constants import PacketKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..machine.config import MachineConfig

__all__ = ["put_packet", "am_first_room", "am_packet", "get_reply_packet",
           "control_packet", "PROTO"]

#: Adapter demultiplexing key for the LAPI stack.
PROTO = "lapi"

_DATA = PacketKind.DATA


def _mk(src: int, dst: int, kind: str, header: int, payload: bytes,
        info: dict) -> "Packet":
    return Packet(src=src, dst=dst, proto=PROTO, kind=kind,
                  header_bytes=header, payload=payload, info=info)


def put_packet(src: int, dst: int, msg_id: int, data: bytes,
               tgt_addr: int, tgt_cntr_id: Optional[int],
               cmpl_cntr_id: Optional[int], chunk: int, header: int,
               i: int, uid: int) -> "Packet":
    """Packet ``i`` of one LAPI_Put message of ``data``.

    The message is cut into ``chunk``-byte payloads (``lapi_payload``)
    behind ``header``-byte wire headers; it has
    ``packet_count(len(data), chunk)`` packets, >= 1 even for zero
    length.
    """
    offset = i * chunk
    return Packet(src, dst, PROTO, _DATA, header,
                  data[offset:offset + chunk], -1, {
                      "mtype": PacketKind.MSG_PUT,
                      "msg_id": msg_id,
                      "offset": offset,
                      "total": len(data),
                      "tgt_addr": tgt_addr,
                      "tgt_cntr_id": tgt_cntr_id,
                      "cmpl_cntr_id": cmpl_cntr_id,
                  }, uid)


def am_first_room(config: "MachineConfig", uhdr: bytes) -> int:
    """Data bytes that fit beside ``uhdr`` in an active message's first
    packet.

    The first packet carries the user header plus as much user data as
    fits beside it; later packets are plain payload chunks.  Mirrors the
    real format in which the uhdr shares the first packet, shrinking its
    data room -- the arithmetic GA's ~900-byte protocol rides on.  So
    the message has ``packet_count(len(uhdr) + len(data), chunk)``
    packets.
    """
    if len(uhdr) > config.lapi_uhdr_max:
        raise LapiError(
            f"uhdr of {len(uhdr)} bytes exceeds the"
            f" {config.lapi_uhdr_max}-byte limit (use LAPI_Qenv)")
    return config.packet_size - config.lapi_header - len(uhdr)


def am_packet(src: int, dst: int, msg_id: int, handler_id: int,
              uhdr: bytes, data: bytes, tgt_cntr_id: Optional[int],
              cmpl_cntr_id: Optional[int], chunk: int, header: int,
              first_room: int, i: int, uid: int) -> "Packet":
    """Packet ``i`` of one LAPI_Amsend message (see
    :func:`am_first_room` for the layout)."""
    if i:
        offset = first_room + (i - 1) * chunk
        payload = data[offset:offset + chunk]
    else:
        # The uhdr occupies wire bytes in the first packet alongside the
        # 48-byte transport header.
        offset = 0
        payload = data[:first_room]
        header += len(uhdr)
    info = {
        "mtype": PacketKind.MSG_AM,
        "msg_id": msg_id,
        "total": len(data),
        "tgt_cntr_id": tgt_cntr_id,
        "cmpl_cntr_id": cmpl_cntr_id,
        "offset": offset,
        "is_first": not i,
    }
    if not i:
        info["handler_id"] = handler_id
        info["uhdr"] = uhdr
    return Packet(src, dst, PROTO, _DATA, header, payload, -1, info, uid)


def get_reply_packet(src: int, dst: int, msg_id: int, data: bytes,
                     chunk: int, header: int, i: int,
                     uid: int) -> "Packet":
    """Packet ``i`` of a LAPI_Get reply streaming ``data`` back to the
    origin (cut like a put)."""
    offset = i * chunk
    return Packet(src, dst, PROTO, _DATA, header,
                  data[offset:offset + chunk], -1, {
                      "mtype": PacketKind.MSG_GET_REP,
                      "msg_id": msg_id,
                      "offset": offset,
                      "total": len(data),
                  }, uid)


def control_packet(config: "MachineConfig", src: int, dst: int, kind: str,
                   **info) -> "Packet":
    """A single control packet (GET_REQ, CMPL, RMW_*, BARRIER)."""
    if kind not in (PacketKind.GET_REQ, PacketKind.CMPL,
                    PacketKind.RMW_REQ, PacketKind.RMW_REP,
                    PacketKind.BARRIER):
        raise LapiError(f"not a control packet kind: {kind!r}")
    return _mk(src, dst, kind, config.lapi_header, b"", info)
