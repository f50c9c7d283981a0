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
packets arriving in any order.  A put and a get reply differ only in
their message type and the put's target fields, so one builder,
:func:`data_packets`, makes both; an active message's first packet
carries the user header (:func:`am_packets`).  Each builder yields a
message's packets in order from its data snapshot, so the sender
(:meth:`repro.core.endpoint.Endpoint.send_packets`) builds packet *i*
just before it sends it, under uid ``first + i`` of the block
:meth:`~repro.core.endpoint.Endpoint.reserve_message` took for the
message.

A strided put or get reply (LAPI_Putv / LAPI_Getv, section 6's first
future-work item) is the same message with a run list: its snapshot is
the concatenation of its runs, and each packet carries, in
``info["runs"]``, the ``(addr, nbytes)`` pieces of runs its payload
covers, at a 16-byte descriptor each on the wire.  Tiny runs share a
packet; a long run straddles packets as pieces with advanced addresses.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from ..errors import LapiError
from ..machine.packet import Packet, packet_count
from .constants import PacketKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..machine.config import MachineConfig
    from ..machine.memory import Memory

__all__ = ["data_packets", "am_first_room", "am_packets", "split_runs",
           "run_groups", "strided_packet_count", "strided_packets",
           "read_runs", "write_runs", "control_packet", "PROTO",
           "VECTOR_SUBHEADER", "GETV_RUNS_PER_PACKET"]

#: Adapter demultiplexing key for the LAPI stack.
PROTO = "lapi"
#: Wire bytes per run descriptor (address + length) of a strided packet.
VECTOR_SUBHEADER = 16
#: Run descriptors per strided GET_REQ packet.
GETV_RUNS_PER_PACKET = 40

_DATA = PacketKind.DATA
_CONTROL = (PacketKind.GET_REQ, PacketKind.CMPL, PacketKind.RMW_REQ,
            PacketKind.RMW_REP, PacketKind.BARRIER)


def data_packets(src: int, dst: int, msg_id: int, mtype: str,
                 data: bytes, config: "MachineConfig", uid: int,
                 runs: Optional[Sequence[tuple[int, int]]] = None,
                 **fields) -> Iterator["Packet"]:
    """The packets of a put (``MSG_PUT``, ``fields`` naming its target
    address and counters) or get reply (``MSG_GET_REP``) of ``data``.

    The message is cut into ``lapi_payload``-byte payloads at their
    offsets behind ``lapi_header``-byte wire headers, >= 1 packet even
    for zero length; given the ``runs`` it lands in, into the packets
    of :func:`strided_packets`.  Packet *i* gets uid ``uid + i`` and is
    cut from the snapshot ``data`` when it is asked for.
    """
    if runs is not None:
        yield from strided_packets(src, dst, msg_id, mtype, data, runs,
                                   config, uid, **fields)
        return
    chunk = config.lapi_payload
    header = config.lapi_header
    total = len(data)
    for offset in range(0, total or 1, chunk):
        yield Packet(src, dst, PROTO, _DATA, header,
                     data[offset:offset + chunk], -1, {
                         "mtype": mtype, "msg_id": msg_id,
                         "offset": offset, "total": total, **fields}, uid)
        uid += 1


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


def am_packets(src: int, dst: int, msg_id: int, handler_id: int,
               uhdr: bytes, data: bytes, first_room: int,
               config: "MachineConfig", uid: int,
               **fields) -> Iterator["Packet"]:
    """The packets of one LAPI_Amsend message, ``fields`` naming its
    counters (see :func:`am_first_room` for the layout).  Packet *i*
    gets uid ``uid + i``."""
    chunk = config.lapi_payload
    header = config.lapi_header
    total = len(data)
    for i in range(packet_count(len(uhdr) + total, chunk)):
        if i:
            offset = first_room + (i - 1) * chunk
            payload = data[offset:offset + chunk]
            wire = header
        else:
            # The uhdr occupies wire bytes in the first packet alongside
            # the 48-byte transport header.
            offset = 0
            payload = data[:first_room]
            wire = header + len(uhdr)
        info = {"mtype": PacketKind.MSG_AM, "msg_id": msg_id,
                "total": total, **fields, "offset": offset,
                "is_first": not i}
        if not i:
            info["handler_id"] = handler_id
            info["uhdr"] = uhdr
        yield Packet(src, dst, PROTO, _DATA, wire, payload, -1, info,
                     uid + i)


def split_runs(runs: Sequence[tuple[int, int, int]]
               ) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The target-side and origin-side ``(addr, nbytes)`` runs of
    Putv/Getv ``(tgt_addr, org_addr, nbytes)`` triples."""
    return [(t, n) for t, _, n in runs], [(o, n) for _, o, n in runs]


def run_groups(runs: Sequence[tuple[int, int]],
               room: int) -> Iterator[list[tuple[int, int]]]:
    """Cut ``(addr, nbytes)`` runs into the run lists of a strided
    message's consecutive packets, each with ``room`` wire bytes behind
    its LAPI header for descriptors and data."""
    group: list[tuple[int, int]] = []
    left = room
    for addr, nbytes in runs:
        off = 0
        while off < nbytes:
            if left <= VECTOR_SUBHEADER:
                yield group
                group = []
                left = room
            take = min(nbytes - off, left - VECTOR_SUBHEADER)
            group.append((addr + off, take))
            left -= VECTOR_SUBHEADER + take
            off += take
    yield group


def strided_packet_count(runs: Sequence[tuple[int, int]],
                         config: "MachineConfig") -> int:
    """Packets of a strided message over ``runs``."""
    return sum(1 for _ in run_groups(runs, config.lapi_payload))


def strided_packets(src: int, dst: int, msg_id: int, mtype: str,
                    data: bytes, runs: Sequence[tuple[int, int]],
                    config: "MachineConfig", uid: int,
                    **info) -> Iterator["Packet"]:
    """The packets of a strided put (``MSG_PUT``, ``info`` naming its
    counters) or get reply (``MSG_GET_REP``), one per
    :func:`run_groups` group of the runs ``data`` lands in.

    Packet *i* gets uid ``uid + i`` and is cut from the snapshot
    ``data`` when it is asked for.
    """
    view = memoryview(data)
    header = config.lapi_header
    total = len(data)
    off = 0
    for group in run_groups(runs, config.lapi_payload):
        n = sum(take for _, take in group)
        yield Packet(src, dst, PROTO, _DATA,
                     header + VECTOR_SUBHEADER * len(group),
                     bytes(view[off:off + n]), -1, {
                         "mtype": mtype, "msg_id": msg_id,
                         "total": total, "runs": group, **info}, uid)
        off += n
        uid += 1


def read_runs(memory: "Memory",
              runs: Sequence[tuple[int, int]]) -> bytearray:
    """One snapshot of the ``(addr, nbytes)`` runs, concatenated."""
    data = bytearray(sum(n for _, n in runs))
    pos = 0
    for addr, n in runs:
        data[pos:pos + n] = memory.read(addr, n)
        pos += n
    return data


def write_runs(memory: "Memory", runs: Sequence[tuple[int, int]],
               data: bytes) -> None:
    """Place ``data`` run by run: each ``(addr, nbytes)`` run takes the
    next ``nbytes`` of it."""
    view = memoryview(data)
    pos = 0
    for addr, n in runs:
        memory.write(addr, view[pos:pos + n])
        pos += n


def control_packet(config: "MachineConfig", src: int, dst: int, kind: str,
                   runs: Optional[list] = None, **info) -> "Packet":
    """A single control packet: GET_REQ, CMPL, RMW_REQ, RMW_REP or
    BARRIER.  A strided GET_REQ carries ``runs``, at most
    :data:`GETV_RUNS_PER_PACKET` ``(tgt_addr, org_addr, nbytes)``
    triples, at a descriptor each in its header."""
    if kind not in _CONTROL:
        raise LapiError(f"not a control packet kind: {kind!r}")
    header = config.lapi_header
    if runs is not None:
        header += VECTOR_SUBHEADER * len(runs)
        if header > config.packet_size:
            raise LapiError("strided get request exceeds a packet")
        info["runs"] = runs
    return Packet(src=src, dst=dst, proto=PROTO, kind=kind,
                  header_bytes=header, payload=b"", info=info)
