"""Binary wire formats of the GA protocols.

Request descriptors: the LAPI backend ships these in the AM user header
(uhdr), so they must stay small (LAPI_Qenv(MAX_UHDR_SZ) is 128 bytes
here); the MPL backend prefixes its single packed request message with
the same encoding.  A fixed-layout struct -- not pickle -- keeps the
size deterministic and the wire format honest.

Scatter/gather points travel as 24-byte ``[i, j, value]`` records and
16-byte ``[i, j]`` pairs (int64 indices; GA elements are 8 bytes).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..errors import GaError
from .sections import Section

__all__ = ["GaOp", "Descriptor", "DESCRIPTOR_SIZE", "SCATTER_RECORD_SIZE",
           "GATHER_PAIR_SIZE", "encode_scatter", "decode_scatter",
           "encode_gather", "decode_gather", "write_elements",
           "read_elements"]


class GaOp:
    """GA request opcodes."""

    PUT = 1
    GET = 2
    ACC = 3
    GET_REPLY = 4
    READ_INC = 5
    LOCK_CAS = 6
    FENCE = 7
    SCATTER = 8
    GATHER = 9

    NAMES = {1: "put", 2: "get", 3: "acc", 4: "get_reply",
             5: "read_inc", 6: "lock_cas", 7: "fence", 8: "scatter",
             9: "gather"}


#: opcode, handle, section (4 x i64), chunk offset, total bytes, alpha,
#: reply address, reply counter id, aux value.
_FMT = "<bxxxi4qqqdqqq"
DESCRIPTOR_SIZE = struct.calcsize(_FMT)
assert DESCRIPTOR_SIZE <= 128, "descriptor must fit LAPI's uhdr limit"


@dataclass(frozen=True)
class Descriptor:
    """One GA request header.

    Field roles by opcode:

    * PUT/ACC: ``section`` is the target piece; ``offset``/``total``
      locate this chunk in the piece's packed (column-major) byte
      stream; ``alpha`` scales ACC contributions.
    * GET: ``reply_addr`` is the origin's staging buffer (or final
      buffer for contiguous replies); ``reply_cntr`` the origin counter
      to bump per reply message.
    * READ_INC / LOCK_CAS: ``aux`` carries the increment / comparand,
      ``alpha`` the CAS replacement; the old value returns in a reply.
    * FENCE: ``aux`` carries the issued-operation count being flushed.
    * SCATTER/GATHER: ``aux`` counts the records or pairs that follow;
      ``section`` is the owner's block (a rank that owns none may still
      send), and GATHER replies like GET.
    """

    op: int
    handle: int
    section: Section
    offset: int = 0
    total: int = 0
    alpha: float = 1.0
    reply_addr: int = 0
    reply_cntr: int = -1
    aux: int = 0

    def pack(self) -> bytes:
        s = self.section
        return struct.pack(_FMT, self.op, self.handle, s.ilo, s.ihi,
                           s.jlo, s.jhi, self.offset, self.total,
                           self.alpha, self.reply_addr, self.reply_cntr,
                           self.aux)

    @classmethod
    def unpack(cls, blob: bytes) -> "Descriptor":
        if len(blob) < DESCRIPTOR_SIZE:
            raise GaError(
                f"descriptor blob of {len(blob)} bytes, need"
                f" {DESCRIPTOR_SIZE}")
        (op, handle, ilo, ihi, jlo, jhi, offset, total, alpha,
         reply_addr, reply_cntr, aux) = struct.unpack(
            _FMT, blob[:DESCRIPTOR_SIZE])
        return cls(op=op, handle=handle,
                   section=Section(ilo, ihi, jlo, jhi), offset=offset,
                   total=total, alpha=alpha, reply_addr=reply_addr,
                   reply_cntr=reply_cntr, aux=aux)

    @property
    def op_name(self) -> str:
        return GaOp.NAMES.get(self.op, f"op{self.op}")


_POINT = struct.Struct("<qq")
GATHER_PAIR_SIZE = _POINT.size
SCATTER_RECORD_SIZE = GATHER_PAIR_SIZE + 8


def encode_scatter(points: Sequence, values, idxs: Iterable[int],
                   dtype) -> bytes:
    return b"".join(_POINT.pack(*points[k])
                    + np.asarray(values[k], dtype=dtype).tobytes()
                    for k in idxs)


def decode_scatter(blob: bytes) -> Iterator[tuple[int, int, bytes]]:
    """``(i, j, value bytes)`` per record."""
    for off in range(0, len(blob), SCATTER_RECORD_SIZE):
        i, j = _POINT.unpack_from(blob, off)
        yield i, j, blob[off + GATHER_PAIR_SIZE:off + SCATTER_RECORD_SIZE]


def encode_gather(points: Sequence, idxs: Iterable[int]) -> bytes:
    return b"".join(_POINT.pack(*points[k]) for k in idxs)


def decode_gather(blob: bytes) -> Iterator[tuple[int, int]]:
    return _POINT.iter_unpack(blob)


def write_elements(memory, ga, rank: int,
                   records: Iterable[tuple[int, int, bytes]]) -> None:
    for i, j, raw in records:
        memory.write(ga.element_addr(rank, i, j), raw)


def read_elements(memory, ga, rank: int,
                  pairs: Iterable[tuple[int, int]]) -> bytes:
    return b"".join(memory.read(ga.element_addr(rank, i, j), ga.itemsize)
                    for i, j in pairs)
