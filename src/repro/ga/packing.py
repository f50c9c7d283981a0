"""Packed column-major byte streams for GA transfers.

A piece of a global array travels as its elements packed column-major
(Fortran order), tightly.  These helpers translate between that packed
stream and (a) a rank's block storage in simulated memory, and (b) a
caller's tight local buffer holding a whole section.

They move bytes only; CPU copy *costs* are charged by the protocol code
that calls them, keeping data movement and time accounting separate
(the same discipline as :mod:`repro.machine.memory`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import GaError
from .sections import Section

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..machine.memory import Memory
    from .array import GlobalArray

__all__ = ["read_piece_packed", "write_piece_packed",
           "scatter_packed_range", "gather_packed_range",
           "accumulate_packed_range", "local_offset_of_piece",
           "read_local_packed", "write_local_packed"]


def read_piece_packed(memory: "Memory", ga: "GlobalArray", rank: int,
                      piece: Section) -> bytes:
    """Read ``piece`` out of ``rank``'s block as a packed stream."""
    out = bytearray(piece.size * ga.itemsize)
    pos = 0
    for col in piece.columns():
        addr, nbytes = ga.column_run(rank, col, col.jlo)
        out[pos:pos + nbytes] = memory.read(addr, nbytes)
        pos += nbytes
    return bytes(out)


def write_piece_packed(memory: "Memory", ga: "GlobalArray", rank: int,
                       piece: Section, blob: bytes) -> None:
    """Write a packed stream into ``piece`` of ``rank``'s block."""
    if len(blob) != piece.size * ga.itemsize:
        raise GaError(
            f"packed blob of {len(blob)} bytes does not match piece"
            f" {piece} ({piece.size * ga.itemsize} bytes)")
    pos = 0
    for col in piece.columns():
        addr, nbytes = ga.column_run(rank, col, col.jlo)
        memory.write(addr, blob[pos:pos + nbytes])
        pos += nbytes


def scatter_packed_range(memory: "Memory", ga: "GlobalArray", rank: int,
                         piece: Section, blob: bytes,
                         offset: int) -> None:
    """Write ``blob`` -- bytes ``[offset, offset+len)`` of the piece's
    packed stream -- into ``rank``'s block (chunk delivery)."""
    item = ga.itemsize
    col_bytes = piece.rows * item
    end = offset + len(blob)
    if end > piece.size * item:
        raise GaError(f"chunk [{offset}:{end}] overruns piece {piece}")
    pos = offset
    while pos < end:
        ci, within = divmod(pos, col_bytes)
        j = piece.jlo + ci
        run = min(col_bytes - within, end - pos)
        col_addr = ga.element_addr(rank, piece.ilo, j)
        memory.write(col_addr + within, blob[pos - offset:
                                             pos - offset + run])
        pos += run


def gather_packed_range(memory: "Memory", ga: "GlobalArray", rank: int,
                        piece: Section, offset: int,
                        length: int) -> bytes:
    """Read bytes ``[offset, offset+length)`` of the piece's packed
    stream out of ``rank``'s block."""
    item = ga.itemsize
    col_bytes = piece.rows * item
    end = offset + length
    if end > piece.size * item:
        raise GaError(f"chunk [{offset}:{end}] overruns piece {piece}")
    out = bytearray(length)
    pos = offset
    while pos < end:
        ci, within = divmod(pos, col_bytes)
        j = piece.jlo + ci
        run = min(col_bytes - within, end - pos)
        col_addr = ga.element_addr(rank, piece.ilo, j)
        out[pos - offset:pos - offset + run] = memory.read(
            col_addr + within, run)
        pos += run
    return bytes(out)


def accumulate_packed_range(memory: "Memory", ga: "GlobalArray",
                            rank: int, piece: Section, blob: bytes,
                            offset: int, alpha: float) -> None:
    """Atomically-applied DAXPY of a packed chunk into the block:
    ``block += alpha * chunk`` over bytes ``[offset, offset+len)`` of
    the piece's packed stream.  The caller holds the GA mutex."""
    import numpy as np

    item = ga.itemsize
    col_bytes = piece.rows * item
    end = offset + len(blob)
    if end > piece.size * item:
        raise GaError(f"chunk [{offset}:{end}] overruns piece {piece}")
    if offset % item or len(blob) % item:
        raise GaError("accumulate chunk not element-aligned")
    pos = offset
    while pos < end:
        ci, within = divmod(pos, col_bytes)
        j = piece.jlo + ci
        run = min(col_bytes - within, end - pos)
        col_addr = ga.element_addr(rank, piece.ilo, j)
        view = memory.view(col_addr + within, run, dtype=ga.dtype)
        chunk = np.frombuffer(blob[pos - offset:pos - offset + run],
                              dtype=ga.dtype)
        view += np.asarray(alpha, dtype=ga.dtype) * chunk
        pos += run


def local_offset_of_piece(section: Section, piece: Section,
                          itemsize: int) -> tuple[bool, int]:
    """Locate ``piece`` inside a tight local buffer holding ``section``.

    Returns ``(contiguous_in_local, byte_offset_of_first_element)``.
    The piece is contiguous in the local buffer when it spans entire
    columns of the section (or a single column).
    """
    rel = piece.relative_to(section)
    offset = (rel.jlo * section.rows + rel.ilo) * itemsize
    contiguous = (piece.cols == 1
                  or (rel.ilo == 0 and rel.ihi == section.rows - 1))
    return contiguous, offset


def read_local_packed(memory: "Memory", ga: "GlobalArray",
                      section: Section, piece: Section,
                      local_addr: int) -> bytes:
    """Pack ``piece`` out of the tight local buffer at ``local_addr``
    that holds the whole of ``section``."""
    rel = piece.relative_to(section)
    item = ga.itemsize
    out = bytearray(piece.size * item)
    pos = 0
    for c in range(rel.jlo, rel.jhi + 1):
        off = (c * section.rows + rel.ilo) * item
        run = rel.rows * item
        out[pos:pos + run] = memory.read(local_addr + off, run)
        pos += run
    return bytes(out)


def write_local_packed(memory: "Memory", ga: "GlobalArray",
                       section: Section, piece: Section, local_addr: int,
                       blob: bytes) -> None:
    """Unpack ``piece``'s packed stream into the tight local buffer at
    ``local_addr`` that holds the whole of ``section``."""
    rel = piece.relative_to(section)
    item = ga.itemsize
    pos = 0
    for c in range(rel.jlo, rel.jhi + 1):
        off = (c * section.rows + rel.ilo) * item
        run = rel.rows * item
        memory.write(local_addr + off, blob[pos:pos + run])
        pos += run
