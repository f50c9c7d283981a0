"""Global array handles and local block storage.

Each task stores its block of every global array in its node's simulated
memory, column-major (Fortran layout, as in real GA).  The handle keeps
the distribution and the *remote base addresses* of every task's block
(exchanged collectively at create time via ``LAPI_Address_init`` or an
MPL allgather), which is what lets one-sided protocols compute remote
element addresses locally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..errors import GaError
from .distribution import BlockDistribution
from .sections import Section

__all__ = ["GlobalArray", "contiguous"]


def contiguous(runs: list[tuple[int, int]]) -> bool:
    """True when ``runs`` lie back to back: one contiguous byte range."""
    return all(a + n == b for (a, n), (b, _) in zip(runs, runs[1:]))


def _column_runs(first: int, stride: int, col_bytes: int, offset: int,
                 end: int) -> list[tuple[int, int]]:
    """Runs under bytes ``[offset, end)`` of a column-major stream whose
    ``col_bytes``-long columns start ``stride`` bytes apart at
    ``first``."""
    runs = []
    pos = offset
    while pos < end:
        col, within = divmod(pos, col_bytes)
        take = min(col_bytes - within, end - pos)
        runs.append((first + col * stride + within, take))
        pos += take
    return runs


@dataclass
class GlobalArray:
    """Per-task view of one global array."""

    handle: int
    name: str
    dims: tuple[int, int]
    dtype: np.dtype
    dist: BlockDistribution
    #: This task's rank (the block we store locally).
    rank: int
    #: Local block base address in this node's memory (0 if empty).
    local_addr: int
    #: Base addresses of every rank's block, indexed by rank.
    base_addrs: list[int] = field(default_factory=list)
    #: Ghost-cell halo width (GA_Create_ghosts); local storage is then
    #: padded to (rows + 2w) x (cols + 2w), uniformly on every rank,
    #: so remote address arithmetic stays locally computable.
    ghost_width: int = 0
    destroyed: bool = False

    @property
    def itemsize(self) -> int:
        return self.dtype.itemsize

    @property
    def local_block(self) -> Optional[Section]:
        """My block, or None if this rank owns nothing."""
        return self.dist.block(self.rank)

    def check_live(self) -> None:
        if self.destroyed:
            raise GaError(f"array {self.name!r} used after destroy")

    def full_section(self) -> Section:
        return Section(0, self.dims[0] - 1, 0, self.dims[1] - 1)

    def check_section(self, section) -> Section:
        section = Section.of(section)
        if not self.full_section().contains(section):
            raise GaError(
                f"section {section} outside array {self.name!r}"
                f" of dims {self.dims}")
        return section

    # ------------------------------------------------------------------
    # address arithmetic (valid for any rank's block)
    # ------------------------------------------------------------------
    def element_addr(self, rank: int, i: int, j: int) -> int:
        """Address of global element (i, j) inside ``rank``'s block.

        With ghost cells the interior sits at offset ``w`` in a padded
        (rows + 2w)-leading-dimension buffer; the arithmetic stays
        locally computable because the width is uniform.
        """
        block = self.dist.block(rank)
        if block is None or not block.contains_point(i, j):
            raise GaError(
                f"element ({i},{j}) not in rank {rank}'s block {block}")
        w = self.ghost_width
        ld = block.rows + 2 * w  # column-major leading dimension
        off = (j - block.jlo + w) * ld + (i - block.ilo + w)
        return self.base_addrs[rank] + off * self.itemsize

    def piece_runs(self, rank: int, piece: Section, offset: int = 0,
                   nbytes: Optional[int] = None) -> list[tuple[int, int]]:
        """``(addr, nbytes)`` column runs of ``piece`` in ``rank``'s
        block: the whole piece, or only the runs under bytes
        ``[offset, offset + nbytes)`` of its column-major stream (an AM
        chunk's share, whose offset arrives off the wire)."""
        block = self.dist.block(rank)
        if block is None or not block.contains(piece):
            raise GaError(
                f"piece {piece} not in rank {rank}'s block {block}")
        total = piece.size * self.itemsize
        end = total if nbytes is None else offset + nbytes
        if offset < 0 or end > total:
            raise GaError(f"chunk [{offset}:{end}] overruns piece {piece}")
        ld = block.rows + 2 * self.ghost_width
        return _column_runs(self.element_addr(rank, piece.ilo, piece.jlo),
                            ld * self.itemsize, piece.rows * self.itemsize,
                            offset, end)

    def buffer_runs(self, section: Section, piece: Section,
                    addr: int) -> list[tuple[int, int]]:
        """``(addr, nbytes)`` column runs of ``piece`` inside the tight
        column-major buffer at ``addr`` that holds all of ``section``."""
        rel = piece.relative_to(section)
        item = self.itemsize
        return _column_runs(addr + (rel.jlo * section.rows + rel.ilo) * item,
                            section.rows * item, piece.rows * item,
                            0, piece.size * item)

    def accumulate(self, memory, runs: list[tuple[int, int]], data,
                   alpha: float) -> None:
        """DAXPY ``runs += alpha * data``, run by run; the caller holds
        the accumulate critical section."""
        item = self.itemsize
        if len(data) % item or any(addr % item for addr, _ in runs):
            raise GaError("accumulate chunk not element-aligned")
        scale = np.asarray(alpha, dtype=self.dtype)
        pos = 0
        for addr, n in runs:
            view = memory.view(addr, n, dtype=self.dtype)
            view += scale * np.frombuffer(data, self.dtype, n // item, pos)
            pos += n

    # ------------------------------------------------------------------
    # local access
    # ------------------------------------------------------------------
    def padded_shape(self, rank: int) -> tuple[int, int]:
        """Local storage shape of ``rank``'s block, ghosts included."""
        block = self.dist.block(rank)
        if block is None:
            return (0, 0)
        w = self.ghost_width
        return (block.rows + 2 * w, block.cols + 2 * w)

    def ghost_view(self, memory) -> np.ndarray:
        """Zero-copy view of this task's block *including* its halo."""
        self.check_live()
        if self.ghost_width == 0:
            raise GaError(
                f"array {self.name!r} has no ghost cells")
        block = self.local_block
        if block is None:
            raise GaError(
                f"rank {self.rank} owns no block of {self.name!r}")
        shape = self.padded_shape(self.rank)
        nbytes = shape[0] * shape[1] * self.itemsize
        flat = memory.view(self.local_addr, nbytes, dtype=self.dtype)
        return flat.reshape(shape, order="F")

    def local_view(self, memory) -> np.ndarray:
        """Zero-copy 2-D Fortran-order view of this task's block
        (the interior, when the array carries ghost cells)."""
        self.check_live()
        block = self.local_block
        if block is None:
            raise GaError(
                f"rank {self.rank} owns no block of {self.name!r}")
        if self.ghost_width == 0:
            nbytes = block.size * self.itemsize
            flat = memory.view(self.local_addr, nbytes,
                               dtype=self.dtype)
            return flat.reshape(block.shape, order="F")
        w = self.ghost_width
        return self.ghost_view(memory)[w:w + block.rows,
                                       w:w + block.cols]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<GlobalArray #{self.handle} {self.name!r}"
                f" {self.dims[0]}x{self.dims[1]} {self.dtype}"
                f" grid={self.dist.pgrid}>")
