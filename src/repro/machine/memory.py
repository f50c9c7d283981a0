"""Per-node simulated memory.

Each node owns a :class:`Memory`: a set of live allocations addressed by
flat integers.  An *address* packs ``(allocation id, offset)`` into one
int, so pointer arithmetic works within an allocation (what remote-memory
-copy semantics need) while any access that strays outside a live
allocation faults loudly -- the simulated analogue of a segfault, which
has caught real protocol bugs in this code base.

Data is stored in :class:`numpy.ndarray` buffers, so Global Arrays can
obtain zero-copy typed views of its local blocks, while LAPI moves raw
bytes.  Timing is *not* modelled here: CPU copy costs are charged by the
caller via :meth:`repro.machine.config.MachineConfig.copy_cost`, keeping
data movement and time accounting independently testable.
"""

from __future__ import annotations

import mmap
from typing import Optional

import numpy as np

from ..errors import AllocationError, MemoryFault

__all__ = ["Memory", "OFFSET_BITS"]

#: Bits reserved for the within-allocation offset (1 TiB per allocation).
OFFSET_BITS = 40
_OFFSET_MASK = (1 << OFFSET_BITS) - 1

#: ``madvise`` advice keeping a sparse write from faulting in a 2 MiB
#: huge page; None where the platform's ``mmap`` does not define it.
_NO_HUGE_PAGES = getattr(mmap, "MADV_NOHUGEPAGE", None)


class Memory:
    """Address space of one simulated node."""

    def __init__(self, node_id: int,
                 max_allocation: int = 512 * 1024 * 1024) -> None:
        self.node_id = node_id
        self.max_allocation = max_allocation
        self._allocs: dict[int, np.ndarray] = {}
        self._next_id = 1
        #: Total live bytes, for resource accounting in tests.
        self.live_bytes = 0
        #: Set by :meth:`release` when the owning cluster is dropped.
        self.released = False

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def malloc(self, nbytes: int) -> int:
        """Allocate ``nbytes`` of zero bytes; return the base address.

        Each allocation is its own private anonymous mapping, advised
        against huge pages, so the host pays one 4 KiB page per page a
        job touches, and gets every page back as soon as the last
        array over the mapping dies -- whatever the C allocator's reuse
        policy or NumPy's huge-page advice.
        """
        if self.released:
            raise MemoryFault(self._released_msg())
        if nbytes <= 0:
            raise AllocationError(f"malloc({nbytes}) is not positive")
        if nbytes > self.max_allocation:
            raise AllocationError(
                f"malloc({nbytes}) exceeds the {self.max_allocation}-byte"
                " single-allocation cap")
        region = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE)
        if _NO_HUGE_PAGES is not None:
            region.madvise(_NO_HUGE_PAGES)
        buf = np.frombuffer(region, dtype=np.uint8)
        aid = self._next_id
        self._next_id += 1
        self._allocs[aid] = buf
        self.live_bytes += nbytes
        return aid << OFFSET_BITS

    def free(self, addr: int) -> None:
        """Release the allocation whose *base* address is ``addr``."""
        aid, off = addr >> OFFSET_BITS, addr & _OFFSET_MASK
        if off != 0:
            raise MemoryFault(
                f"free() of interior pointer {addr:#x} (offset {off})")
        buf = self._allocs.pop(aid, None)
        if buf is None:
            if self.released:
                raise MemoryFault(self._released_msg())
            raise MemoryFault(f"free() of unknown address {addr:#x}")
        self.live_bytes -= buf.nbytes

    def size_of(self, addr: int) -> int:
        """Bytes from ``addr`` to the end of its allocation."""
        buf, off = self._resolve(addr, 0)
        return buf.nbytes - off

    def release(self) -> None:
        """Return every allocation to the host, for good.

        Called once, when the owning cluster is dropped: ``live_bytes``
        drops to 0 and any later access, ``malloc`` or ``free`` raises
        :class:`~repro.errors.MemoryFault`.  Views handed out earlier
        keep their own mappings alive.
        """
        self._allocs.clear()
        self.live_bytes = 0
        self.released = True

    def _released_msg(self) -> str:
        return (f"node {self.node_id}: memory released with its dropped"
                " cluster")

    # ------------------------------------------------------------------
    # raw byte access
    # ------------------------------------------------------------------
    def _resolve(self, addr: int, nbytes: int) -> tuple[np.ndarray, int]:
        aid, off = addr >> OFFSET_BITS, addr & _OFFSET_MASK
        buf = self._allocs.get(aid)
        if buf is None:
            if self.released:
                raise MemoryFault(self._released_msg())
            raise MemoryFault(
                f"node {self.node_id}: access to unmapped address"
                f" {addr:#x}")
        if nbytes < 0 or off + nbytes > buf.nbytes:
            raise MemoryFault(
                f"node {self.node_id}: access [{off}:{off + nbytes}] past"
                f" end of {buf.nbytes}-byte allocation")
        return buf, off

    def read(self, addr: int, nbytes: int) -> bytes:
        """Read ``nbytes`` starting at ``addr``."""
        buf, off = self._resolve(addr, nbytes)
        return buf[off:off + nbytes].tobytes()

    def write(self, addr: int, data: bytes) -> None:
        """Write ``data`` starting at ``addr``."""
        buf, off = self._resolve(addr, len(data))
        buf[off:off + len(data)] = np.frombuffer(data, dtype=np.uint8)

    def view(self, addr: int, nbytes: int,
             dtype: Optional[np.dtype] = None) -> np.ndarray:
        """Zero-copy ndarray view of ``nbytes`` at ``addr``.

        The view aliases simulated memory: mutations through it are
        visible to subsequent reads, which is exactly how Global Arrays
        owns its local blocks.
        """
        buf, off = self._resolve(addr, nbytes)
        raw = buf[off:off + nbytes]
        if dtype is None:
            return raw
        dt = np.dtype(dtype)
        if nbytes % dt.itemsize:
            raise MemoryFault(
                f"{nbytes}-byte view is not a multiple of {dt} itemsize")
        return raw.view(dt)

    # ------------------------------------------------------------------
    # word access (for LAPI_Rmw and counters in memory)
    # ------------------------------------------------------------------
    def read_i64(self, addr: int) -> int:
        """Read one little-endian signed 64-bit word."""
        buf, off = self._resolve(addr, 8)
        return int(buf[off:off + 8].view(np.int64)[0])

    def write_i64(self, addr: int, value: int) -> None:
        """Write one little-endian signed 64-bit word."""
        buf, off = self._resolve(addr, 8)
        buf[off:off + 8].view(np.int64)[0] = value

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Memory node={self.node_id} allocs={len(self._allocs)}"
                f" live={self.live_bytes}B>")
