"""Per-node simulated memory.

Each node owns a :class:`Memory`: a set of live allocations addressed by
flat integers.  An *address* packs ``(allocation id, offset)`` into one
int, so pointer arithmetic works within an allocation (what remote-memory
-copy semantics need) while any access that strays outside a live
allocation faults loudly -- the simulated analogue of a segfault, which
has caught real protocol bugs in this code base.

Each allocation is a bare anonymous ``mmap``: LAPI and MPL move raw
bytes by slicing it, and 64-bit words are little-endian.  Only
:meth:`Memory.view` touches numpy, so that Global Arrays can obtain
zero-copy typed views of its local blocks; a run that takes no view
never imports it.  Timing is *not* modelled here: CPU copy costs are
charged by the caller via
:meth:`repro.machine.config.MachineConfig.copy_cost`, keeping data
movement and time accounting independently testable.
"""

from __future__ import annotations

import mmap
from typing import TYPE_CHECKING, Optional

from ..errors import AllocationError, MemoryFault

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

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
        self._allocs: dict[int, mmap.mmap] = {}
        #: The ``uint8`` array over each allocation :meth:`view` has
        #: been asked for, built on its first view.
        self._arrays: dict[int, np.ndarray] = {}
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
        job touches, and gets every page back as soon as the allocation
        is freed and no view of it is left -- whatever the C
        allocator's reuse policy.
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
        aid = self._next_id
        self._next_id += 1
        self._allocs[aid] = region
        self.live_bytes += nbytes
        return aid << OFFSET_BITS

    def free(self, addr: int) -> None:
        """Release the allocation whose *base* address is ``addr``."""
        aid, off = addr >> OFFSET_BITS, addr & _OFFSET_MASK
        if off != 0:
            raise MemoryFault(
                f"free() of interior pointer {addr:#x} (offset {off})")
        region = self._allocs.pop(aid, None)
        if region is None:
            if self.released:
                raise MemoryFault(self._released_msg())
            raise MemoryFault(f"free() of unknown address {addr:#x}")
        self._arrays.pop(aid, None)
        self.live_bytes -= len(region)

    def size_of(self, addr: int) -> int:
        """Bytes from ``addr`` to the end of its allocation."""
        region, off = self._resolve(addr, 0)
        return len(region) - off

    def release(self) -> None:
        """Return every allocation to the host, for good.

        Called once, when the owning cluster is dropped: ``live_bytes``
        drops to 0 and any later access, ``malloc`` or ``free`` raises
        :class:`~repro.errors.MemoryFault`.  Views handed out earlier
        keep their own mappings alive.
        """
        self._allocs.clear()
        self._arrays.clear()
        self.live_bytes = 0
        self.released = True

    def _released_msg(self) -> str:
        return (f"node {self.node_id}: memory released with its dropped"
                " cluster")

    # ------------------------------------------------------------------
    # raw byte access
    # ------------------------------------------------------------------
    def _resolve(self, addr: int, nbytes: int) -> tuple[mmap.mmap, int]:
        aid, off = addr >> OFFSET_BITS, addr & _OFFSET_MASK
        region = self._allocs.get(aid)
        if region is None:
            if self.released:
                raise MemoryFault(self._released_msg())
            raise MemoryFault(
                f"node {self.node_id}: access to unmapped address"
                f" {addr:#x}")
        if nbytes < 0 or off + nbytes > len(region):
            raise MemoryFault(
                f"node {self.node_id}: access [{off}:{off + nbytes}] past"
                f" end of {len(region)}-byte allocation")
        return region, off

    def read(self, addr: int, nbytes: int) -> bytes:
        """Read ``nbytes`` starting at ``addr``."""
        region, off = self._resolve(addr, nbytes)
        return region[off:off + nbytes]

    def write(self, addr: int, data: bytes) -> None:
        """Write ``data`` (any contiguous bytes-like object) starting
        at ``addr``."""
        nbytes = len(data)
        region, off = self._resolve(addr, nbytes)
        region[off:off + nbytes] = data

    def view(self, addr: int, nbytes: int,
             dtype: Optional[np.dtype] = None) -> np.ndarray:
        """Zero-copy ndarray view of ``nbytes`` at ``addr``.

        The view aliases simulated memory: mutations through it are
        visible to subsequent reads, which is exactly how Global Arrays
        owns its local blocks.  The first view of an allocation imports
        numpy and keeps the allocation's ``uint8`` array for the next.
        """
        region, off = self._resolve(addr, nbytes)
        aid = addr >> OFFSET_BITS
        buf = self._arrays.get(aid)
        if buf is None:
            import numpy as np
            buf = self._arrays[aid] = np.frombuffer(region, dtype=np.uint8)
        raw = buf[off:off + nbytes]
        if dtype is None:
            return raw
        try:
            return raw.view(dtype)
        except ValueError:
            import numpy as np
            raise MemoryFault(
                f"{nbytes}-byte view is not a multiple of"
                f" {np.dtype(dtype)} itemsize") from None

    # ------------------------------------------------------------------
    # word access (for LAPI_Rmw and counters in memory)
    # ------------------------------------------------------------------
    def read_i64(self, addr: int) -> int:
        """Read one little-endian signed 64-bit word."""
        region, off = self._resolve(addr, 8)
        return int.from_bytes(region[off:off + 8], "little", signed=True)

    def write_i64(self, addr: int, value: int) -> None:
        """Write one little-endian signed 64-bit word; a value outside
        the signed 64-bit range raises :class:`OverflowError`."""
        region, off = self._resolve(addr, 8)
        region[off:off + 8] = int(value).to_bytes(8, "little", signed=True)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Memory node={self.node_id} allocs={len(self._allocs)}"
                f" live={self.live_bytes}B>")
