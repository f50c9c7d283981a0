"""The GA-on-LAPI backend: section 5.3's hybrid protocols.

:mod:`.api` runs every GA call and applies every request at its owner
(:meth:`GlobalArrays.serve`).  This backend is the transport: it issues
the remote pieces and point groups and completes them per call (the
origin-counter waits; the reply wait and the staged unpacks), carries
requests to ``serve`` (AM header handler into a pool slot, completion
handler) and replies back (:meth:`LapiBackend._put_reply`), and supplies
the accumulate critical section (:meth:`LapiBackend.critical`: the GA
mutex).

Protocol selection, per remote owner piece of a request:

* **contiguous** piece (single column -- the paper's "1-D" -- or
  full-height columns): direct ``LAPI_Put`` / ``LAPI_Get``, zero
  intermediate copies (the headline advantage of section 5.4);
* **strided** piece below the 0.5 MB threshold: the piece's packed
  stream ships as pipelined single-packet active messages of ~900
  bytes each (the uhdr carries the request descriptor, the remainder
  of the packet carries data -- section 5.3.1's exploitation of header
  room and pipelining);
* **strided** piece at/above the threshold: per-column remote memory
  copies (the 0.5 MB protocol switch visible in Figures 3 and 4);
* **accumulate** always travels by active message (the target must
  apply it atomically under the GA mutex); large payloads use
  large-slot chunks instead of packet-sized ones;
* **get** for strided pieces is an AM request whose completion handler
  packs the data and ``LAPI_Put``s it back into the origin's staging
  buffer, bumping the origin's reply counter.

Completion accounting follows section 5.3.2: every remote put/acc
request carries the per-target *generalized counter* as its completion
counter; ``fence`` passes the issued count to ``LAPI_Waitcntr``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

import numpy as np

from ..core.protocol import read_runs, write_runs
from ..errors import GaError
from .array import contiguous
from .buffers import AmBufferPool
from .gencounters import GenCounterArray
from .sections import Section
from .wire import (DESCRIPTOR_SIZE, Descriptor, GaOp, encode_gather,
                   encode_scatter)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .api import GlobalArrays
    from .array import GlobalArray

__all__ = ["LapiBackend"]

#: Receive-pool geometry (section 5.3.1's preallocated buffers).
POOL_SMALL_COUNT = 256
POOL_LARGE_COUNT = 16
POOL_LARGE_SIZE = 256 * 1024
#: Accumulate payloads larger than this stop using single-packet chunks
#: and ship in large-slot-sized active messages instead.
ACC_LARGE_THRESHOLD = 16 * 1024
#: Elements per scatter/gather chunk message.
SCATTER_CHUNK_ELEMS = 32


class LapiBackend:
    """Hybrid AM/RMC protocols over the LAPI stack."""

    name = "lapi"

    def __init__(self, runtime: "GlobalArrays") -> None:
        self.runtime = runtime
        self.task = runtime.task
        self.lapi = runtime.task.lapi
        if self.lapi is None:
            raise GaError("GA LAPI backend requires the LAPI stack")
        self.config = runtime.config  # machine config
        self.gcfg = runtime.gcfg      # GA thresholds
        self.memory = runtime.task.node.memory
        self.pool: Optional[AmBufferPool] = None
        self.gen: Optional[GenCounterArray] = None
        self._chunk_hid: Optional[int] = None
        self._reply_cntr = None
        self._org_cntr = None
        self._acc_mutex = None

    # ------------------------------------------------------------------
    @property
    def chunk_payload(self) -> int:
        """Data bytes a single-packet AM chunk can carry beside the
        descriptor (the "~900 bytes" of section 5.3.1)."""
        natural = (self.config.packet_size - self.config.lapi_header
                   - DESCRIPTOR_SIZE)
        if self.gcfg.am_chunk_cap is not None:
            return min(natural, self.gcfg.am_chunk_cap)
        return natural

    def init(self) -> Generator:
        from ..sim import SimLock
        lapi = self.lapi
        self.pool = AmBufferPool(
            self.memory,
            small_size=self.config.packet_size,
            small_count=POOL_SMALL_COUNT, large_size=POOL_LARGE_SIZE,
            large_count=POOL_LARGE_COUNT)
        self.gen = GenCounterArray(lapi)
        self._reply_cntr = lapi.counter(name="ga.reply")
        self._org_cntr = lapi.counter(name="ga.org")
        self._acc_mutex = SimLock(lapi.sim, name=f"ga{lapi.rank}.accmx")
        self._chunk_hid = lapi.register_handler(self._chunk_hh)
        self.task.cluster.metrics.register_collector(
            "ga.buffers", self._pool_metrics, node=self.task.rank)
        yield from lapi.gfence()

    def _pool_metrics(self) -> dict:
        """Pool occupancy for the observability registry (collector)."""
        pool = self.pool
        return {
            "small_high_water": pool.small_high_water,
            "large_high_water": pool.large_high_water,
            "small_free": pool.small_free,
            "large_free": pool.large_free,
            "in_use": pool.in_use,
        }

    def close(self) -> None:
        """Host-side release after :meth:`terminate`: the pool's slab.
        The pool object stays, so ``ga.buffers`` keeps rendering."""
        self.pool.close()

    # ==================================================================
    # target side: the AM header handler and completion handlers
    # ==================================================================
    def _chunk_hh(self, task, src, uhdr, udata_len):
        """Header handler for every GA active message.

        Must not block and must return a buffer for data-bearing
        messages (section 5.3.1), hence the preallocated pool.
        """
        slot = self.pool.acquire(udata_len) if udata_len else None
        return slot, self._cmpl, (Descriptor.unpack(uhdr), src, slot,
                                  udata_len)

    def _cmpl(self, task, info):
        """Completion handler (its own HANDLER thread): the request and
        its pool slot's data go to the owner side, replies go back by
        :meth:`_put_reply`."""
        desc, src, slot, nbytes = info
        data = b"" if slot is None else self.memory.read(slot, nbytes)
        try:
            yield from self.runtime.serve(task.node.cpu.current_thread(),
                                          src, desc, data, self._put_reply)
        finally:
            if slot is not None:
                self.pool.release(slot)

    def critical(self, thread, cost: float, apply) -> Generator:
        """The accumulate critical section (section 5.3.3): ``apply()``
        after ``mutex_cost + cost`` under the node's GA mutex."""
        mutex = self._acc_mutex
        if not mutex.try_acquire(thread):
            yield from thread.wait(mutex.acquire(owner=thread))
        try:
            yield from thread.execute(self.config.mutex_cost + cost)
            return apply()
        finally:
            mutex.release()

    def _put_reply(self, thread, src: int, desc: Descriptor,
                   blob: bytes) -> Generator:
        """LAPI_Put ``blob`` to the origin's reply address, bumping its
        reply counter; holds the scratch until retransmit-safe."""
        scratch = self.memory.malloc(max(len(blob), 1))
        self.memory.write(scratch, blob)
        # One origin counter per reply: a shared one would let two
        # concurrent replies consume each other's increment.
        org = self.lapi.local_counter()
        yield from self.lapi.put(src, len(blob), desc.reply_addr,
                                 scratch, tgt_cntr=desc.reply_cntr,
                                 org_cntr=org)
        yield from self.lapi.waitcntr(org, 1)
        self.memory.free(scratch)

    # ==================================================================
    # origin side: the remote pieces of put / acc / get
    # ==================================================================
    def store_piece(self, thread, ga: "GlobalArray", owner: int,
                    piece: Section, section: Section, local_addr: int,
                    op: int, alpha: float) -> Generator:
        """Issue one remote put/acc piece; returns ``(operations
        issued, scratch address or None)``."""
        lapi = self.lapi
        nbytes = piece.size * ga.itemsize
        # Source bytes: direct from the local buffer when the piece is
        # contiguous there, else packed into a scratch (a copy).
        src = ga.buffer_runs(section, piece, local_addr)
        scratch = None
        if contiguous(src):
            src_addr = src[0][0]
        else:
            data = read_runs(self.memory, src)
            yield from thread.execute(self.config.copy_cost(nbytes))
            src_addr = scratch = self.memory.malloc(nbytes)
            self.memory.write(src_addr, data)
        gen = self.gen[owner]
        tgt = ga.piece_runs(owner, piece)
        if op == GaOp.PUT and contiguous(tgt):
            # Direct RMC: the paper's preferred 1-D path.
            yield from lapi.put(owner, nbytes, tgt[0][0], src_addr,
                                org_cntr=self._org_cntr,
                                cmpl_cntr=gen.cntr)
            gen.record("put")
            return 1, scratch
        if op == GaOp.PUT and self.gcfg.use_vector_rmc:
            # Future-work path (section 6 #1): one vector put, no
            # per-column calls, no pack copies.
            yield from lapi.putv(owner, [(t, src_addr + c * n, n)
                                         for c, (t, n) in enumerate(tgt)],
                                 org_cntr=self._org_cntr,
                                 cmpl_cntr=gen.cntr)
            gen.record("put")
            return 1, scratch
        if op == GaOp.PUT and nbytes >= self.gcfg.strided_rmc_threshold:
            # Large strided: per-column RMC (the 0.5 MB switch).
            for c, (t, n) in enumerate(tgt):
                yield from lapi.put(owner, n, t, src_addr + c * n,
                                    org_cntr=self._org_cntr,
                                    cmpl_cntr=gen.cntr)
            gen.record("put", piece.cols)
            return piece.cols, scratch
        # Pipelined AM chunks.
        chunk = self.chunk_payload
        if op == GaOp.ACC and nbytes > ACC_LARGE_THRESHOLD:
            chunk = POOL_LARGE_SIZE
        sent = yield from self._send_chunks(ga, owner, piece, src_addr,
                                            nbytes, op, alpha, chunk)
        return sent, scratch

    def finish_store(self, thread, pending: list) -> Generator:
        """GA put/acc returns when the local buffer is reusable.  Small
        operations fired the origin counter synchronously (internal
        retransmit copy), so a cheap inline check usually suffices and
        the full Waitcntr call is only paid when something is still in
        flight."""
        ops_issued = sum(ops for ops, _ in pending)
        if ops_issued:
            org = self._org_cntr
            if org.value >= ops_issued:
                yield from thread.execute(self.config.lapi_counter_update)
                org.set(org.value - ops_issued)
            else:
                yield from self.lapi.waitcntr(org, ops_issued)
        for _, scratch in pending:
            if scratch is not None:
                self.memory.free(scratch)

    def _send_chunks(self, ga, owner: int, piece: Section, src_addr: int,
                     nbytes: int, op: int, alpha: float,
                     chunk: int) -> Generator:
        """Stream the packed piece as AM chunks; returns the count."""
        lapi = self.lapi
        sent = 0
        offset = 0
        while True:
            this = min(chunk, nbytes - offset)
            desc = Descriptor(op=op, handle=ga.handle, section=piece,
                              offset=offset, total=nbytes, alpha=alpha)
            yield from lapi.amsend(
                owner, self._chunk_hid, desc.pack(),
                src_addr + offset, this,
                org_cntr=self._org_cntr,
                cmpl_cntr=self.gen[owner].cntr)
            self.gen[owner].record(GaOp.NAMES[op])
            sent += 1
            offset += this
            if offset >= nbytes:
                return sent

    def get_piece(self, thread, ga: "GlobalArray", owner: int,
                  piece: Section, section: Section,
                  local_addr: int) -> Generator:
        """Issue one remote get piece; returns ``(replies expected,
        (local runs, staging address) or None)``."""
        lapi = self.lapi
        nbytes = piece.size * ga.itemsize
        dst = ga.buffer_runs(section, piece, local_addr)
        tgt = ga.piece_runs(owner, piece)
        if contiguous(tgt) and contiguous(dst):
            # Direct RMC straight into the user's buffer: zero copies
            # end to end (section 5.4's 1-D fast path).
            yield from lapi.get(owner, nbytes, tgt[0][0], dst[0][0],
                                org_cntr=self._reply_cntr)
            return 1, None
        if self.gcfg.use_vector_rmc:
            # Future-work path: one vector get, runs land directly in
            # the user's buffer.
            yield from lapi.getv(owner, [(t, d, n) for (t, n), (d, _)
                                         in zip(tgt, dst)],
                                 org_cntr=self._reply_cntr)
            return 1, None
        if (self.gcfg.get_strided_rmc_threshold is not None
                and nbytes >= self.gcfg.get_strided_rmc_threshold):
            # The paper's 0.5MB switch: per-column gets into the user
            # buffer (opt-in; see GaConfig for why).
            for (t, n), (d, _) in zip(tgt, dst):
                yield from lapi.get(owner, n, t, d,
                                    org_cntr=self._reply_cntr)
            return piece.cols, None
        # AM request; the target puts the packed piece back.  When the
        # piece occupies one run of the local buffer the reply lands
        # there directly; otherwise it goes via a staging buffer and is
        # unpacked (the extra copy).
        staged = None
        if contiguous(dst):
            reply_addr = dst[0][0]
        else:
            reply_addr = self.memory.malloc(nbytes)
            staged = (dst, reply_addr)
        desc = Descriptor(op=GaOp.GET, handle=ga.handle, section=piece,
                          total=nbytes, reply_addr=reply_addr,
                          reply_cntr=self._reply_cntr.id)
        yield from lapi.amsend(owner, self._chunk_hid, desc.pack(),
                               None, 0)
        return 1, staged

    def finish_get(self, thread, pending: list) -> Generator:
        """Wait for every reply, then unpack the staged ones."""
        replies = sum(n for n, _ in pending)
        if replies:
            yield from self.lapi.waitcntr(self._reply_cntr, replies)
        for _, staged in pending:
            if staged is not None:
                dst, stage = staged
                nbytes = sum(n for _, n in dst)
                yield from thread.execute(self.config.copy_cost(nbytes))
                write_runs(self.memory, dst,
                           self.memory.read(stage, nbytes))
                self.memory.free(stage)

    # ==================================================================
    # scatter / gather / read_inc / locks / sync
    # ==================================================================
    def scatter_group(self, thread, ga: "GlobalArray", owner: int,
                      points: list, values: np.ndarray,
                      idxs: list[int]) -> Generator:
        """Ship one owner's points as scatter AMs of at most
        ``SCATTER_CHUNK_ELEMS`` records each; returns how many."""
        lapi = self.lapi
        step = SCATTER_CHUNK_ELEMS
        for s in range(0, len(idxs), step):
            group = idxs[s:s + step]
            blob = encode_scatter(points, values, group, ga.dtype)
            desc = Descriptor(op=GaOp.SCATTER, handle=ga.handle,
                              section=ga.dist.block(owner), total=len(blob),
                              aux=len(group))
            yield from lapi.amsend(owner, self._chunk_hid, desc.pack(),
                                   blob, len(blob),
                                   org_cntr=self._org_cntr,
                                   cmpl_cntr=self.gen[owner].cntr)
            self.gen[owner].record("scatter")
        return -(-len(idxs) // step)

    def finish_scatter(self, thread, pending: list) -> Generator:
        """Wait until every scatter AM's data has left."""
        ops = sum(pending)
        if ops:
            yield from self.lapi.waitcntr(self._org_cntr, ops)

    def gather_group(self, thread, ga: "GlobalArray", owner: int,
                     points: list, out: np.ndarray,
                     idxs: list[int]) -> Generator:
        """Request one owner's points as gather AMs of at most
        ``SCATTER_CHUNK_ELEMS`` pairs, each reply put into a staging
        buffer; returns ``(point indexes, staging address)`` per AM."""
        lapi = self.lapi
        step = SCATTER_CHUNK_ELEMS
        staged = []
        for s in range(0, len(idxs), step):
            group = idxs[s:s + step]
            blob = encode_gather(points, group)
            stage = self.memory.malloc(len(group) * ga.itemsize)
            desc = Descriptor(op=GaOp.GATHER, handle=ga.handle,
                              section=ga.dist.block(owner),
                              total=len(group) * ga.itemsize,
                              reply_addr=stage,
                              reply_cntr=self._reply_cntr.id,
                              aux=len(group))
            yield from lapi.amsend(owner, self._chunk_hid, desc.pack(),
                                   blob, len(blob))
            staged.append((group, stage))
        return staged

    def finish_gather(self, thread, pending: list,
                      out: np.ndarray) -> Generator:
        """Wait for every reply, then unpack each into ``out``."""
        staged = [s for group in pending for s in group]
        if staged:
            yield from self.lapi.waitcntr(self._reply_cntr, len(staged))
        for group, stage in staged:
            nbytes = len(group) * out.itemsize
            yield from thread.execute(self.config.copy_cost(nbytes))
            out[group] = np.frombuffer(self.memory.read(stage, nbytes),
                                       dtype=out.dtype)
            self.memory.free(stage)

    def read_inc(self, thread, ga: "GlobalArray", owner: int,
                 point: tuple[int, int], inc: int) -> Generator:
        """Atomic fetch-and-add on an int64 element via LAPI_Rmw."""
        from ..core import RmwOp
        prev = yield from self.lapi.rmw_sync(
            RmwOp.FETCH_AND_ADD, owner, ga.element_addr(owner, *point), inc)
        return prev

    def lock_cas(self, owner: int, addr: int) -> Generator:
        """One compare-and-swap attempt on a remote lock word."""
        from ..core import RmwOp
        prev = yield from self.lapi.rmw_sync(RmwOp.COMPARE_AND_SWAP,
                                             owner, addr, 1, cmp_val=0)
        return prev == 0

    def unlock_swap(self, owner: int, addr: int) -> Generator:
        from ..core import RmwOp
        yield from self.lapi.rmw_sync(RmwOp.SWAP, owner, addr, 0)

    # ------------------------------------------------------------------
    def fence(self, *, ordering_only: bool = False) -> Generator:
        yield from self.gen.wait_all(ordering_only=ordering_only)

    def barrier(self) -> Generator:
        yield from self.lapi.gfence()

    def exchange(self, value) -> Generator:
        """Collective allgather used by create (address exchange)."""
        table = yield from self.lapi.address_init(value)
        return table
