"""The GA-on-LAPI backend: section 5.3's hybrid protocols.

Protocol selection, per owner piece of a request:

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

from ..errors import GaError
from .buffers import AmBufferPool
from .gencounters import GenCounterArray
from .packing import (accumulate_packed_range, gather_packed_range,
                      local_offset_of_piece, read_local_packed,
                      read_piece_packed, scatter_packed_range,
                      write_local_packed)
from .sections import Section
from .wire import (DESCRIPTOR_SIZE, GATHER_PAIR_SIZE, Descriptor, GaOp,
                   decode_gather, decode_scatter, encode_gather,
                   encode_scatter, read_elements, remote_groups,
                   write_elements)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .api import GlobalArrays
    from .array import GlobalArray

__all__ = ["LapiBackend"]


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
            small_count=self.gcfg.pool_small_count,
            large_size=self.gcfg.pool_large_size,
            large_count=self.gcfg.pool_large_count)
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

    def terminate(self) -> Generator:
        yield from self.sync()

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
        desc = Descriptor.unpack(uhdr)
        if udata_len == 0:
            return None, self._ctrl_cmpl, (desc, src)
        slot = self.pool.acquire(udata_len)
        return slot, self._data_cmpl, (desc, src, slot, udata_len)

    def _data_cmpl(self, task, info):
        """Completion handler for data-bearing chunks (put/acc/scatter/
        gather index lists).  Runs on its own HANDLER thread."""
        desc, src, slot, nbytes = info
        thread = task.node.cpu.current_thread()
        cfg = self.config
        try:
            blob = self.memory.read(slot, nbytes)
            ga = self.runtime.array(desc.handle)
            if desc.op == GaOp.PUT:
                yield from thread.execute(cfg.copy_cost(nbytes))
                scatter_packed_range(self.memory, ga, self.lapi.rank,
                                     desc.section, blob, desc.offset)
            elif desc.op == GaOp.ACC:
                yield from self._apply_acc(thread, ga, desc, blob)
            elif desc.op == GaOp.SCATTER:
                yield from thread.execute(cfg.copy_cost(nbytes))
                write_elements(self.memory, ga, self.lapi.rank,
                               decode_scatter(blob))
            elif desc.op == GaOp.GATHER:
                # Read the listed elements and put the values back.
                yield from thread.execute(cfg.copy_cost(
                    nbytes // GATHER_PAIR_SIZE * ga.itemsize))
                out = read_elements(self.memory, ga, self.lapi.rank,
                                    decode_gather(blob))
                yield from self._put_reply(thread, src, desc, out)
            else:
                raise GaError(
                    f"unexpected data chunk op {desc.op_name!r}")
        finally:
            self.pool.release(slot)

    def _apply_acc(self, thread, ga, desc: Descriptor,
                   blob: bytes) -> Generator:
        """Atomic accumulate: mutex + DAXPY (section 5.3.3)."""
        cfg = self.config
        mutex = self._acc_mutex
        if not mutex.try_acquire(thread):
            yield from thread.wait(mutex.acquire(owner=thread))
        try:
            yield from thread.execute(cfg.mutex_cost
                                      + cfg.daxpy_cost(len(blob)))
            accumulate_packed_range(self.memory, ga, self.lapi.rank,
                                    desc.section, blob, desc.offset,
                                    desc.alpha)
        finally:
            mutex.release()

    def _ctrl_cmpl(self, task, info):
        """Completion handler for data-less requests (get)."""
        desc, src = info
        thread = task.node.cpu.current_thread()
        cfg = self.config
        if desc.op != GaOp.GET:
            raise GaError(f"unexpected control op {desc.op_name!r}")
        ga = self.runtime.array(desc.handle)
        piece = desc.section
        nbytes = piece.size * ga.itemsize
        # Pack the piece (one copy at the target, charged)...
        yield from thread.execute(cfg.copy_cost(nbytes))
        blob = read_piece_packed(self.memory, ga, self.lapi.rank, piece)
        # ...and push it into the origin's staging buffer.
        yield from self._put_reply(thread, src, desc, blob)

    def _put_reply(self, thread, src: int, desc: Descriptor,
                   blob: bytes) -> Generator:
        """LAPI_Put ``blob`` to the origin's reply address, bumping its
        reply counter; holds the scratch until retransmit-safe."""
        scratch = self.memory.malloc(max(len(blob), 1))
        self.memory.write(scratch, blob)
        org = self.lapi.counter()
        yield from self.lapi.put(src, len(blob), desc.reply_addr,
                                 scratch, tgt_cntr=desc.reply_cntr,
                                 org_cntr=org)
        yield from self.lapi.waitcntr(org, 1)
        self.memory.free(scratch)

    # ==================================================================
    # origin side: put / get / acc
    # ==================================================================
    def put(self, ga: "GlobalArray", section: Section,
            local_addr: int) -> Generator:
        yield from self._put_or_acc(ga, section, local_addr,
                                    op=GaOp.PUT, alpha=1.0)

    def acc(self, ga: "GlobalArray", section: Section, local_addr: int,
            alpha: float = 1.0) -> Generator:
        yield from self._put_or_acc(ga, section, local_addr,
                                    op=GaOp.ACC, alpha=alpha)

    def _put_or_acc(self, ga: "GlobalArray", section: Section,
                    local_addr: int, *, op: int,
                    alpha: float) -> Generator:
        lapi = self.lapi
        sp = lapi.spans
        if sp is None:
            yield from self._put_or_acc_body(ga, section, local_addr,
                                             op=op, alpha=alpha)
            return
        thread = lapi.current_thread()
        name = "ga.acc" if op == GaOp.ACC else "ga.put"
        op_sid = sp.open(lapi.rank, "ga", name, lapi.sim.now,
                         parent=getattr(thread, "span_parent", None),
                         bytes=section.size * ga.itemsize)
        # Nested LAPI puts/amsends parent under the GA operation.
        prev = getattr(thread, "span_parent", None)
        thread.span_parent = op_sid
        try:
            yield from self._put_or_acc_body(ga, section, local_addr,
                                             op=op, alpha=alpha)
        finally:
            thread.span_parent = prev
            sp.close(op_sid, lapi.sim.now)

    def _put_or_acc_body(self, ga: "GlobalArray", section: Section,
                         local_addr: int, *, op: int,
                         alpha: float) -> Generator:
        lapi = self.lapi
        cfg = self.config
        thread = lapi.current_thread()
        yield from thread.execute(self.gcfg.ga_call_overhead)
        ops_issued = 0
        scratches = []
        for owner, piece in ga.dist.locate(section):
            contig_local, loff = local_offset_of_piece(
                section, piece, ga.itemsize)
            nbytes = piece.size * ga.itemsize
            if owner == lapi.rank:
                yield from self._local_put_acc(thread, ga, piece,
                                               local_addr, section, op,
                                               alpha)
                continue
            # Source bytes: direct from the local buffer when the piece
            # is contiguous there, else packed into a scratch (a copy).
            if contig_local:
                src_addr = local_addr + loff
            else:
                blob = read_local_packed(self.memory, ga, section, piece,
                                         local_addr)
                yield from thread.execute(cfg.copy_cost(nbytes))
                src_addr = self.memory.malloc(nbytes)
                self.memory.write(src_addr, blob)
                scratches.append(src_addr)

            if op == GaOp.PUT and ga.piece_is_contiguous(owner, piece):
                # Direct RMC: the paper's preferred 1-D path.
                tgt_addr, _ = ga.piece_addr_len(owner, piece)
                yield from lapi.put(owner, nbytes, tgt_addr, src_addr,
                                    org_cntr=self._org_cntr,
                                    cmpl_cntr=self.gen[owner].cntr)
                self.gen[owner].record("put")
                ops_issued += 1
            elif op == GaOp.PUT and self.gcfg.use_vector_rmc:
                # Future-work path (section 6 #1): one vector put, no
                # per-column calls, no pack copies.
                col_bytes = piece.rows * ga.itemsize
                runs = []
                for ci, col in enumerate(piece.columns()):
                    runs.append((ga.element_addr(owner, piece.ilo,
                                                 col.jlo),
                                 src_addr + ci * col_bytes, col_bytes))
                yield from lapi.putv(owner, runs,
                                     org_cntr=self._org_cntr,
                                     cmpl_cntr=self.gen[owner].cntr)
                self.gen[owner].record("put")
                ops_issued += 1
            elif (op == GaOp.PUT
                  and nbytes >= self.gcfg.strided_rmc_threshold):
                # Large strided: per-column RMC (the 0.5 MB switch).
                col_bytes = piece.rows * ga.itemsize
                for ci, col in enumerate(piece.columns()):
                    tgt_addr = ga.element_addr(owner, piece.ilo, col.jlo)
                    yield from lapi.put(
                        owner, col_bytes, tgt_addr,
                        src_addr + ci * col_bytes,
                        org_cntr=self._org_cntr,
                        cmpl_cntr=self.gen[owner].cntr)
                    ops_issued += 1
                self.gen[owner].record("put", piece.cols)
            else:
                # Pipelined AM chunks.
                chunk = self.chunk_payload
                if op == GaOp.ACC and nbytes > self.gcfg.acc_large_threshold:
                    chunk = self.gcfg.pool_large_size
                sent = yield from self._send_chunks(
                    thread, ga, owner, piece, src_addr, nbytes, op,
                    alpha, chunk)
                ops_issued += sent
        # GA put/acc returns when the local buffer is reusable.  Small
        # operations fired the origin counter synchronously (internal
        # retransmit copy), so a cheap inline check usually suffices and
        # the full Waitcntr call is only paid when something is still
        # in flight.
        if ops_issued:
            if self._org_cntr.value >= ops_issued:
                yield from thread.execute(cfg.lapi_counter_update)
                self._org_cntr.set(self._org_cntr.value - ops_issued)
            else:
                yield from lapi.waitcntr(self._org_cntr, ops_issued)
        for addr in scratches:
            self.memory.free(addr)

    def _send_chunks(self, thread, ga, owner: int, piece: Section,
                     src_addr: int, nbytes: int, op: int, alpha: float,
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

    def _local_put_acc(self, thread, ga, piece: Section, local_addr: int,
                       section: Section, op: int,
                       alpha: float) -> Generator:
        cfg = self.config
        nbytes = piece.size * ga.itemsize
        blob = read_local_packed(self.memory, ga, section, piece,
                                 local_addr)
        if op == GaOp.PUT:
            yield from thread.execute(cfg.copy_cost(nbytes))
            scatter_packed_range(self.memory, ga, self.lapi.rank, piece,
                                 blob, 0)
        else:
            desc = Descriptor(op=GaOp.ACC, handle=ga.handle,
                              section=piece, total=nbytes, alpha=alpha)
            yield from self._apply_acc(thread, ga, desc, blob)

    # ------------------------------------------------------------------
    def get(self, ga: "GlobalArray", section: Section,
            local_addr: int) -> Generator:
        """Blocking GA get (the operation is blocking in GA)."""
        lapi = self.lapi
        sp = lapi.spans
        if sp is None:
            yield from self._get_body(ga, section, local_addr)
            return
        thread = lapi.current_thread()
        op_sid = sp.open(lapi.rank, "ga", "ga.get", lapi.sim.now,
                         parent=getattr(thread, "span_parent", None),
                         bytes=section.size * ga.itemsize)
        prev = getattr(thread, "span_parent", None)
        thread.span_parent = op_sid
        try:
            yield from self._get_body(ga, section, local_addr)
        finally:
            thread.span_parent = prev
            sp.close(op_sid, lapi.sim.now)

    def _get_body(self, ga: "GlobalArray", section: Section,
                  local_addr: int) -> Generator:
        lapi = self.lapi
        cfg = self.config
        thread = lapi.current_thread()
        yield from thread.execute(self.gcfg.ga_call_overhead)
        replies_expected = 0
        staged: list[tuple[Section, int, int]] = []  # piece, stage, len
        for owner, piece in ga.dist.locate(section):
            contig_local, loff = local_offset_of_piece(
                section, piece, ga.itemsize)
            nbytes = piece.size * ga.itemsize
            if owner == lapi.rank:
                yield from thread.execute(cfg.copy_cost(nbytes))
                blob = read_piece_packed(self.memory, ga, lapi.rank,
                                         piece)
                write_local_packed(self.memory, ga, section, piece,
                                   local_addr, blob)
                continue
            item = ga.itemsize
            rel = piece.relative_to(section)
            if ga.piece_is_contiguous(owner, piece) and contig_local:
                # Direct RMC straight into the user's buffer: zero
                # copies end to end (section 5.4's 1-D fast path).
                tgt_addr, _ = ga.piece_addr_len(owner, piece)
                yield from lapi.get(owner, nbytes, tgt_addr,
                                    local_addr + loff,
                                    org_cntr=self._reply_cntr)
                replies_expected += 1
            elif self.gcfg.use_vector_rmc:
                # Future-work path: one vector get, runs land directly
                # in the user's buffer.
                runs = []
                for ci, col in enumerate(piece.columns()):
                    dst = local_addr + ((rel.jlo + ci) * section.rows
                                        + rel.ilo) * item
                    runs.append((ga.element_addr(owner, piece.ilo,
                                                 col.jlo),
                                 dst, piece.rows * item))
                yield from lapi.getv(owner, runs,
                                     org_cntr=self._reply_cntr)
                replies_expected += 1
            elif (self.gcfg.get_strided_rmc_threshold is not None
                  and nbytes >= self.gcfg.get_strided_rmc_threshold):
                # The paper's 0.5MB switch: per-column gets into the
                # user buffer (opt-in; see GaConfig for why).
                for ci, col in enumerate(piece.columns()):
                    tgt_addr = ga.element_addr(owner, piece.ilo, col.jlo)
                    dst = local_addr + ((rel.jlo + ci) * section.rows
                                        + rel.ilo) * item
                    yield from lapi.get(owner, piece.rows * item,
                                        tgt_addr, dst,
                                        org_cntr=self._reply_cntr)
                    replies_expected += 1
            else:
                # AM request; the target puts the packed piece back.
                # When the piece occupies one run of the local buffer
                # the reply lands there directly; otherwise it goes via
                # a staging buffer and is scattered (the extra copy).
                if contig_local:
                    reply_addr = local_addr + loff
                else:
                    reply_addr = self.memory.malloc(nbytes)
                    staged.append((piece, reply_addr, nbytes))
                desc = Descriptor(op=GaOp.GET, handle=ga.handle,
                                  section=piece, total=nbytes,
                                  reply_addr=reply_addr,
                                  reply_cntr=self._reply_cntr.id)
                yield from lapi.amsend(owner, self._chunk_hid,
                                       desc.pack(), None, 0)
                replies_expected += 1
        if replies_expected:
            yield from lapi.waitcntr(self._reply_cntr, replies_expected)
        for piece, stage, nbytes in staged:
            yield from thread.execute(cfg.copy_cost(nbytes))
            blob = self.memory.read(stage, nbytes)
            write_local_packed(self.memory, ga, section, piece, local_addr,
                               blob)
            self.memory.free(stage)

    # ==================================================================
    # scatter / gather / read_inc / locks / sync
    # ==================================================================
    def scatter(self, ga: "GlobalArray", points: list[tuple[int, int]],
                values: np.ndarray) -> Generator:
        lapi = self.lapi
        thread = lapi.current_thread()
        yield from thread.execute(self.gcfg.ga_call_overhead)

        def local(idxs):
            blob = encode_scatter(points, values, idxs, ga.dtype)
            write_elements(self.memory, ga, lapi.rank, decode_scatter(blob))

        ops = 0
        step = self.gcfg.scatter_chunk_elems
        for owner, idxs in remote_groups(ga, points, lapi.rank, local):
            for s in range(0, len(idxs), step):
                group = idxs[s:s + step]
                blob = encode_scatter(points, values, group, ga.dtype)
                desc = Descriptor(op=GaOp.SCATTER, handle=ga.handle,
                                  section=ga.local_block,
                                  total=len(blob), aux=len(group))
                yield from lapi.amsend(owner, self._chunk_hid,
                                       desc.pack(), blob, len(blob),
                                       org_cntr=self._org_cntr,
                                       cmpl_cntr=self.gen[owner].cntr)
                self.gen[owner].record("scatter")
                ops += 1
        if ops:
            yield from lapi.waitcntr(self._org_cntr, ops)

    def gather(self, ga: "GlobalArray",
               points: list[tuple[int, int]]) -> Generator:
        lapi = self.lapi
        cfg = self.config
        thread = lapi.current_thread()
        yield from thread.execute(self.gcfg.ga_call_overhead)
        out = np.zeros(len(points), dtype=ga.dtype)

        def local(idxs):
            raw = read_elements(self.memory, ga, lapi.rank,
                                (points[k] for k in idxs))
            out[idxs] = np.frombuffer(raw, dtype=ga.dtype)

        pending: list[tuple[list[int], int]] = []
        step = self.gcfg.scatter_chunk_elems
        for owner, idxs in remote_groups(ga, points, lapi.rank, local):
            for s in range(0, len(idxs), step):
                group = idxs[s:s + step]
                blob = encode_gather(points, group)
                stage = self.memory.malloc(len(group) * ga.itemsize)
                desc = Descriptor(op=GaOp.GATHER, handle=ga.handle,
                                  section=ga.local_block,
                                  total=len(group) * ga.itemsize,
                                  reply_addr=stage,
                                  reply_cntr=self._reply_cntr.id,
                                  aux=len(group))
                yield from lapi.amsend(owner, self._chunk_hid,
                                       desc.pack(), blob, len(blob))
                pending.append((group, stage))
        if pending:
            yield from lapi.waitcntr(self._reply_cntr, len(pending))
        for group, stage in pending:
            yield from thread.execute(
                cfg.copy_cost(len(group) * ga.itemsize))
            out[group] = np.frombuffer(
                self.memory.read(stage, len(group) * ga.itemsize),
                dtype=ga.dtype)
            self.memory.free(stage)
        return out

    def read_inc(self, ga: "GlobalArray", point: tuple[int, int],
                 inc: int) -> Generator:
        """Atomic fetch-and-add on an int64 element via LAPI_Rmw."""
        from ..core import RmwOp
        if ga.dtype != np.int64:
            raise GaError("read_inc requires an int64 global array")
        lapi = self.lapi
        thread = lapi.current_thread()
        yield from thread.execute(self.gcfg.ga_call_overhead)
        i, j = point
        owner = ga.dist.owner_of(i, j)
        addr = ga.element_addr(owner, i, j)
        prev = yield from lapi.rmw_sync(RmwOp.FETCH_AND_ADD, owner,
                                        addr, inc)
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

    def sync(self) -> Generator:
        yield from self.fence()
        yield from self.lapi.gfence()

    def barrier(self) -> Generator:
        yield from self.lapi.gfence()

    def exchange(self, value) -> Generator:
        """Collective allgather used by create (address exchange)."""
        table = yield from self.lapi.address_init(value)
        return table
