"""The GA-on-MPL backend: the paper's previous implementation (5.2).

Remote access goes through MPL request messages that interrupt the
target and invoke a ``rcvncall`` message handler:

* **put/acc**: the request header and the data are *packed into one
  message* (MPL's in-order progress rules prevent separating them --
  section 5.4 -- so the sender pays a pack copy even for contiguous
  data); the handler copies the data out of the message buffer into
  the array (another copy);
* **get**: a request message interrupts the target (paying the AIX
  handler-context cost), the handler packs the data into a reply
  message (copy) which the origin unpacks (copy);
* **atomicity** of accumulate/read-inc uses ``lockrnc`` interrupt
  disabling plus the effectively single-threaded handler execution --
  exactly the mechanism section 5.2 describes;
* **fence** exploits per-source in-order request servicing: a flush
  request's reply proves all earlier requests from this origin were
  handled.

:mod:`.api` runs the GA call itself (the call charge, the span, the
owner loop and this rank's own piece); this backend issues the remote
pieces (:meth:`MplBackend.store_piece`, :meth:`MplBackend.get_piece`),
completes a put/acc with ``waitall`` and supplies the critical section
(:meth:`MplBackend.critical`: ``lockrnc``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

import numpy as np

from ..core.protocol import read_runs, write_runs
from ..errors import GaError
from ..sim import SimLock
from .array import contiguous
from .sections import Section
from .wire import (DESCRIPTOR_SIZE, GATHER_PAIR_SIZE, Descriptor, GaOp,
                   decode_gather, decode_scatter, encode_gather,
                   encode_scatter, read_elements, remote_groups,
                   write_elements)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .api import GlobalArrays
    from .array import GlobalArray

__all__ = ["MplBackend", "GA_REQ_TAG", "GA_REP_TAG"]

#: Reserved tags of the GA request/reply streams.
GA_REQ_TAG = -100
GA_REP_TAG = -101


class MplBackend:
    """rcvncall-based GA protocols over the MPL stack."""

    name = "mpl"

    def __init__(self, runtime: "GlobalArrays") -> None:
        self.runtime = runtime
        self.task = runtime.task
        self.mpl = runtime.task.mpl
        if self.mpl is None:
            raise GaError("GA MPL backend requires the MPL stack")
        self.config = runtime.config
        self.gcfg = runtime.gcfg
        self.memory = runtime.task.node.memory
        #: Serializes handler bodies: MPL handler execution is
        #: effectively single-threaded (section 5.2 relies on it).
        self._handler_lock: Optional[SimLock] = None
        #: Requests issued per target since the last fence.
        self._issued: dict[int, int] = {}

    # ------------------------------------------------------------------
    def init(self) -> Generator:
        self._handler_lock = SimLock(self.mpl.sim,
                                     name=f"ga{self.mpl.rank}.mplhdl")
        # MPL (the pre-MPI library GA originally used) buffers
        # non-blocking sends up to its internal buffer limit -- the
        # "much larger buffer space in MPL/MPI" of section 5.4 that
        # lets GA-MPL puts in the 1-20 KB band return sooner than
        # GA-LAPI's acknowledged transfers.  MP_EAGER_LIMIT is the
        # MPI-specific knob; raise the threshold to MPL's behaviour.
        self.mpl.eager_limit = max(self.mpl.eager_limit,
                                   self.config.mpl_send_buffer_limit)
        self.mpl.rcvncall(GA_REQ_TAG, self._request_handler)
        yield from self.mpl.barrier()

    def close(self) -> None:
        """Host-side release after :meth:`terminate`: MPL receives
        into message buffers, so this backend holds no node memory."""

    # ==================================================================
    # target side: the rcvncall request handler
    # ==================================================================
    def _request_handler(self, task, src, tag, blob):
        """Service one GA request (runs on a handler thread after the
        rcvncall context-creation cost was charged by the MPL layer)."""
        thread = task.node.cpu.current_thread()
        cfg = self.config
        lock = self._handler_lock
        if not lock.try_acquire(thread):
            yield from thread.wait(lock.acquire(owner=thread))
        try:
            desc = Descriptor.unpack(blob)
            data = blob[DESCRIPTOR_SIZE:]
            rank = self.mpl.rank
            if desc.op == GaOp.PUT:
                ga = self.runtime.array(desc.handle)
                yield from thread.execute(cfg.copy_cost(len(data)))
                write_runs(self.memory, ga.piece_runs(
                    rank, desc.section, desc.offset, len(data)), data)
            elif desc.op == GaOp.ACC:
                ga = self.runtime.array(desc.handle)
                runs = ga.piece_runs(rank, desc.section, desc.offset,
                                     len(data))
                # lockrnc guards against re-entry, as in section 5.2.
                yield from self.critical(
                    thread, cfg.daxpy_cost(len(data)),
                    lambda: ga.accumulate(self.memory, runs, data,
                                          desc.alpha))
            elif desc.op == GaOp.GET:
                ga = self.runtime.array(desc.handle)
                piece = desc.section
                nbytes = piece.size * ga.itemsize
                # MPL progress rules force the reply through a message
                # buffer: the handler packs unconditionally (the copy
                # LAPI's one-sided replies avoid).
                yield from thread.execute(cfg.copy_cost(nbytes))
                payload = read_runs(self.memory,
                                    ga.piece_runs(rank, piece))
                yield from self.mpl.send(src, payload, nbytes,
                                         GA_REP_TAG)
            elif desc.op in (GaOp.READ_INC, GaOp.LOCK_CAS):
                prev = yield from self._word_here(thread, desc)
                yield from self.mpl.send(
                    src, np.int64(prev).tobytes(), 8, GA_REP_TAG)
            elif desc.op == GaOp.FENCE:
                # Per-source in-order servicing: everything this origin
                # sent earlier has been handled; just confirm.
                yield from self.mpl.send(src, b"", 0, GA_REP_TAG)
            elif desc.op == GaOp.SCATTER:
                ga = self.runtime.array(desc.handle)
                yield from thread.execute(cfg.copy_cost(len(data)))
                write_elements(self.memory, ga, rank, decode_scatter(data))
            elif desc.op == GaOp.GATHER:
                ga = self.runtime.array(desc.handle)
                yield from thread.execute(cfg.copy_cost(
                    len(data) // GATHER_PAIR_SIZE * ga.itemsize))
                out = read_elements(self.memory, ga, rank,
                                    decode_gather(data))
                yield from self.mpl.send(src, out, len(out), GA_REP_TAG)
            else:
                raise GaError(f"unknown GA request {desc.op_name!r}")
        finally:
            lock.release()

    def critical(self, thread, cost: float, apply) -> Generator:
        """The critical section of section 5.2: ``apply()`` after
        ``mutex_cost + cost`` with interrupts masked by ``lockrnc``."""
        mpl = self.mpl
        mpl.lockrnc(True)
        try:
            yield from thread.execute(self.config.mutex_cost + cost)
            return apply()
        finally:
            mpl.lockrnc(False)

    def _word_here(self, thread, desc: Descriptor) -> Generator:
        """READ_INC (add ``aux``) or LOCK_CAS (``aux`` -> ``alpha``) on
        one of this rank's int64 words; returns the old value."""
        memory = self.memory
        if desc.op == GaOp.READ_INC:
            s = desc.section
            addr = self.runtime.array(desc.handle).element_addr(
                self.mpl.rank, s.ilo, s.jlo)
        else:
            addr = desc.reply_addr  # the lock word's local address

        def apply():
            prev = memory.read_i64(addr)
            if desc.op == GaOp.READ_INC:
                memory.write_i64(addr, prev + desc.aux)
            elif prev == desc.aux:
                memory.write_i64(addr, int(desc.alpha))
            return prev

        prev = yield from self.critical(thread, 0.5, apply)
        return prev

    # ==================================================================
    # origin side
    # ==================================================================
    def _pack_request(self, thread, desc: Descriptor,
                      data: bytes) -> Generator:
        """Pack header+data into one message (the unavoidable MPL
        sender-side copy of section 5.4); returns the blob."""
        cfg = self.config
        yield from thread.execute(cfg.copy_cost(DESCRIPTOR_SIZE
                                                + len(data)))
        return desc.pack() + data

    def _request(self, thread, owner: int, desc: Descriptor,
                 data: bytes = b"") -> Generator:
        """Send one request and return the bytes of its reply."""
        msg = yield from self._pack_request(thread, desc, data)
        yield from self.mpl.send(owner, msg, len(msg), GA_REQ_TAG)
        reply = yield from self.mpl.recv_bytes(owner, GA_REP_TAG)
        return reply

    def _count(self, owner: int) -> None:
        self._issued[owner] = self._issued.get(owner, 0) + 1

    def store_piece(self, thread, ga: "GlobalArray", owner: int,
                    piece: Section, section: Section, local_addr: int,
                    op: int, alpha: float) -> Generator:
        """Send one remote put/acc piece as a single request message;
        returns its send request."""
        data = read_runs(self.memory,
                         ga.buffer_runs(section, piece, local_addr))
        desc = Descriptor(op=op, handle=ga.handle, section=piece,
                          offset=0, total=len(data), alpha=alpha)
        blob = yield from self._pack_request(thread, desc, data)
        req = yield from self.mpl.isend(owner, blob, len(blob),
                                        GA_REQ_TAG)
        self._count(owner)
        return req

    def finish_store(self, thread, pending: list) -> Generator:
        """GA put returns when local buffers are reusable; the packed
        blob is already a private copy, so only transport completion
        of unbuffered sends gates us."""
        yield from self.mpl.waitall(pending)

    def get_piece(self, thread, ga: "GlobalArray", owner: int,
                  piece: Section, section: Section,
                  local_addr: int) -> Generator:
        """Fetch one remote piece: a request, then its reply."""
        mpl = self.mpl
        nbytes = piece.size * ga.itemsize
        desc = Descriptor(op=GaOp.GET, handle=ga.handle, section=piece,
                          total=nbytes)
        blob = yield from self._pack_request(thread, desc, b"")
        yield from mpl.send(owner, blob, len(blob), GA_REQ_TAG)
        dst = ga.buffer_runs(section, piece, local_addr)
        if contiguous(ga.piece_runs(owner, piece)) and contiguous(dst):
            # 1-D fast path: post the receive straight onto the user's
            # buffer -- "the MPL implementation is able to avoid one
            # memory copy" (section 5.4).
            yield from mpl.recv(owner, GA_REP_TAG, dst[0][0], nbytes)
        else:
            # Strided replies go through the receive buffer and are
            # unpacked -- the extra copy the 1998 code paid on every
            # 2-D request.
            reply = yield from mpl.recv_bytes(owner, GA_REP_TAG)
            yield from thread.execute(self.config.copy_cost(nbytes))
            write_runs(self.memory, dst, reply)

    def finish_get(self, thread, pending: list) -> Generator:
        """Nothing left: each piece's reply arrived as it was fetched."""
        yield from ()

    # ------------------------------------------------------------------
    def scatter(self, thread, ga: "GlobalArray", points,
                values) -> Generator:
        mpl = self.mpl

        def local(idxs):
            blob = encode_scatter(points, values, idxs, ga.dtype)
            write_elements(self.memory, ga, mpl.rank, decode_scatter(blob))

        requests = []
        for owner, idxs in remote_groups(ga, points, mpl.rank, local):
            blob = encode_scatter(points, values, idxs, ga.dtype)
            desc = Descriptor(op=GaOp.SCATTER, handle=ga.handle,
                              section=ga.local_block, total=len(blob),
                              aux=len(idxs))
            msg = yield from self._pack_request(thread, desc, blob)
            req = yield from mpl.isend(owner, msg, len(msg), GA_REQ_TAG)
            requests.append(req)
            self._count(owner)
        yield from mpl.waitall(requests)

    def gather(self, thread, ga: "GlobalArray", points) -> Generator:
        mpl = self.mpl
        out = np.zeros(len(points), dtype=ga.dtype)

        def local(idxs):
            raw = read_elements(self.memory, ga, mpl.rank,
                                (points[k] for k in idxs))
            out[idxs] = np.frombuffer(raw, dtype=ga.dtype)

        for owner, idxs in remote_groups(ga, points, mpl.rank, local):
            blob = encode_gather(points, idxs)
            desc = Descriptor(op=GaOp.GATHER, handle=ga.handle,
                              section=ga.local_block, total=len(blob),
                              aux=len(idxs))
            reply = yield from self._request(thread, owner, desc, blob)
            yield from thread.execute(
                self.config.copy_cost(len(idxs) * ga.itemsize))
            out[idxs] = np.frombuffer(reply, dtype=ga.dtype)
        return out

    def read_inc(self, thread, ga: "GlobalArray", point,
                 inc: int) -> Generator:
        i, j = point
        desc = Descriptor(op=GaOp.READ_INC, handle=ga.handle,
                          section=Section(i, i, j, j), aux=inc)
        prev = yield from self._word(thread, ga.dist.owner_of(i, j), desc)
        return prev

    def lock_cas(self, owner: int, addr: int) -> Generator:
        """One CAS attempt (0 -> 1) on a lock word."""
        desc = Descriptor(op=GaOp.LOCK_CAS, handle=-1,
                          section=Section(0, 0, 0, 0), alpha=1.0,
                          reply_addr=addr, aux=0)
        prev = yield from self._word(self.mpl.current_thread(), owner,
                                     desc)
        return prev == 0

    def unlock_swap(self, owner: int, addr: int) -> Generator:
        desc = Descriptor(op=GaOp.LOCK_CAS, handle=-1,
                          section=Section(0, 0, 0, 0), alpha=0.0,
                          reply_addr=addr, aux=1)
        yield from self._word(self.mpl.current_thread(), owner, desc)

    def _word(self, thread, owner: int, desc: Descriptor) -> Generator:
        """A word operation in place when this rank owns the word, else
        as a request; returns the old value."""
        if owner == self.mpl.rank:
            prev = yield from self._word_here(thread, desc)
            return prev
        reply = yield from self._request(thread, owner, desc)
        return int(np.frombuffer(reply, np.int64)[0])

    # ------------------------------------------------------------------
    def fence(self, *, ordering_only: bool = False) -> Generator:
        """Flush: in-order servicing makes one round trip per target
        with outstanding requests sufficient."""
        thread = self.mpl.current_thread()
        for owner in list(self._issued):
            count = self._issued.get(owner, 0)
            if count <= 0:
                continue
            self._issued[owner] = 0
            desc = Descriptor(op=GaOp.FENCE, handle=-1,
                              section=Section(0, 0, 0, 0), aux=count)
            yield from self._request(thread, owner, desc)

    def barrier(self) -> Generator:
        yield from self.mpl.barrier()

    def exchange(self, value) -> Generator:
        """Collective allgather used by create (address exchange)."""
        gathered = yield from self.mpl.allreduce(
            [(self.mpl.rank, value)], lambda a, b: a + b)
        table = dict(gathered)
        return [table[r] for r in range(self.mpl.size)]
