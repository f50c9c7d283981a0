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

:mod:`.api` runs every GA call and applies every request at its owner
(:meth:`GlobalArrays.serve`).  This backend is the transport: it packs
the remote pieces, point groups and word operations into request
messages and completes them (``waitall``, or the reply receive),
carries requests to ``serve`` (the ``rcvncall`` handler, under the
handler lock) and replies back on ``ReservedTag.GA_REP``, and supplies
the critical section (:meth:`MplBackend.critical`: ``lockrnc``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

import numpy as np

from ..core.protocol import read_runs, write_runs
from ..errors import GaError
from ..mpl.constants import ReservedTag
from ..sim import SimLock
from .array import contiguous
from .sections import Section
from .wire import (DESCRIPTOR_SIZE, Descriptor, GaOp, encode_gather,
                   encode_scatter)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .api import GlobalArrays
    from .array import GlobalArray

__all__ = ["MplBackend"]


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
        self.mpl.rcvncall(ReservedTag.GA_REQ, self._request_handler)
        yield from self.mpl.barrier()

    def close(self) -> None:
        """Host-side release after :meth:`terminate`: MPL receives
        into message buffers, so this backend holds no node memory."""

    # ==================================================================
    # target side: the rcvncall request handler
    # ==================================================================
    def _request_handler(self, task, src, tag, blob):
        """Hand one GA request to the owner side (on a handler thread,
        after the MPL layer charged the rcvncall context creation) under
        the handler lock; replies go back by :meth:`_send_reply`."""
        thread = task.node.cpu.current_thread()
        lock = self._handler_lock
        if not lock.try_acquire(thread):
            yield from thread.wait(lock.acquire(owner=thread))
        try:
            # MPL progress rules force every reply through a message
            # buffer: GET packs unconditionally (the copy LAPI's
            # one-sided replies avoid).
            yield from self.runtime.serve(
                thread, src, Descriptor.unpack(blob),
                blob[DESCRIPTOR_SIZE:], self._send_reply)
        finally:
            lock.release()

    def _send_reply(self, thread, src: int, desc: Descriptor,
                    blob: bytes) -> Generator:
        yield from self.mpl.send(src, blob, len(blob), ReservedTag.GA_REP)

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
        yield from self.mpl.send(owner, msg, len(msg), ReservedTag.GA_REQ)
        reply = yield from self.mpl.recv_bytes(owner, ReservedTag.GA_REP)
        return reply

    def _post(self, thread, owner: int, desc: Descriptor,
              data: bytes) -> Generator:
        """Send one request that gets no reply; returns its send
        request."""
        blob = yield from self._pack_request(thread, desc, data)
        req = yield from self.mpl.isend(owner, blob, len(blob),
                                        ReservedTag.GA_REQ)
        self._issued[owner] = self._issued.get(owner, 0) + 1
        return req

    def store_piece(self, thread, ga: "GlobalArray", owner: int,
                    piece: Section, section: Section, local_addr: int,
                    op: int, alpha: float) -> Generator:
        """Send one remote put/acc piece as a single request message;
        returns its send request."""
        data = read_runs(self.memory,
                         ga.buffer_runs(section, piece, local_addr))
        desc = Descriptor(op=op, handle=ga.handle, section=piece,
                          offset=0, total=len(data), alpha=alpha)
        req = yield from self._post(thread, owner, desc, data)
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
        yield from mpl.send(owner, blob, len(blob), ReservedTag.GA_REQ)
        dst = ga.buffer_runs(section, piece, local_addr)
        if contiguous(ga.piece_runs(owner, piece)) and contiguous(dst):
            # 1-D fast path: post the receive straight onto the user's
            # buffer -- "the MPL implementation is able to avoid one
            # memory copy" (section 5.4).
            yield from mpl.recv(owner, ReservedTag.GA_REP, dst[0][0],
                                nbytes)
        else:
            # Strided replies go through the receive buffer and are
            # unpacked -- the extra copy the 1998 code paid on every
            # 2-D request.
            reply = yield from mpl.recv_bytes(owner, ReservedTag.GA_REP)
            yield from thread.execute(self.config.copy_cost(nbytes))
            write_runs(self.memory, dst, reply)

    def finish_get(self, thread, pending: list) -> Generator:
        """Nothing left: each piece's reply arrived as it was fetched."""
        yield from ()

    # ------------------------------------------------------------------
    def scatter_group(self, thread, ga: "GlobalArray", owner: int,
                      points: list, values, idxs: list[int]) -> Generator:
        """Send one owner's points as one request; returns its send
        request."""
        blob = encode_scatter(points, values, idxs, ga.dtype)
        desc = Descriptor(op=GaOp.SCATTER, handle=ga.handle,
                          section=ga.dist.block(owner), total=len(blob),
                          aux=len(idxs))
        req = yield from self._post(thread, owner, desc, blob)
        return req

    finish_scatter = finish_store

    def gather_group(self, thread, ga: "GlobalArray", owner: int,
                     points: list, out, idxs: list[int]) -> Generator:
        """Fetch one owner's points: a request, then its reply,
        unpacked into ``out``."""
        blob = encode_gather(points, idxs)
        desc = Descriptor(op=GaOp.GATHER, handle=ga.handle,
                          section=ga.dist.block(owner), total=len(blob),
                          aux=len(idxs))
        reply = yield from self._request(thread, owner, desc, blob)
        yield from thread.execute(
            self.config.copy_cost(len(idxs) * ga.itemsize))
        out[idxs] = np.frombuffer(reply, dtype=ga.dtype)

    def finish_gather(self, thread, pending: list, out) -> Generator:
        """Nothing left: each owner's reply arrived as it was fetched."""
        yield from ()

    def read_inc(self, thread, ga: "GlobalArray", owner: int, point,
                 inc: int) -> Generator:
        i, j = point
        desc = Descriptor(op=GaOp.READ_INC, handle=ga.handle,
                          section=Section(i, i, j, j), aux=inc)
        prev = yield from self._word(thread, owner, desc)
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
            prev = yield from self.runtime.word_here(thread, desc)
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
