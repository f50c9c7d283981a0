"""The public Global Arrays interface.

One :class:`GlobalArrays` object per task provides the shared-memory
-style operations of section 5.1 over either communication backend:

===========================  ========================================
GA operation                 Method here
===========================  ========================================
GA_Create / GA_Destroy       :meth:`create` / :meth:`destroy`
GA_Put / GA_Get              :meth:`put` / :meth:`get` (+ ndarray
                             conveniences :meth:`put_ndarray` /
                             :meth:`get_ndarray`)
GA_Acc (atomic accumulate)   :meth:`acc` / :meth:`acc_ndarray`
GA_Scatter / GA_Gather       :meth:`scatter` / :meth:`gather`
GA_Read_inc                  :meth:`read_inc`
Mutexes (lock/unlock)        :meth:`create_mutexes`, :meth:`lock`,
                             :meth:`unlock`, :meth:`destroy_mutexes`
GA_Sync / GA_Fence           :meth:`sync` / :meth:`fence`
GA_Distribution / GA_Locate  :meth:`distribution` / :meth:`locate`
GA_Access (local block)      :meth:`access`
GA_Zero / GA_Fill            :meth:`zero` / :meth:`fill`
===========================  ========================================

The backends are transports only: this module resolves every operation's
owners, moves this rank's own part in place, and applies every request
at its owner (:meth:`GlobalArrays.serve`).

Local transfer buffers are *tightly packed column-major* images of the
section being moved, living in the node's simulated memory
(:meth:`alloc_local` / :meth:`free_local`).  The ndarray conveniences
wrap this for tests and small examples.

Memory-consistency semantics follow section 5.1: store operations
(put/acc) complete locally when the call returns (the local buffer is
reusable) but remotely only after a :meth:`fence`/:meth:`sync`;
operations touching non-overlapping sections may complete in any
order; accumulate is commutative, so its completion order is
unconstrained even for overlapping sections.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional, Sequence

import numpy as np

from ..core.protocol import read_runs, write_runs
from ..errors import GaError
from .array import GlobalArray
from .config import GA_DEFAULTS, GaConfig
from .distribution import BlockDistribution
from .sections import Section
from .wire import (GATHER_PAIR_SIZE, Descriptor, GaOp, decode_gather,
                   decode_scatter, read_elements, write_elements)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..machine.cluster import Task

__all__ = ["GlobalArrays"]

#: CPU cost of GA's own per-call work (argument checks, locate, address
#: arithmetic) before any communication is issued.
GA_CALL_OVERHEAD = 5.0
#: Initial backoff between remote lock retries (doubles per retry).
LOCK_BACKOFF = 4.0


class GlobalArrays:
    """Per-task Global Arrays runtime."""

    def __init__(self, task: "Task", backend: str = "lapi",
                 gcfg: GaConfig = GA_DEFAULTS) -> None:
        self.task = task
        self.config = task.node.config
        self.gcfg = gcfg
        self._arrays: dict[int, GlobalArray] = {}
        self._next_handle = 0
        self._mutex_addrs: list[tuple[int, int]] = []  # (owner, addr)
        self.spans = task.cluster.sim.spans
        if backend == "lapi":
            from .lapi_backend import LapiBackend
            self.backend = LapiBackend(self)
        elif backend == "mpl":
            from .mpl_backend import MplBackend
            self.backend = MplBackend(self)
        else:
            raise GaError(f"unknown GA backend {backend!r}")
        self._initialized = False

    def unlink(self) -> None:
        """Cut the cycles a running GA closes, once its cluster is
        dropped: it and its backend refer back to the task."""
        backend = self.backend
        self.task = backend.task = backend.runtime = None

    # shorthands ---------------------------------------------------------
    @property
    def rank(self) -> int:
        return self.task.rank

    @property
    def size(self) -> int:
        return self.task.size

    @property
    def memory(self):
        return self.task.node.memory

    def array(self, handle: int) -> GlobalArray:
        ga = self._arrays.get(handle)
        if ga is None:
            raise GaError(f"unknown global array handle {handle}")
        ga.check_live()
        return ga

    def _check_live(self) -> None:
        if not self._initialized:
            raise GaError("Global Arrays used before init")

    # ------------------------------------------------------------------
    # lifecycle (collective)
    # ------------------------------------------------------------------
    def init(self) -> Generator:
        yield from self.backend.init()
        self._initialized = True

    def terminate(self) -> Generator:
        """GA_Terminate: sync, then give back everything GA allocated.

        After the closing sync no task can touch this node's
        GA state any more, so the release is host-side only (no
        simulated cost): undestroyed arrays, mutex words and the
        backend's buffers are freed and the node's
        ``Memory.live_bytes`` returns to its pre-``GA_Init`` level.
        """
        if self._initialized:
            yield from self.sync()
            self._initialized = False
            for ga in self._arrays.values():
                if not ga.destroyed:
                    self._free_array(ga)
            self._arrays.clear()
            self._free_mutex_words()
            self.backend.close()

    def create(self, dims: tuple[int, int], dtype=np.float64,
               name: str = "", ghost_width: int = 0) -> Generator:
        """Collective: create a distributed 2-D array; returns handle.

        ``ghost_width > 0`` creates a ghost-cell array
        (GA_Create_ghosts): local storage is padded by a halo of that
        width, filled on demand by :meth:`update_ghosts`.
        """
        self._check_live()
        dt = np.dtype(dtype)
        if dt.itemsize != 8:
            raise GaError(
                f"GA model supports 8-byte element types, got {dt}")
        if ghost_width < 0:
            raise GaError(f"negative ghost width {ghost_width}")
        dist = BlockDistribution.create(dims, self.size)
        handle = self._next_handle
        self._next_handle += 1
        block = dist.block(self.rank)
        if block is not None:
            w = ghost_width
            nbytes = (block.rows + 2 * w) * (block.cols + 2 * w) \
                * dt.itemsize
        else:
            nbytes = 0
        local_addr = self.memory.malloc(max(nbytes, dt.itemsize))
        ga = GlobalArray(handle=handle, name=name or f"ga{handle}",
                         dims=dims, dtype=dt, dist=dist, rank=self.rank,
                         local_addr=local_addr,
                         ghost_width=ghost_width)
        ga.base_addrs = yield from self.backend.exchange(local_addr)
        self._arrays[handle] = ga
        yield from self.backend.barrier()
        return handle

    def duplicate(self, handle: int, name: str = "") -> Generator:
        """GA_Duplicate: create an array with the same shape, type,
        distribution, and ghost width (contents are NOT copied; use
        :meth:`copy_array`)."""
        src = self.array(handle)
        new = yield from self.create(src.dims, dtype=src.dtype,
                                     name=name or f"{src.name}.dup",
                                     ghost_width=src.ghost_width)
        return new

    def destroy(self, handle: int) -> Generator:
        """Collective: release an array."""
        ga = self.array(handle)
        yield from self.backend.barrier()
        self._free_array(ga)

    def _free_array(self, ga: GlobalArray) -> None:
        self.memory.free(ga.local_addr)
        ga.destroyed = True

    # ------------------------------------------------------------------
    # local buffers
    # ------------------------------------------------------------------
    def alloc_local(self, section) -> int:
        """Allocate a tight local buffer for ``section``'s data."""
        section = Section.of(section)
        return self.memory.malloc(section.size * 8)

    def free_local(self, addr: int) -> None:
        self.memory.free(addr)

    # ------------------------------------------------------------------
    # data movement (addr-based, the performance API)
    # ------------------------------------------------------------------
    def put(self, handle: int, section, local_addr: int) -> Generator:
        """Store ``section`` from a tight local buffer (one-sided)."""
        yield from self._data_call(handle, section, local_addr, GaOp.PUT)

    def get(self, handle: int, section, local_addr: int) -> Generator:
        """Fetch ``section`` into a tight local buffer (blocking)."""
        yield from self._data_call(handle, section, local_addr, GaOp.GET)

    def acc(self, handle: int, section, local_addr: int,
            alpha: float = 1.0) -> Generator:
        """Atomic accumulate: ``A[section] += alpha * local``."""
        yield from self._data_call(handle, section, local_addr, GaOp.ACC,
                                   alpha)

    def _data_call(self, handle: int, section, local_addr: int, op: int,
                   alpha: float = 1.0) -> Generator:
        self._check_live()
        ga = self.array(handle)
        section = ga.check_section(section)
        yield from self._in_span(
            op, section.size * ga.itemsize,
            self._pieces(ga, section, local_addr, op, alpha))

    def _in_span(self, op: int, nbytes: int, body: Generator) -> Generator:
        """Run one GA call's ``body`` inside its ``ga.<op>`` span: the
        transport operations it issues parent under it."""
        sp = self.spans
        if sp is None:
            return (yield from body)
        thread = self.task.node.cpu.current_thread()
        prev = getattr(thread, "span_parent", None)
        sid = sp.open(self.rank, "ga", f"ga.{GaOp.NAMES[op]}",
                      self.task.now(), parent=prev, bytes=nbytes)
        thread.span_parent = sid
        try:
            return (yield from body)
        finally:
            thread.span_parent = prev
            sp.close(sid, self.task.now())

    def _pieces(self, ga: GlobalArray, section: Section, local_addr: int,
                op: int, alpha: float) -> Generator:
        """The call charge, then every owner's piece in ``locate``
        order -- this rank's own piece in place, the others through the
        backend -- then the backend's completion of the remote ones."""
        backend = self.backend
        thread = yield from self._charge_call()
        pending = []
        for owner, piece in ga.dist.locate(section):
            if owner == self.rank:
                yield from self._local_piece(thread, ga, section, piece,
                                             local_addr, op, alpha)
            elif op == GaOp.GET:
                pending.append((yield from backend.get_piece(
                    thread, ga, owner, piece, section, local_addr)))
            else:
                pending.append((yield from backend.store_piece(
                    thread, ga, owner, piece, section, local_addr, op,
                    alpha)))
        if op == GaOp.GET:
            yield from backend.finish_get(thread, pending)
        else:
            yield from backend.finish_store(thread, pending)

    def _local_piece(self, thread, ga: GlobalArray, section: Section,
                     piece: Section, local_addr: int, op: int,
                     alpha: float) -> Generator:
        """Move this rank's own piece with one charged copy (or DAXPY
        inside the backend's accumulate critical section)."""
        memory = self.memory
        cfg = self.config
        mine = ga.piece_runs(self.rank, piece)
        local = ga.buffer_runs(section, piece, local_addr)
        nbytes = piece.size * ga.itemsize
        if op == GaOp.GET:
            yield from thread.execute(cfg.copy_cost(nbytes))
            write_runs(memory, local, read_runs(memory, mine))
        elif op == GaOp.PUT:
            yield from thread.execute(cfg.copy_cost(nbytes))
            write_runs(memory, mine, read_runs(memory, local))
        else:
            data = read_runs(memory, local)
            yield from self.backend.critical(
                thread, cfg.daxpy_cost(nbytes),
                lambda: ga.accumulate(memory, mine, data, alpha))

    def _charge_call(self) -> Generator:
        """Charge GA's own per-call work; returns the calling thread."""
        thread = self.task.node.cpu.current_thread()
        yield from thread.execute(GA_CALL_OVERHEAD)
        return thread

    # ------------------------------------------------------------------
    # ndarray conveniences (tests, examples)
    # ------------------------------------------------------------------
    def put_ndarray(self, handle: int, section, data) -> Generator:
        ga = self.array(handle)
        section = ga.check_section(section)
        arr = np.asarray(data, dtype=ga.dtype)
        if arr.shape != section.shape:
            raise GaError(
                f"data shape {arr.shape} != section shape"
                f" {section.shape}")
        addr = self.memory.malloc(arr.nbytes)
        self.memory.write(addr, arr.tobytes(order="F"))
        try:
            yield from self.put(handle, section, addr)
        finally:
            self.memory.free(addr)

    def get_ndarray(self, handle: int, section) -> Generator:
        ga = self.array(handle)
        section = ga.check_section(section)
        addr = self.memory.malloc(section.size * ga.itemsize)
        try:
            yield from self.get(handle, section, addr)
            blob = self.memory.read(addr, section.size * ga.itemsize)
        finally:
            self.memory.free(addr)
        return np.frombuffer(blob, dtype=ga.dtype).reshape(
            section.shape, order="F").copy()

    def acc_ndarray(self, handle: int, section, data,
                    alpha: float = 1.0) -> Generator:
        ga = self.array(handle)
        section = ga.check_section(section)
        arr = np.asarray(data, dtype=ga.dtype)
        if arr.shape != section.shape:
            raise GaError(
                f"data shape {arr.shape} != section shape"
                f" {section.shape}")
        addr = self.memory.malloc(arr.nbytes)
        self.memory.write(addr, arr.tobytes(order="F"))
        try:
            yield from self.acc(handle, section, addr, alpha)
        finally:
            self.memory.free(addr)

    # ------------------------------------------------------------------
    # element operations
    # ------------------------------------------------------------------
    def scatter(self, handle: int, points: Sequence[tuple[int, int]],
                values) -> Generator:
        """Write listed elements (irregular access, section 5.1)."""
        self._check_live()
        ga = self.array(handle)
        vals = np.asarray(values, dtype=ga.dtype)
        if vals.shape != (len(points),):
            raise GaError(f"scatter needs one value per point: values of"
                          f" shape {vals.shape} for {len(points)} points")
        self._check_points(ga, points, "scatter")
        yield from self._in_span(GaOp.SCATTER, vals.nbytes, self._points(
            ga, list(points), GaOp.SCATTER, vals))

    def gather(self, handle: int,
               points: Sequence[tuple[int, int]]) -> Generator:
        """Read listed elements; returns a 1-D array of values."""
        self._check_live()
        ga = self.array(handle)
        self._check_points(ga, points, "gather")
        out = np.zeros(len(points), dtype=ga.dtype)
        yield from self._in_span(GaOp.GATHER, out.nbytes, self._points(
            ga, list(points), GaOp.GATHER, out))
        return out

    def _points(self, ga: GlobalArray, points: list, op: int,
                vals: np.ndarray) -> Generator:
        """The call charge, then every owner's points (SCATTER writes
        ``vals``, GATHER fills it) in first-seen order -- this rank's
        own in place, the others through the backend -- then the
        backend's completion."""
        backend = self.backend
        scatter = op == GaOp.SCATTER
        thread = yield from self._charge_call()
        by_owner: dict[int, list[int]] = {}
        for k, (i, j) in enumerate(points):
            by_owner.setdefault(ga.dist.owner_of(i, j), []).append(k)
        pending = []
        for owner, idxs in by_owner.items():
            if owner != self.rank:
                group = (backend.scatter_group if scatter
                         else backend.gather_group)
                pending.append((yield from group(thread, ga, owner, points,
                                                 vals, idxs)))
            elif scatter:
                write_elements(self.memory, ga, owner,
                               ((*points[k], vals[k].tobytes())
                                for k in idxs))
            else:
                vals[idxs] = np.frombuffer(read_elements(
                    self.memory, ga, owner, (points[k] for k in idxs)),
                    dtype=ga.dtype)
        if scatter:
            yield from backend.finish_scatter(thread, pending)
        else:
            yield from backend.finish_gather(thread, pending, vals)

    @staticmethod
    def _check_points(ga: GlobalArray, points, what: str) -> None:
        full = ga.full_section()
        for i, j in points:
            if not full.contains_point(i, j):
                raise GaError(f"{what} point ({i},{j}) out of range")

    def read_inc(self, handle: int, point: tuple[int, int],
                 inc: int = 1) -> Generator:
        """Atomic read-and-increment of an int64 element."""
        self._check_live()
        ga = self.array(handle)
        if not ga.full_section().contains_point(*point):
            raise GaError(f"read_inc point {point} out of range")
        if ga.dtype != np.int64:
            raise GaError("read_inc requires an int64 global array")
        thread = yield from self._charge_call()
        prev = yield from self.backend.read_inc(
            thread, ga, ga.dist.owner_of(*point), point, inc)
        return prev

    # ------------------------------------------------------------------
    # the owner side: every request a backend delivers to this rank
    # ------------------------------------------------------------------
    def serve(self, thread, src: int, desc: Descriptor, data: bytes,
              reply) -> Generator:
        """Apply one GA request from ``src`` at its owner, this rank:
        charge the copy (or DAXPY in the backend's ``critical``
        section), touch the array, and answer through the backend's
        ``reply(thread, src, desc, blob)``."""
        memory = self.memory
        cfg = self.config
        op = desc.op
        if op == GaOp.FENCE:
            # Each origin's requests are served in order: everything it
            # sent earlier has been handled; just confirm.
            yield from reply(thread, src, desc, b"")
            return
        if op in (GaOp.READ_INC, GaOp.LOCK_CAS):
            prev = yield from self.word_here(thread, desc)
            yield from reply(thread, src, desc, np.int64(prev).tobytes())
            return
        ga = self.array(desc.handle)
        rank = self.rank
        if op == GaOp.PUT:
            yield from thread.execute(cfg.copy_cost(len(data)))
            write_runs(memory, ga.piece_runs(rank, desc.section,
                                             desc.offset, len(data)), data)
        elif op == GaOp.ACC:
            runs = ga.piece_runs(rank, desc.section, desc.offset,
                                 len(data))
            yield from self.backend.critical(
                thread, cfg.daxpy_cost(len(data)),
                lambda: ga.accumulate(memory, runs, data, desc.alpha))
        elif op == GaOp.GET:
            piece = desc.section
            # Pack the piece (one copy at the owner) and send it back.
            yield from thread.execute(cfg.copy_cost(piece.size
                                                    * ga.itemsize))
            yield from reply(thread, src, desc,
                             read_runs(memory, ga.piece_runs(rank, piece)))
        elif op == GaOp.SCATTER:
            yield from thread.execute(cfg.copy_cost(len(data)))
            write_elements(memory, ga, rank, decode_scatter(data))
        elif op == GaOp.GATHER:
            yield from thread.execute(cfg.copy_cost(
                len(data) // GATHER_PAIR_SIZE * ga.itemsize))
            yield from reply(thread, src, desc, read_elements(
                memory, ga, rank, decode_gather(data)))
        else:
            raise GaError(f"unknown GA request {desc.op_name!r}")

    def word_here(self, thread, desc: Descriptor) -> Generator:
        """READ_INC (add ``aux``) or LOCK_CAS (``aux`` -> ``alpha``) on
        one of this rank's int64 words inside the backend's critical
        section; returns the old value."""
        memory = self.memory
        if desc.op == GaOp.READ_INC:
            s = desc.section
            addr = self.array(desc.handle).element_addr(self.rank, s.ilo,
                                                        s.jlo)
        else:
            addr = desc.reply_addr  # the lock word's local address

        def apply():
            prev = memory.read_i64(addr)
            if desc.op == GaOp.READ_INC:
                memory.write_i64(addr, prev + desc.aux)
            elif prev == desc.aux:
                memory.write_i64(addr, int(desc.alpha))
            return prev

        prev = yield from self.backend.critical(thread, 0.5, apply)
        return prev

    # ------------------------------------------------------------------
    # mutexes
    # ------------------------------------------------------------------
    def create_mutexes(self, count: int) -> Generator:
        """Collective: create ``count`` global mutexes."""
        self._check_live()
        if count < 1:
            raise GaError("need at least one mutex")
        if self._mutex_addrs:
            raise GaError("mutexes already exist (destroy_mutexes"
                          " first)")
        mine = [i for i in range(count) if i % self.size == self.rank]
        local = {}
        for i in mine:
            addr = self.memory.malloc(8)
            self.memory.write_i64(addr, 0)
            local[i] = addr
        tables = yield from self.backend.exchange(local)
        for i in range(count):
            owner = i % self.size
            self._mutex_addrs.append((owner, tables[owner][i]))
        yield from self.backend.barrier()

    def destroy_mutexes(self) -> Generator:
        """Collective (GA_Destroy_mutexes): release every mutex."""
        self._check_live()
        if not self._mutex_addrs:
            raise GaError("no mutexes to destroy (create_mutexes"
                          " first)")
        yield from self.backend.barrier()  # no lock/unlock in flight
        self._free_mutex_words()

    def _free_mutex_words(self) -> None:
        """Free the lock words this rank owns and forget the table."""
        for owner, addr in self._mutex_addrs:
            if owner == self.rank:
                self.memory.free(addr)
        self._mutex_addrs = []

    def lock(self, mutex: int) -> Generator:
        """Acquire a global mutex (spin with exponential backoff)."""
        self._check_live()
        owner, addr = self._mutex(mutex)
        thread = self.task.node.cpu.current_thread()
        backoff = LOCK_BACKOFF
        while True:
            ok = yield from self.backend.lock_cas(owner, addr)
            if ok:
                return
            yield from thread.sleep(backoff)
            backoff = min(backoff * 2, 512.0)

    def unlock(self, mutex: int) -> Generator:
        self._check_live()
        owner, addr = self._mutex(mutex)
        yield from self.backend.unlock_swap(owner, addr)

    def _mutex(self, mutex: int) -> tuple[int, int]:
        if not (0 <= mutex < len(self._mutex_addrs)):
            raise GaError(f"mutex {mutex} does not exist"
                          " (create_mutexes first)")
        return self._mutex_addrs[mutex]

    # ------------------------------------------------------------------
    # synchronization & locality
    # ------------------------------------------------------------------
    def sync(self) -> Generator:
        """Collective barrier + completion of all outstanding stores."""
        self._check_live()
        yield from self.backend.fence()
        yield from self.backend.barrier()

    def fence(self, *, ordering_only: bool = False) -> Generator:
        """Complete this task's outstanding store operations."""
        self._check_live()
        yield from self.backend.fence(ordering_only=ordering_only)

    def distribution(self, handle: int, rank: Optional[int] = None
                     ) -> Section:
        """The block owned by ``rank`` (default: me)."""
        ga = self.array(handle)
        return ga.dist.block(self.rank if rank is None else rank)

    def locate(self, handle: int, section) -> list[tuple[int, Section]]:
        """Owners of a section: full locality information (5.1)."""
        ga = self.array(handle)
        return ga.dist.locate(ga.check_section(section))

    def access(self, handle: int) -> np.ndarray:
        """Zero-copy Fortran-order view of my local block."""
        return self.array(handle).local_view(self.memory)

    def access_ghosts(self, handle: int) -> np.ndarray:
        """Zero-copy view of my block *including* its ghost halo."""
        return self.array(handle).ghost_view(self.memory)

    def update_ghosts(self, handle: int) -> Generator:
        """GA_Update_ghosts: fill the halo from neighbouring blocks.

        Collective.  Each task fetches the (boundary-clipped) ring
        around its block with one-sided gets -- corners included, since
        the ring rectangles span whatever owners they intersect -- and
        writes it into the padded local storage.  Two barriers bracket
        the exchange so halos reflect a consistent global state.
        """
        self._check_live()
        ga = self.array(handle)
        w = ga.ghost_width
        if w == 0:
            raise GaError(
                f"array {ga.name!r} was created without ghost cells")
        yield from self.backend.barrier()  # writers done before reads
        block = ga.local_block
        if block is not None:
            n, m = ga.dims
            gv = self.access_ghosts(handle)
            thread = self.task.node.cpu.current_thread()
            jlo = max(block.jlo - w, 0)
            jhi = min(block.jhi + w, m - 1)
            regions = []
            if block.ilo > 0:  # top strip (with corners)
                regions.append(Section(max(block.ilo - w, 0),
                                       block.ilo - 1, jlo, jhi))
            if block.ihi < n - 1:  # bottom strip (with corners)
                regions.append(Section(block.ihi + 1,
                                       min(block.ihi + w, n - 1),
                                       jlo, jhi))
            if block.jlo > 0:  # left strip
                regions.append(Section(block.ilo, block.ihi,
                                       max(block.jlo - w, 0),
                                       block.jlo - 1))
            if block.jhi < m - 1:  # right strip
                regions.append(Section(block.ilo, block.ihi,
                                       block.jhi + 1,
                                       min(block.jhi + w, m - 1)))
            base_i = block.ilo - w
            base_j = block.jlo - w
            for sec in regions:
                patch = yield from self.get_ndarray(handle, sec)
                yield from thread.execute(
                    self.config.copy_cost(patch.nbytes))
                oi = sec.ilo - base_i
                oj = sec.jlo - base_j
                gv[oi:oi + sec.rows, oj:oj + sec.cols] = patch
        yield from self.backend.barrier()

    # ------------------------------------------------------------------
    # whole-array collective operations (GA_Scale, GA_Add, ...)
    # ------------------------------------------------------------------
    def scale(self, handle: int, alpha: float) -> Generator:
        """GA_Scale: multiply the whole array by ``alpha``."""
        self._check_live()
        from . import elemops
        yield from elemops.scale(self, handle, alpha)

    def add(self, c_handle: int, a_handle: int, b_handle: int,
            alpha: float = 1.0, beta: float = 1.0) -> Generator:
        """GA_Add: ``C = alpha*A + beta*B`` (aligned arrays)."""
        self._check_live()
        from . import elemops
        yield from elemops.add(self, c_handle, a_handle, b_handle,
                               alpha, beta)

    def copy_array(self, src_handle: int, dst_handle: int) -> Generator:
        """GA_Copy: ``B = A`` (aligned arrays)."""
        self._check_live()
        from . import elemops
        yield from elemops.copy(self, src_handle, dst_handle)

    def dot(self, a_handle: int, b_handle: int) -> Generator:
        """GA_Ddot: global ``sum(A*B)``; same value on every task."""
        self._check_live()
        from . import elemops
        result = yield from elemops.dot(self, a_handle, b_handle)
        return result

    def symmetrize(self, handle: int) -> Generator:
        """GA_Symmetrize: ``A = (A + A^T)/2`` for a square array."""
        self._check_live()
        from . import elemops
        yield from elemops.symmetrize(self, handle)

    # ------------------------------------------------------------------
    # whole-array helpers
    # ------------------------------------------------------------------
    def zero(self, handle: int) -> Generator:
        yield from self.fill(handle, 0)

    def fill(self, handle: int, value) -> Generator:
        """Collective: every task fills its own block."""
        self._check_live()
        ga = self.array(handle)
        if ga.local_block is not None:
            thread = self.task.node.cpu.current_thread()
            view = self.access(handle)
            yield from thread.execute(
                self.config.copy_cost(view.nbytes))
            view[...] = value
        yield from self.backend.barrier()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<GlobalArrays rank={self.rank}/{self.size}"
                f" backend={self.backend.name}"
                f" arrays={len(self._arrays)}>")

