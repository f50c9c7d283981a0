"""Interrupt-mode waits wake only when they can end.

A task blocked in ``Endpoint.wait_for`` (fence, gfence, ``rmw_sync``,
MPL ``wait``/``waitall``...) sleeps on its stack's progress wait set,
which is notified on every ack, counter change and dispatcher batch.
The wait is gated on its own predicate, so a notify that does not
complete it leaves it asleep: every ``wait:*.progress`` event the kernel
fires resumes a waiter whose predicate holds.  A wait also wakes when
the stack stops taking interrupts underneath it, so it can go on
polling.
"""

import pytest

from repro.core.endpoint import Endpoint
from repro.errors import MachineError
from repro.machine import Cluster
from repro.sim.kernel import _fire_event

NBYTES = 64 * 1024
UNTIL = 50_000.0


class _ProgressWakes:
    """Kernel-event sink: checks each fired progress wait against the
    predicate its waiter is blocked on."""

    def __init__(self, monkeypatch):
        self.fired = 0
        self.spurious = []
        self.blocked = {}  # process -> predicate of its wait_for
        inner = Endpoint.wait_for
        blocked = self.blocked

        def wait_for(endpoint, predicate):
            process = endpoint.current_thread().process
            blocked[process] = predicate
            try:
                yield from inner(endpoint, predicate)
            finally:
                del blocked[process]

        monkeypatch.setattr(Endpoint, "wait_for", wait_for)

    def kernel_event(self, when, fn, arg):
        if fn is not _fire_event or not arg.name.endswith(".progress"):
            return
        self.fired += 1
        for resume in arg.callbacks:
            if not self.blocked[resume.__self__]():
                self.spurious.append((when, arg.name))


def _run(monkeypatch, job, stacks):
    cluster = Cluster(nnodes=2, seed=1)
    sink = _ProgressWakes(monkeypatch)
    cluster.sim.trace = sink
    cluster.run_job(job, stacks=stacks, interrupt_mode=True, until=UNTIL)
    return sink


def lapi_put_fences(task):
    lapi = task.lapi
    window = task.memory.malloc(NBYTES)
    src = task.memory.malloc(NBYTES)
    yield from lapi.gfence()
    yield from lapi.put(1 - task.rank, NBYTES, window, src)
    yield from lapi.fence()
    yield from lapi.gfence()


def mpl_waits(task):
    mpl = task.mpl
    peer = 1 - task.rank
    buf = task.memory.malloc(NBYTES)
    src = task.memory.malloc(NBYTES)
    recv = yield from mpl.irecv(peer, 1, buf, NBYTES)
    send = yield from mpl.isend(peer, src, NBYTES, 1)
    yield from mpl.wait(recv)
    yield from mpl.wait(send)
    reqs = []
    for tag in (2, 3):
        reqs.append((yield from mpl.irecv(peer, tag, buf, 1024)))
        reqs.append((yield from mpl.isend(peer, src, 1024, tag)))
    yield from mpl.waitall(reqs)


@pytest.mark.parametrize("job,stacks", [(lapi_put_fences, ("lapi",)),
                                        (mpl_waits, ("mpl",))],
                         ids=["lapi", "mpl"])
def test_every_progress_wake_finds_its_predicate_true(monkeypatch, job,
                                                      stacks):
    sink = _run(monkeypatch, job, stacks)
    assert sink.fired > 0, "expected waits that block"
    assert sink.spurious == []


def _flip_mode_under_a_waiter(task, flip, block):
    """Rank 0 blocks in ``block`` while a second thread on its node
    ``flip``s the stack out of interrupt mode; rank 1 sends what rank 0
    waits for only later, when nothing raises an interrupt for it."""
    def flipper(thread):
        yield from thread.execute(0.5)
        flip()

    if task.rank == 0:
        task.node.cpu.spawn(flipper, name="flipper")
        yield from block()
    else:
        yield from task.thread.sleep(300.0)
        yield from block()


def test_lapi_wait_falls_back_to_polling_when_interrupts_go_off():
    def main(task):
        lapi = task.lapi
        yield from _flip_mode_under_a_waiter(
            task, lambda: lapi.set_interrupt_mode(False), lapi.gfence)
        return lapi.interrupt_mode

    cluster = Cluster(nnodes=2, seed=1)
    modes = cluster.run_job(main, stacks=("lapi",), interrupt_mode=True,
                            until=UNTIL)
    assert modes == [False, True]


def test_mpl_wait_falls_back_to_polling_under_lockrnc():
    def main(task):
        mpl = task.mpl
        peer = 1 - task.rank
        buf = task.memory.malloc(1024)
        recv = yield from mpl.irecv(peer, 1, buf, 1024)

        def block():
            send = yield from mpl.isend(peer, b"x" * 64, 64, 1)
            yield from mpl.wait(recv)
            yield from mpl.wait(send)

        yield from _flip_mode_under_a_waiter(
            task, lambda: mpl.lockrnc(True), block)
        if task.rank == 0:
            mpl.lockrnc(False)
        return recv.complete

    cluster = Cluster(nnodes=2, seed=1)
    done = cluster.run_job(main, stacks=("mpl",), interrupt_mode=True,
                           until=UNTIL)
    assert done == [True, True]


def _lapi_amsend_to(target):
    def start(task, ran):
        lapi = task.lapi

        def hh(t, src, uhdr, udata_len):
            def ch(t2, info):
                yield from t2.lapi.current_thread().sleep(1_000.0)
                ran.append(t2.rank)
            return None, ch, None

        hid = lapi.register_handler(hh)
        if task.rank == 0:
            yield from lapi.amsend(target, hid, b"h")
        return lapi
    return start


def _mpl_rcvncall(task, ran):
    mpl = task.mpl

    def handler(t, src, tag, data):
        yield from t.mpl.current_thread().sleep(1_000.0)
        ran.append(t.rank)

    mpl.rcvncall(42, handler)
    yield from mpl.barrier()
    if task.rank == 0:
        yield from mpl.send(1, b"req", 3, tag=42)
    return mpl


@pytest.mark.parametrize("stack,start,target", [
    ("lapi", _lapi_amsend_to(0), 0),
    ("lapi", _lapi_amsend_to(1), 1),
    ("mpl", _mpl_rcvncall, 1),
], ids=["lapi-local-amsend", "lapi-remote-amsend", "mpl-rcvncall"])
def test_term_waits_out_a_completion_handler(stack, start, target):
    """Every caller of the one handler runner: a completion handler
    (LAPI's, for an active message to self or to a peer, or an MPL
    ``rcvncall``) outlasts the closing barrier, and ``term`` waits for
    it.  The runner's notify comes after the handler leaves the active
    count, so the gated wait sees zero and ends."""
    ran = []
    endpoints = []

    def main(task):
        endpoint = yield from start(task, ran)
        endpoints.append(endpoint)
        yield from endpoint.barrier()
        return endpoint.ctx.active_handlers

    cluster = Cluster(nnodes=2, seed=1)
    left = cluster.run_job(main, stacks=(stack,), interrupt_mode=True,
                           until=UNTIL)
    assert left == [int(rank == target) for rank in range(2)]
    assert ran == [target]
    assert [e.ctx.active_handlers for e in endpoints] == [0, 0]


def test_a_stopped_job_names_the_wait_a_notify_would_end():
    """A flag set by a bare ``call_at``, with no notify after it, never
    wakes the interrupt-mode wait on it.  The job runs out of budget,
    and the error names the wait set and the predicate the waiter gave
    ``wait_for``."""
    flag = []

    def flag_is_set():
        return bool(flag)

    def main(task):
        task.cluster.sim.call_at(task.now() + 100.0, flag.append, True)
        yield from task.lapi.wait_for(flag_is_set)

    cluster = Cluster(nnodes=2, seed=1)
    with pytest.raises(MachineError, match="virtual-time budget") as err:
        cluster.run_job(main, ntasks=1, stacks=("lapi",),
                        interrupt_mode=True, until=UNTIL)
    assert flag == [True]
    assert ("waits whose condition holds: lapi0.progress: "
            + flag_is_set.__qualname__) in str(err.value)


def test_waitcntr_falls_back_to_polling_when_interrupts_go_off():
    """Rank 0 sits in ``waitcntr`` when a second thread on its node
    turns interrupts off; nothing else it waits for notifies its stack
    before the put that fills the counter, which now raises no
    interrupt.  The mode switch itself must wake the waiter so that it
    polls."""
    def main(task):
        lapi = task.lapi
        buf = task.memory.malloc(64)
        cntr = lapi.counter()
        start = task.now()
        if task.rank == 1:
            yield from task.thread.sleep(100.0)
            yield from lapi.put(0, 64, buf, buf, tgt_cntr=cntr.id)
            return None

        def flipper(thread):
            yield from thread.sleep(10.0)
            lapi.set_interrupt_mode(False)

        task.node.cpu.spawn(flipper, name="flipper")
        yield from lapi.waitcntr(cntr, 1)
        return task.now() - start, cntr.value

    cluster = Cluster(nnodes=2, seed=1)
    results = cluster.run_job(main, stacks=("lapi",), interrupt_mode=True,
                              until=UNTIL)
    assert results[0] == (pytest.approx(132.274, abs=1e-3), 0)


def test_polling_fence_after_a_dataless_amsend_returns():
    """Both ranks send each other a data-less active message and fence
    in polling mode.  The ack that empties a rank's fence lands at the
    adapter while the rank is still paying ``poll_check_cost``; its
    notify wakes nobody, so ``poll_step`` must re-read the fence's
    condition before it parks on an RX FIFO that stays empty."""
    def main(task):
        lapi = task.lapi
        buf = task.memory.malloc(64)
        hid = lapi.register_handler(lambda t, src, uhdr, n:
                                    (buf, None, None))
        yield from lapi.gfence()
        yield from lapi.amsend(1 - task.rank, hid, b"uhdr", None, 0)
        yield from lapi.fence()
        return task.now()

    cluster = Cluster(nnodes=2, seed=1)
    done = cluster.run_job(main, stacks=("lapi",), interrupt_mode=False,
                           until=UNTIL)
    assert done == [pytest.approx(77.24, abs=5e-3)] * 2


def test_lockrnc_wakes_an_interrupt_mode_wait():
    """Rank 0 sits in an interrupt-mode ``wait`` when a helper thread
    masks interrupts with ``lockrnc(True)``; rank 1's message arrives
    only later and raises no interrupt.  Masking must wake the waiter
    so that it polls, or it sleeps past ``until``."""
    def main(task):
        mpl = task.mpl
        buf = task.memory.malloc(64)
        start = task.now()
        if task.rank == 1:
            yield from task.thread.sleep(100.0)
            send = yield from mpl.isend(0, b"x" * 64, 64, 1)
            yield from mpl.wait(send)
            return None

        def masker(thread):
            yield from thread.sleep(10.0)
            mpl.lockrnc(True)

        recv = yield from mpl.irecv(1, 1, buf, 64)
        task.node.cpu.spawn(masker, name="masker")
        yield from mpl.wait(recv)
        return task.now() - start

    cluster = Cluster(nnodes=2, seed=1)
    results = cluster.run_job(main, stacks=("mpl",), interrupt_mode=True,
                              until=UNTIL)
    assert results[0] == pytest.approx(142.72, abs=5e-3)
