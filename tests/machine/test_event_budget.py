"""Kernel events per operation, pinned exactly.

Each canonical 2-node job below runs a handful of operations of one
kind, in polling and in interrupt mode, and its total
``sim.events_processed`` *and* final ``sim.now`` are pinned.  Virtual
time must never move; the event count is the simulator's own cost per
operation (one kernel event per hardware or protocol step -- see
"Kernel events per operation" in docs/performance.md), so any later
drift in either direction is a reviewed change to this table, not
noise.  Three 64-node symmetric rings, one per topology, are pinned the
same way.
"""

import pytest

from repro.bench.scale import SCALE_SEED, scale_point
from repro.core.constants import RmwOp
from repro.machine import Cluster
from repro.sim import Event

ROUNDS = 4


def put_pingpong(task):
    lapi = task.lapi
    buf = task.memory.malloc(64)
    src = task.memory.malloc(64)
    ping = lapi.counter()
    pong = lapi.counter()
    yield from lapi.gfence()
    for _ in range(ROUNDS):
        if task.rank == 0:
            yield from lapi.put(1, 64, buf, src, tgt_cntr=ping.id)
            yield from lapi.waitcntr(pong, 1)
        else:
            yield from lapi.waitcntr(ping, 1)
            yield from lapi.put(0, 64, buf, src, tgt_cntr=pong.id)
    yield from lapi.gfence()


def amsend_handlers(task):
    lapi = task.lapi
    buf = task.memory.malloc(64)
    src = task.memory.malloc(64)
    done = lapi.counter()
    ran = []

    def header_handler(t, origin, uhdr, udata_len):
        def completion_handler(t2, info):
            ran.append(info)
        return buf, completion_handler, uhdr[0]

    hid = lapi.register_handler(header_handler)
    yield from lapi.gfence()
    if task.rank == 0:
        cmpl = lapi.counter()
        for i in range(ROUNDS):
            yield from lapi.amsend(1, hid, bytes([i]), src, 64,
                                   tgt_cntr=done.id, cmpl_cntr=cmpl)
            yield from lapi.waitcntr(cmpl, 1)
    else:
        yield from lapi.waitcntr(done, ROUNDS)
        assert ran == list(range(ROUNDS))
    yield from lapi.gfence()


def get_sync(task):
    lapi = task.lapi
    buf = task.memory.malloc(64)
    dst = task.memory.malloc(64)
    yield from lapi.gfence()
    if task.rank == 0:
        for _ in range(ROUNDS):
            yield from lapi.get_sync(1, 64, buf, dst)
    yield from lapi.gfence()


def rmw_sync(task):
    lapi = task.lapi
    word = task.memory.malloc(8)
    task.memory.write_i64(word, 0)
    yield from lapi.gfence()
    if task.rank == 0:
        for i in range(ROUNDS):
            prev = yield from lapi.rmw_sync(RmwOp.FETCH_AND_ADD, 1, word, 1)
            assert prev == i
    yield from lapi.gfence()


def put_64k(task):
    lapi = task.lapi
    n = 64 * 1024
    buf = task.memory.malloc(n)
    src = task.memory.malloc(n)
    tgt = lapi.counter()
    yield from lapi.gfence()
    if task.rank == 0:
        yield from lapi.put(1, n, buf, src, tgt_cntr=tgt.id)
        yield from lapi.fence()
    else:
        yield from lapi.waitcntr(tgt, 1)
    yield from lapi.gfence()


def satisfied_waitcntr(task):
    """``LAPI_Waitcntr`` on a counter that already holds the value: no
    event in either mode."""
    lapi = task.lapi
    cntr = lapi.counter()
    yield from lapi.gfence()
    cntr.add(1)
    yield from lapi.waitcntr(cntr, 1)
    assert cntr.value == 0
    yield from lapi.gfence()


def mpl_sendrecv(task):
    mpl = task.mpl
    yield from mpl.barrier()
    for _ in range(ROUNDS):
        if task.rank == 0:
            yield from mpl.send(1, b"x" * 64, 64, tag=1)
            yield from mpl.recv_bytes(1, tag=2)
        else:
            data = yield from mpl.recv_bytes(0, tag=1)
            yield from mpl.send(0, data, len(data), tag=2)
    yield from mpl.barrier()


def mpl_rcvncall_echo(task):
    mpl = task.mpl
    if task.rank == 1:
        def echo(t, origin, tag, data):
            yield from t.mpl.send(origin, data, len(data), tag=2)
        mpl.rcvncall(1, echo)
    yield from mpl.barrier()
    if task.rank == 0:
        for _ in range(ROUNDS):
            yield from mpl.send(1, b"y" * 64, 64, tag=1)
            yield from mpl.recv_bytes(1, tag=2)
    # Rank 1 sits in the barrier, which is where a polling task serves
    # its rcvncall traffic.
    yield from mpl.barrier()


#: (job, stack, interrupt_mode) -> (sim.events_processed, sim.now)
BUDGET = {
    (put_pingpong, "lapi", False): (179, 354.87807017543895),
    (put_pingpong, "lapi", True): (200, 512.8780701754388),
    (amsend_handlers, "lapi", False): (208, 308.0212280701756),
    (amsend_handlers, "lapi", True): (204, 467.2212280701755),
    (get_sync, "lapi", False): (188, 321.5040350877196),
    (get_sync, "lapi", True): (189, 476.7040350877195),
    (rmw_sync, "lapi", False): (172, 273.6988888888891),
    (rmw_sync, "lapi", True): (178, 411.1988888888891),
    (put_64k, "lapi", False): (772, 828.15461988304),
    (put_64k, "lapi", True): (827, 866.8384210526307),
    (satisfied_waitcntr, "lapi", False): (68, 101.19),
    (satisfied_waitcntr, "lapi", True): (82, 143.19),
    (mpl_sendrecv, "mpl", False): (194, 509.49140350877207),
    (mpl_sendrecv, "mpl", True): (215, 706.4914035087718),
    (mpl_rcvncall_echo, "mpl", False): (211, 900.2396491228064),
    (mpl_rcvncall_echo, "mpl", True): (216, 1051.2396491228064),
}


@pytest.mark.parametrize(
    "job,stack,interrupt_mode",
    [pytest.param(*key, id=f"{key[0].__name__}-"
                  f"{'interrupt' if key[2] else 'polling'}")
     for key in BUDGET])
def test_event_budget(job, stack, interrupt_mode):
    cluster = Cluster(nnodes=2, seed=1)
    cluster.run_job(job, stacks=(stack,), interrupt_mode=interrupt_mode)
    sim = cluster.sim
    assert (sim.events_processed, sim.now) == \
        BUDGET[job, stack, interrupt_mode]


def lapi_mix(task):
    yield from put_pingpong(task)
    yield from amsend_handlers(task)
    yield from get_sync(task)


@pytest.mark.parametrize("interrupt_mode", [False, True],
                         ids=["polling", "interrupt"])
@pytest.mark.parametrize("job,stack", [(lapi_mix, "lapi"),
                                       (mpl_sendrecv, "mpl")],
                         ids=["lapi", "mpl"])
def test_no_wait_builds_a_completed_event(monkeypatch, job, stack,
                                          interrupt_mode):
    """Every wait the model makes on a CPU lock, dispatch lock, TX
    credit, send window or GA mutex tries the primitive in place first
    and builds an event only to block, so no synchronously completed
    event is ever made."""
    calls = []
    completed = Event.completed.__func__

    def counted(cls, *args, **kwargs):
        calls.append(kwargs.get("name", ""))
        return completed(cls, *args, **kwargs)

    monkeypatch.setattr(Event, "completed", classmethod(counted))
    Cluster(nnodes=2, seed=1).run_job(job, stacks=(stack,),
                                      interrupt_mode=interrupt_mode)
    assert calls == []


#: topology -> (events, virtual_us) of ``scale_point(64, topology,
#: SCALE_SEED)``: a symmetric ring, where every node does the same thing
#: at the same float, so same-instant order moves virtual time here
#: while every 2-node job above stays put.  ``virtual_us`` is the final
#: ``sim.now`` as the record carries it (rounded to the picosecond).
RING_BUDGET = {
    "sp": (16513, 746.669399),
    "fattree": (16475, 688.910702),
    "dragonfly": (16571, 732.831666),
}


@pytest.mark.parametrize("topology", sorted(RING_BUDGET))
def test_symmetric_ring_budget(topology):
    record = scale_point(64, topology, SCALE_SEED)
    assert (record["events"], record["virtual_us"]) == RING_BUDGET[topology]
