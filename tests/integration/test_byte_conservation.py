"""Bytes are conserved: on a fault-free job every byte a stack counts as
sent is counted as received where it is placed, whether the target is a
peer or the sender itself."""

import pytest

from repro.machine import Cluster

SIZES = [1, 900, 4096, 10_000]


def _lapi_job(task):
    lapi = task.lapi
    nbytes = max(SIZES)
    src = task.memory.malloc(nbytes)
    dst = task.memory.malloc(nbytes)
    task.memory.write(src, bytes(i % 251 for i in range(nbytes)))
    hid = lapi.register_handler(lambda t, s, uhdr, n: (dst, None, None))
    yield from lapi.gfence()
    for peer in (task.rank, (task.rank + 1) % task.size):
        for n in SIZES:
            yield from lapi.put(peer, n, dst, src)
            yield from lapi.amsend(peer, hid, b"h", src, n)
            yield from lapi.gfence()
    return lapi.stats.bytes_sent, lapi.stats.bytes_received


def _mpl_job(task):
    mpl = task.mpl
    nbytes = max(SIZES)
    src = task.memory.malloc(nbytes)
    dst = task.memory.malloc(nbytes)
    task.memory.write(src, bytes(i % 251 for i in range(nbytes)))
    for peer in (task.rank, (task.rank + 1) % task.size):
        frm = (task.rank - (peer - task.rank)) % task.size
        for n in SIZES:
            req = yield from mpl.irecv(frm, 5, dst, nbytes)
            yield from mpl.send(peer, src, n, 5)
            yield from mpl.wait(req)
    yield from mpl.barrier()
    return mpl.stats.bytes_sent, mpl.stats.bytes_received


@pytest.mark.parametrize("stack, job, ops", [("lapi", _lapi_job, 2),
                                             ("mpl", _mpl_job, 1)])
def test_bytes_sent_equal_bytes_received(stack, job, ops):
    """Puts and active messages, or sends, from one byte to several
    packets (a rendezvous on MPL), to the next rank and to self: summed
    over ranks, sent == received."""
    results = Cluster(nnodes=3).run_job(job, stacks=(stack,))
    sent = sum(s for s, _ in results)
    assert sent == 3 * 2 * ops * sum(SIZES)
    assert sum(r for _, r in results) == sent
