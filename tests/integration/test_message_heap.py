"""A message in flight costs one data snapshot plus a window of packets.

Each sender reads a message's bytes once, when the call is issued, and
cuts packet *i* from that snapshot just before it sends it; the
reliable transport keeps at most a send window of packets for
retransmission.  So the Python heap a 4 MiB transfer needs is the 4 MiB
snapshot and a bounded remainder, not a ``Packet`` object per 1 KiB of
message.  Simulated memory is mapped, not allocated on the Python heap,
so ``tracemalloc`` sees only the snapshot and the packets.  A strided
transfer (``putv``/``getv``) is no different: its snapshot is its runs'
bytes, concatenated.
"""

import tracemalloc

import pytest

from repro.machine import Cluster

N = 4 << 20
MIB = 1 << 20
#: Strided transfers move RUN-byte runs at a 2 * RUN stride remotely.
RUN = 4 << 10


def _strided(task, kind, n, remote, local):
    """One putv/getv of ``n`` bytes: contiguous at ``local``, RUN-byte
    runs at a 2 * RUN stride from ``remote`` on rank 1."""
    lapi = task.lapi
    cntr = lapi.counter()
    runs = [(remote + 2 * off, local + off, RUN)
            for off in range(0, n, RUN)]
    if kind == "lapi_putv":
        yield from lapi.putv(1, runs, cmpl_cntr=cntr)
    else:
        yield from lapi.getv(1, runs, org_cntr=cntr)
    yield from lapi.waitcntr(cntr, 1)


def _job(kind, n):
    strided = kind in ("lapi_putv", "lapi_getv")
    span = 2 * n if strided else n
    # The last byte the receiving rank gets.
    last = 2 * n - RUN - 1 if kind == "lapi_putv" else n - 1

    def main(task):
        mem = task.memory
        src = mem.malloc(span)
        dst = mem.malloc(span)
        mem.view(src, span)[:] = task.rank + 1
        if kind == "mpl_rndv":
            if task.rank == 0:
                yield from task.mpl.send(1, src, n, tag=1)
            else:
                yield from task.mpl.recv(0, 1, dst, n)
            yield from task.mpl.barrier()
        else:
            addrs = yield from task.lapi.address_init(
                dst if kind in ("lapi_put", "lapi_putv") else src)
            if task.rank == 0:
                if kind == "lapi_put":
                    yield from task.lapi.put_sync(1, n, addrs[1], src)
                elif kind == "lapi_get":
                    yield from task.lapi.get_sync(1, n, addrs[1], dst)
                elif kind == "lapi_putv":
                    yield from _strided(task, kind, n, addrs[1], src)
                else:
                    yield from _strided(task, kind, n, addrs[1], dst)
            yield from task.lapi.gfence()
        return mem.read(dst, 1), mem.read(dst + last, 1)
    return main


@pytest.mark.parametrize("kind", ["lapi_put", "lapi_get", "mpl_rndv",
                                  "lapi_putv", "lapi_getv"])
def test_a_message_costs_one_snapshot_plus_a_window(kind):
    stacks = ("mpl",) if kind == "mpl_rndv" else ("lapi",)
    # A small job first, so modules the job path imports lazily are not
    # counted against the message.
    Cluster(nnodes=2).run_job(_job(kind, 64 << 10), stacks=stacks,
                              interrupt_mode=False)
    tracemalloc.start()
    try:
        cluster = Cluster(nnodes=2)
        tracemalloc.reset_peak()
        results = cluster.run_job(_job(kind, N), stacks=stacks,
                                  interrupt_mode=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The receiving rank holds the sender's bytes end to end.
    receiver = 0 if kind in ("lapi_get", "lapi_getv") else 1
    sender = 1 - receiver
    byte = bytes([sender + 1])
    assert results[receiver] == (byte, byte)
    assert peak < N + MIB, f"{kind}: heap peak {peak / MIB:.2f} MiB"
