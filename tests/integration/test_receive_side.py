"""Both stacks record their receive side through the same code.

The endpoint's dispatcher charges every receive-side copy and records
its ``copy`` span, stashes payloads that outrace their message's first
packet, flushes them, and traces every packet it dispatches -- for
LAPI and MPL alike.  So an MPL receive's copy spans add up to the copy
time it was charged, on the direct path, the early-arrival path and
the stash-and-flush path, and each stack's dispatch trace records
match the packets it processed.
"""

import pytest

from repro.machine import Cluster
from repro.machine.config import SP_1998, MachineConfig
from repro.obs import ObsSpec

#: Eager sends that stream from the user buffer (no send-side copy),
#: so every copy a job charges is a receive-side one at rank 1.
EAGER_DIRECT = SP_1998.replace(mpl_eager_limit=16384,
                               mpl_send_buffer_limit=0)
NBYTES = 6000


def _one_message(late: float, nbytes: int = NBYTES):
    """Rank 0 sends one eager message to rank 1, which posts its
    receive ``late`` us after the barrier (the send goes 100 us after
    it)."""
    def main(task):
        mpl = task.mpl
        yield from mpl.barrier()
        if task.rank == 0:
            yield from task.thread.sleep(100.0)
            data = bytes(i % 251 for i in range(nbytes))
            yield from mpl.send(1, data, nbytes, 3)
        else:
            yield from task.thread.sleep(late)
            data = yield from mpl.recv_bytes(0, 3)
        yield from mpl.barrier()
        return data

    return main


def _recv_copies(cluster, monkeypatch, main):
    """Run ``main``; returns the job's result, the copy time charged
    during it and its ``mpl``/``recv``/``copy`` spans."""
    charged = []
    copy_cost = MachineConfig.copy_cost

    def counting(cfg, n):
        charged.append(copy_cost(cfg, n))
        return charged[-1]

    with monkeypatch.context() as mp:
        mp.setattr(MachineConfig, "copy_cost", counting)
        result = cluster.run_job(main, stacks=("mpl",))
    spans = [s for s in cluster.spans.records
             if (s.subsystem, s.op, s.phase) == ("mpl", "recv", "copy")]
    return result, sum(charged), spans


@pytest.mark.parametrize("path, late, seed, jitter", [
    ("direct", 0.0, 0, 0.0),
    ("early_arrival", 500.0, 0, 0.0),
    ("stash_flush", 0.0, 14, 50.0),
])
def test_mpl_receive_copy_spans_add_up_to_the_copy_time_charged(
        monkeypatch, path, late, seed, jitter):
    cfg = EAGER_DIRECT.replace(switch_group_size=1, route_jitter=jitter)
    cluster = Cluster(nnodes=2, config=cfg, seed=seed,
                      obs=ObsSpec({"spans"}))
    (sent, got), charged, spans = _recv_copies(
        cluster, monkeypatch, _one_message(late))
    assert got == sent
    assert charged > 0
    # One receive: every copy span is rank 1's and names the one send.
    assert {(s.node, s.parent) for s in spans} == {(1, spans[0].parent)}
    assert sum(s.t1 - s.t0 for s in spans) == pytest.approx(charged,
                                                            abs=1e-9)
    marks = {k for s in spans for k in s.fields if k != "bytes"}
    assert marks == {"direct": set(), "early_arrival": {"early_arrival"},
                     "stash_flush": {"stash_flush"}}[path]


def test_dispatch_trace_records_match_packets_processed():
    """With the tracer armed, every packet either stack's dispatcher
    processes leaves one ``dispatch`` record under its stack's name."""
    tasks = []

    def main(task):
        tasks.append(task)
        lapi, mpl = task.lapi, task.mpl
        peer = 1 - task.rank
        buf = task.memory.malloc(4096)
        yield from lapi.gfence()
        yield from lapi.put(peer, 4096, buf, buf)
        yield from lapi.gfence()
        yield from mpl.send(peer, b"x" * 3000, 3000, 1)
        yield from mpl.recv_bytes(peer, 1)
        yield from mpl.barrier()

    cluster = Cluster(nnodes=2, obs=ObsSpec({"trace"}))
    cluster.run_job(main, stacks=("lapi", "mpl"))
    for task in tasks:
        for stack in ("lapi", "mpl"):
            source = f"{stack}{task.rank}"
            records = [r for r in cluster.trace.records
                       if r.source == source and r.category == stack
                       and r.message.startswith("dispatch ")]
            processed = getattr(task, stack).stats.packets_processed
            assert processed > 0
            assert len(records) == processed, source
