"""MPL receive-side spans name the send that caused them.

A 2-node job with spans armed drives every receive path that records a
span: eager messages whose envelopes arrive out of order (a lossy
fabric retransmits some first packets), an unexpected message, a
rendezvous posted late and one posted early, and an ``rcvncall`` whose
handler replies.  Every span the receive side records for a message --
``match``, ``copy``, ``reorder_wait``, ``unexpected_wait``, the
``rcvncall`` handler -- and every packet phase of a rendezvous CTS must
have the sending ``mpl send`` operation span as its parent.
"""

from repro.faults import FaultSchedule, GilbertElliott
from repro.machine import Cluster
from repro.machine.config import SP_1998
from repro.obs import ObsSpec

EAGER = 2000
RNDV = SP_1998.mpl_eager_limit + 3 * SP_1998.mpl_payload + 5
BURST = 8


def program(task):
    mpl = task.mpl
    if task.rank == 1:
        def handler(t, src, tag, data):
            yield from t.mpl.send(src, data[:4], 4, 9)
        mpl.rcvncall(8, handler)
    yield from mpl.barrier()
    if task.rank == 0:
        reqs = []
        for _ in range(BURST):
            reqs.append((yield from mpl.isend(1, b"e" * EAGER, EAGER, 3)))
        reqs.append((yield from mpl.isend(1, b"u" * EAGER, EAGER, 4)))
        reqs.append((yield from mpl.isend(1, b"r" * RNDV, RNDV, 5)))
        yield from mpl.waitall(reqs)
        yield from mpl.barrier()
        yield from mpl.send(1, b"q" * RNDV, RNDV, 6)
        yield from mpl.send(1, b"c" * 64, 64, 8)
        reply = yield from mpl.recv_bytes(1, 9)
        assert reply == b"cccc"
    else:
        for _ in range(BURST):
            yield from mpl.recv_bytes(0, 3)
        # Tags 4 and 5 were sent before these receives were posted.
        yield from task.thread.sleep(500.0)
        assert (yield from mpl.recv_bytes(0, 4)) == b"u" * EAGER
        assert (yield from mpl.recv_bytes(0, 5)) == b"r" * RNDV
        yield from mpl.barrier()
        assert (yield from mpl.recv_bytes(0, 6)) == b"q" * RNDV
    yield from mpl.barrier()
    return mpl.ctx.match.envelopes_parked


def run():
    cluster = Cluster(nnodes=2, config=SP_1998, seed=1,
                      faults=FaultSchedule([GilbertElliott(loss_good=0.1)]),
                      obs=ObsSpec({"spans"}))
    parked = cluster.run_job(program, stacks=("mpl",))
    return parked, cluster.spans.records


RECV_PHASES = {"match", "copy", "reorder_wait", "unexpected_wait"}
CTS_PHASES = {"tx", "wire", "rx_dma", "dispatch"}


def test_receive_spans_parent_to_the_send():
    parked, records = run()
    assert parked[1] > 0
    by_sid = {s.sid: s for s in records}
    sends = {s.sid for s in records
             if (s.subsystem, s.op, s.phase) == ("mpl", "send", "op")}
    seen = {}
    for s in records:
        if s.subsystem != "mpl":
            continue
        if s.op == "recv" and s.phase in RECV_PHASES:
            if s.fields.get("unexpected"):
                # The receive call's own match of a queued message is
                # charged to the call.
                assert by_sid[s.parent].op == "recv"
                continue
            kind = s.phase
        elif s.op == "rcvncall":
            kind = "rcvncall"
        elif s.op == "cts" and s.phase in CTS_PHASES:
            kind = "cts " + s.phase
        else:
            continue
        assert s.parent in sends, (kind, s)
        send = by_sid[s.parent]
        assert send.node != s.node or kind.startswith("cts"), (kind, s)
        if kind == "copy" and not s.fields.get("early_arrival"):
            # A per-packet or stash-flush copy moves part of the message;
            # the early-arrival copy moves all of it (checked below).
            assert 0 < s.fields["bytes"] <= send.fields["bytes"], (kind, s)
        elif "bytes" in s.fields and not kind.startswith("cts"):
            assert send.fields["bytes"] == s.fields["bytes"], (kind, s)
        seen[kind] = seen.get(kind, 0) + 1
    assert set(seen) == RECV_PHASES | {"rcvncall"} | {
        "cts " + p for p in CTS_PHASES}, seen


def test_receive_spans_name_the_send_to_their_node():
    """Sequence numbers count per destination, so one rank's sends to
    two ranks share them; each receiver's spans name its own send."""
    def main(task):
        mpl = task.mpl
        if task.rank == 0:
            for dst in (1, 2):
                yield from mpl.send(dst, b"x" * 64, 64, 1)
        else:
            yield from mpl.recv_bytes(0, 1)
        yield from mpl.barrier()

    cluster = Cluster(nnodes=3, config=SP_1998, obs=ObsSpec({"spans"}))
    cluster.run_job(main, stacks=("mpl",))
    by_sid = {s.sid: s for s in cluster.spans.records}
    matches = [s for s in cluster.spans.records
               if (s.subsystem, s.op, s.phase) == ("mpl", "recv", "match")
               and not s.fields.get("unexpected")]
    assert len(matches) >= 2
    for s in matches:
        send = by_sid[s.parent]
        assert (send.op, send.phase, send.fields["dst"]) \
            == ("send", "op", s.node), s
