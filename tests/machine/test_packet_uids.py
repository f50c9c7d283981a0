"""Packet uid numbering is pinned: the uids on the wire, in order.

A data message takes its block of consecutive uids when it is issued and
packet *i* carries ``first + i``, however many acknowledgements the
receiver builds while the message streams.  Trace records, span side
tables and MPL's CTS ``reply_to`` all name packets by uid, so a change
to the numbering moves every trace and span artifact.  This test holds
it to the numbering captured at commit 7174aa0, when every message was
cut into packets as soon as it was issued.
"""

import hashlib

from repro.machine import Cluster
from repro.machine.config import SP_1998
from repro.obs import ObsSpec

#: sha256 of ``repr`` of the ``(uid, proto, kind, src, dst)`` list of
#: the job's adapter ``tx`` records, captured at commit 7174aa0.
PINNED = ("3cfcde18e2a4ce287b7645b11a52db3f"
          "1e849fa6457f6ba49b9c0c78e95d295b")

#: Three LAPI packets: two full payloads and a short tail.
LAPI_BYTES = 2 * SP_1998.lapi_payload + 100
UHDR = b"H" * 8
EAGER_BYTES = 1000
RNDV_BYTES = 2 * SP_1998.mpl_eager_limit


def _job(task):
    lapi, mpl, mem = task.lapi, task.mpl, task.memory
    src = mem.malloc(LAPI_BYTES)
    dst = mem.malloc(LAPI_BYTES)
    rbuf = mem.malloc(RNDV_BYTES)
    mem.view(src, LAPI_BYTES)[:] = task.rank + 1

    def hh(t, origin, uhdr, udata_len):
        return dst, None, None

    hid = lapi.register_handler(hh)
    addrs = yield from lapi.address_init(dst)
    if task.rank == 0:
        yield from lapi.put_sync(1, LAPI_BYTES, addrs[1], src)
        cmpl = lapi.counter()
        yield from lapi.amsend(1, hid, UHDR, src, LAPI_BYTES,
                               cmpl_cntr=cmpl)
        yield from lapi.waitcntr(cmpl, 1)
        yield from lapi.get_sync(1, LAPI_BYTES, addrs[1], dst)
    yield from lapi.gfence()
    if task.rank == 0:
        yield from mpl.send(1, src, EAGER_BYTES, tag=1)
        yield from mpl.send(1, rbuf, RNDV_BYTES, tag=2)
    else:
        yield from mpl.recv(0, 1, rbuf, EAGER_BYTES)
        yield from mpl.recv(0, 2, rbuf, RNDV_BYTES)
    yield from mpl.barrier()


def test_wire_uids_match_the_pinned_numbering():
    cluster = Cluster(nnodes=2, obs=ObsSpec(("trace",)))
    cluster.run_job(_job, stacks=("lapi", "mpl"))
    wire = [(r.fields["uid"], r.fields["proto"], r.fields["kind"],
             r.fields["src"], r.fields["dst"])
            for r in cluster.trace.records
            if r.category == "tx" and r.source.startswith("adapter")]
    kinds = {(proto, kind) for _, proto, kind, _, _ in wire}
    assert {("lapi", "data"), ("lapi", "get_req"), ("mpl", "data"),
            ("mpl", "rts"), ("mpl", "cts")} <= kinds
    assert len({uid for uid, *_ in wire}) == len(wire)
    digest = hashlib.sha256(repr(wire).encode()).hexdigest()
    assert digest == PINNED
