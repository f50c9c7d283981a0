"""Virtual time of the LAPI data paths, pinned exactly.

A 3-node job runs every data-message path once per rank, in polling
and in interrupt mode.  Each rank sends to the next rank (so every
rank is an origin and a target at once) and then to itself:

* put, get and amsend of 0 bytes, one packet, 4 096 bytes (the largest
  message LAPI copies into its retransmission buffers) and a larger
  multi-packet message, each without counters and with all the
  counters the call takes;
* Putv and Getv of many tiny runs (Getv's run list needs two request
  packets) and of runs that straddle packets;
* an amsend whose completion handler charges time.

After each operation, and after waiting for it to complete, every rank
records ``task.now()``; the expected times, each cluster's kernel
event count and every rank's ``lapi.stats`` are in
``virtual_time_pin.json``.  Regenerate it only for a change that moves
LAPI virtual time on purpose::

    PYTHONPATH=src python tests/core/test_virtual_time_pin.py
"""

import dataclasses
import json
import pathlib

import pytest

from repro.machine import Cluster
from repro.machine.config import SP_1998

PIN = pathlib.Path(__file__).with_name("virtual_time_pin.json")

PAYLOAD = SP_1998.lapi_payload
SIZES = (0, PAYLOAD, SP_1998.lapi_retrans_copy_limit, 3 * PAYLOAD * 4 + 17)
BUF = max(SIZES)
#: Run lists over a ``BUF``-byte window: ``(offset, nbytes)``.
TINY_RUNS = [(i * 64, 8) for i in range(50)]
STRADDLING_RUNS = [(100, PAYLOAD + 300), (3000, 2 * PAYLOAD + 5)]


def program(task):
    lapi = task.lapi
    mem = task.memory
    peer = (task.rank + 1) % task.size
    times = []

    def mark(label):
        times.append([label, task.now()])

    src = mem.malloc(BUF)
    dst = mem.malloc(BUF)
    mem.write(src, bytes(i % 251 for i in range(BUF)))
    org = lapi.counter("org")
    tgt = lapi.counter("tgt")
    cmpl = lapi.counter("cmpl")

    def hh(t, origin, uhdr, udata_len):
        return (dst if udata_len else None), None, None

    def cmpl_handler(t, info):
        yield from t.node.cpu.current_thread().execute(3.0)

    def hh_cmpl(t, origin, uhdr, udata_len):
        return dst, cmpl_handler, None

    hid = lapi.register_handler(hh)
    hid_cmpl = lapi.register_handler(hh_cmpl)
    yield from lapi.gfence()

    def complete(label, counters):
        """Wait for the operation just issued, then line ranks up."""
        for cntr in counters:
            yield from lapi.waitcntr(cntr, 1)
        yield from lapi.gfence()
        mark(f"{label} done")

    for where, target in (("peer", peer), ("self", task.rank)):
        for size in SIZES:
            for counted in (False, True):
                tag = f"{size} {where}{' cntrs' if counted else ''}"
                kw = ({"tgt_cntr": tgt.id, "org_cntr": org,
                       "cmpl_cntr": cmpl} if counted else {})
                yield from lapi.put(target, size, dst, src, **kw)
                mark(f"put {tag}")
                yield from complete(f"put {tag}",
                                    (org, cmpl, tgt) if counted else ())
                kw.pop("cmpl_cntr", None)
                yield from lapi.get(target, size, src, dst, **kw)
                mark(f"get {tag}")
                yield from complete(f"get {tag}",
                                    (org, tgt) if counted else ())
                kw = ({"tgt_cntr": tgt.id, "org_cntr": org,
                       "cmpl_cntr": cmpl} if counted else {})
                yield from lapi.amsend(target, hid, b"uhdr" * 4, src, size,
                                       **kw)
                mark(f"amsend {tag}")
                yield from complete(f"amsend {tag}",
                                    (org, cmpl, tgt) if counted else ())
        for name, runs in (("tiny", TINY_RUNS),
                           ("straddling", STRADDLING_RUNS)):
            tag = f"{name} {where}"
            putv = [(dst + off, src + off, n) for off, n in runs]
            yield from lapi.putv(target, putv, tgt_cntr=tgt.id,
                                 org_cntr=org, cmpl_cntr=cmpl)
            mark(f"putv {tag}")
            yield from complete(f"putv {tag}", (org, cmpl, tgt))
            getv = [(src + off, dst + off, n) for off, n in runs]
            yield from lapi.getv(target, getv, org_cntr=org)
            mark(f"getv {tag}")
            yield from complete(f"getv {tag}", (org,))
        yield from lapi.amsend(target, hid_cmpl, b"h", src, 2 * PAYLOAD,
                               tgt_cntr=tgt.id, cmpl_cntr=cmpl)
        mark(f"amsend cmpl_handler {where}")
        yield from complete(f"amsend cmpl_handler {where}", (cmpl, tgt))
    mark("end")
    return times, dataclasses.asdict(lapi.stats)


def measure(interrupt_mode):
    cluster = Cluster(nnodes=3, config=SP_1998, seed=1)
    results = cluster.run_job(program, stacks=("lapi",),
                              interrupt_mode=interrupt_mode)
    return {"events": cluster.sim.events_processed,
            "times": [times for times, _ in results],
            "stats": [stats for _, stats in results]}


MODES = {"interrupt": True, "polling": False}


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PIN.read_text())


@pytest.mark.parametrize("mode", sorted(MODES))
def test_lapi_virtual_time_is_pinned(mode, pinned):
    got = measure(MODES[mode])
    want = pinned[mode]
    for rank, (g, w) in enumerate(zip(got["times"], want["times"])):
        assert g == w, f"{mode}: rank {rank}"
    assert got["stats"] == want["stats"]
    assert got["events"] == want["events"]


if __name__ == "__main__":
    # One line per rank, so a moved time shows as a one-line diff.
    runs = []
    for mode in sorted(MODES):
        got = measure(MODES[mode])
        ranks = ",\n   ".join(json.dumps(t) for t in got["times"])
        stats = ",\n   ".join(json.dumps(s, sort_keys=True)
                              for s in got["stats"])
        runs.append(f' "{mode}": {{"events": {got["events"]},'
                    f' "times": [\n   {ranks}],'
                    f' "stats": [\n   {stats}]}}')
    PIN.write_text("{\n" + ",\n".join(runs) + "\n}\n")
