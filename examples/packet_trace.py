#!/usr/bin/env python
"""Observability: trace a one-sided transfer packet by packet.

Arms the ``trace`` artifact of :class:`repro.obs.ObsSpec` (a
:class:`repro.sim.Tracer` on every adapter and the switch) and runs a
single multi-packet LAPI put, then prints the adapter/switch timeline,
the cluster's unified metrics registry (``repro.obs``), and a sample of
the structured JSONL trace export -- the view an SP operator's
monitoring tools would give, and the first tool to reach for when
debugging a protocol change in this code base.

Run:  python examples/packet_trace.py [--obs-out DIR]
(``--obs-out`` writes the packet records to ``DIR/trace.jsonl.gz``.)
"""

import os
import sys

from repro.machine import Cluster
from repro.obs import ARTIFACTS, ObsSpec, jsonl_lines, write_trace_jsonl


def main(task):
    lapi = task.lapi
    mem = task.memory
    n = 3000  # three packets' worth
    window = mem.malloc(n)
    done = lapi.counter()
    yield from lapi.gfence()
    if task.rank == 0:
        src = mem.malloc(n)
        mem.write(src, bytes(i % 251 for i in range(n)))
        yield from lapi.put(1, n, window, src, cmpl_cntr=done)
        yield from lapi.waitcntr(done, 1)
    yield from lapi.gfence()
    return lapi.stats.packets_processed


if __name__ == "__main__":
    cluster = Cluster(nnodes=2, obs=ObsSpec({"trace"}))
    processed = cluster.run_job(main, stacks=("lapi",))
    packets = [r for r in cluster.trace.records
               if r.category in ("tx", "rx", "route")]

    print("=== packet timeline (tx/rx/route events) ===")
    for record in packets:
        print(record)


    print()
    print("=== unified metrics (repro.obs) ===")
    print(cluster.metrics.render())

    print()
    print("=== structured trace export (first 5 JSONL records) ===")
    for line in list(jsonl_lines(packets))[:5]:
        print(line)

    if "--obs-out" in sys.argv:
        out_dir = sys.argv[sys.argv.index("--obs-out") + 1]
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, ARTIFACTS["trace"].filename)
        n = write_trace_jsonl(packets, path)
        print(f"\nwrote {n} trace records to {path}")

    print()
    print(f"dispatcher packets processed per rank: {processed}")
