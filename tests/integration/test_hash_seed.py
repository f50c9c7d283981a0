"""Exact results do not depend on the interpreter's hash seed.

String hashing is randomized per process (``PYTHONHASHSEED``), so a
model that iterated a set or dict of strings -- or ordered anything by
``hash()`` -- would give a different run in every process.  Each job
below runs in two fresh interpreters under different hash seeds, and
its virtual end time, processed-event count, failure-detector
convictions and rendered metrics must be equal.
"""

import json
import os
import subprocess
import sys
import textwrap

import repro

_JOBS = textwrap.dedent("""
    import json

    from repro.faults import FaultSchedule, NodeCrash
    from repro.machine import Cluster

    def crash_job(task):
        yield from task.lapi.gfence()
        yield from task.thread.sleep(4000.0)
        yield from task.lapi.gfence()
        return sorted(task.dead_peers)

    def round_trip(task):
        buf = task.memory.malloc(256)
        addrs = yield from task.lapi.address_init(buf)
        if task.rank == 0:
            yield from task.lapi.put_sync(1, 256, addrs[1], buf)
        yield from task.lapi.gfence()
        if task.rank == 0:
            yield from task.mpl.recv(1, 7, buf, 256)
        else:
            yield from task.mpl.send(0, buf, 256, 7)

    def record(cluster, results):
        res = cluster.resilience
        return {"now": cluster.sim.now,
                "events": cluster.sim.events_processed,
                "convictions": res.convictions if res else None,
                "results": repr(results),
                "metrics": cluster.metrics.render()}

    crash = Cluster(nnodes=3, faults=FaultSchedule(
        [NodeCrash(node=1, start=700.0)]))
    crashed = crash.run_job(crash_job, stacks=("lapi",),
                            until=500_000.0, on_peer_failure="continue")
    assert crash.resilience.convictions, "nobody was convicted"
    clean = Cluster(nnodes=2)
    trip = clean.run_job(round_trip, stacks=("lapi", "mpl"))
    print(json.dumps([record(crash, crashed), record(clean, trip)]))
""")


def _run(hash_seed: str) -> list:
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = hash_seed
    proc = subprocess.run([sys.executable, "-c", _JOBS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_exact_results_ignore_the_hash_seed():
    """A 3-node LAPI job that loses a node under ``"continue"`` and a
    fault-free 2-node LAPI+MPL round trip give identical records under
    ``PYTHONHASHSEED`` 0 and 12345."""
    a, b = _run("0"), _run("12345")
    assert a == b
    crash, _ = a
    assert crash["results"] == "[[1], TASK_CRASHED, [1]]"
