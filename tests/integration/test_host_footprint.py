"""Host memory a run pays for state it does not use.

numpy is a dependency of Global Arrays and the apps only: simulated
memory is bare mappings and random streams are pure Python, so a LAPI,
MPL or fault-injection run never imports numpy (about 13 MB of resident
memory), nor ``numpy.random`` -- not even one that draws routes or
fault dice -- while a GA job still loads it on demand.  Idle wait
queues and in-order duplicate filters cost next to nothing, so the
Python heap of a large job is what its nodes do, not one empty
``deque`` per semaphore and channel and one empty ``set`` per peer
that has talked.

The same rule holds for the repo's own modules: the bench harness, the
observability writers, the fault runtime and the process pool load when
a run first uses them, so a serial run with nothing armed imports none
of the paper's experiment runners.
"""

import os
import subprocess
import sys
import textwrap
import tracemalloc

import pytest

import repro
from repro.bench.scale import _ring_task, scale_config
from repro.machine import Cluster

MB = 1e6

_GUARD = textwrap.dedent("""
    import sys

    import repro.bench
    import repro.bench.chaos
    import repro.bench.scale
    import repro.core
    from repro.faults import FaultSchedule, GilbertElliott
    from repro.machine import Cluster

    def lapi_job(task):
        lapi = task.lapi
        buf = task.memory.malloc(4096)
        addrs = yield from lapi.address_init(buf)
        if task.rank == 0:
            yield from lapi.put_sync(1, 4096, addrs[1], buf)
        yield from lapi.gfence()

    def mpl_job(task):
        total = yield from task.mpl.allreduce(task.rank + 1,
                                              lambda a, b: a + b)
        yield from task.mpl.barrier()
        return total

    Cluster(nnodes=2).run_job(lapi_job, stacks=("lapi",))
    assert Cluster(nnodes=2).run_job(mpl_job, stacks=("mpl",)) == [3, 3]
    lossy = Cluster(nnodes=4, seed=31, faults=FaultSchedule(
        [GilbertElliott(loss_good=0.1)]))
    assert lossy.run_job(mpl_job, stacks=("mpl",)) == [10] * 4
    assert lossy.switch.packets_lost > 0, "the fault dice never fired"
    assert "numpy.random" not in sys.modules, "numpy.random was imported"
    assert "numpy" not in sys.modules, "numpy was imported"
    unused = {*(f"repro.bench.{name}" for name in (
                  "ablations", "apps", "bandwidth", "ga_putget",
                  "latency", "scaling", "table1")),
              "repro.ga.config",
              *(f"repro.obs.{name}" for name in (
                  "chrome", "export", "flight", "profile", "spans",
                  "timeline")),
              "multiprocessing"}
    loaded = sorted(unused & sys.modules.keys())
    assert not loaded, f"unused modules were imported: {loaded}"
""")

_FAULT_FREE = textwrap.dedent("""
    import sys

    import repro.faults
    from repro.machine import Cluster

    def lapi_job(task):
        yield from task.lapi.gfence()

    Cluster(nnodes=2).run_job(lapi_job, stacks=("lapi",))
    assert "repro.faults.runtime" not in sys.modules, \
        "a fault-free run imported the fault runtime"
    assert repro.faults.FaultRuntime.__module__ == "repro.faults.runtime"
""")

_EXPERIMENT_ON_DEMAND = textwrap.dedent("""
    import sys

    from repro.bench import ALL_EXPERIMENTS

    assert "repro.bench.latency" not in sys.modules, \
        "table2's module loaded with the package"
    result = ALL_EXPERIMENTS["table2"]()
    assert "repro.bench.latency" in sys.modules, "table2 ran without it"
    assert result.all_passed, result.render()
""")

_GA_ON_DEMAND = textwrap.dedent("""
    import struct
    import sys

    from repro.machine import Cluster

    N = 4 * 4

    def ga_job(task):
        ga, mem = task.ga, task.memory
        h = yield from ga.create((4, 4), name="A")
        buf = mem.malloc(8 * N)
        if task.rank == 0:
            mem.write(buf, struct.pack(f"<{N}d", *range(N)))
            yield from ga.put(h, (0, 3, 0, 3), buf)
        yield from ga.sync()
        yield from ga.get(h, (0, 3, 0, 3), buf)
        return struct.unpack(f"<{N}d", mem.read(buf, 8 * N))

    backend = sys.argv[1]
    assert "numpy" not in sys.modules, "numpy loaded before GA ran"
    got = Cluster(nnodes=2).run_job(ga_job, stacks=(backend,),
                                    ga_backend=backend)
    assert got == [tuple(float(k) for k in range(N))] * 2, got
    assert "numpy" in sys.modules, "GA ran without numpy"
""")


def _run(script: str, *args: str) -> None:
    """Run ``script`` with ``args`` in a fresh interpreter that imports
    this tree."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_jobs_never_import_numpy_random():
    """Importing everything a LAPI, MPL or fault-injection run uses
    (``repro.bench`` and its chaos and scale runners included), then
    running a LAPI job, an MPL job and a lossy job (which draws from the
    ``faults`` stream) leaves ``numpy`` and ``numpy.random``
    unimported, and with them every experiment runner but chaos and
    scale, ``repro.ga.config``, every observability writer and
    ``multiprocessing``."""
    _run(_GUARD)


def test_fault_free_job_never_imports_fault_runtime():
    """``repro.faults`` imported and a job run without a schedule leave
    ``FaultRuntime``'s module unloaded until the name is read."""
    _run(_FAULT_FREE)


def test_experiment_loads_its_module_on_demand():
    """``ALL_EXPERIMENTS["table2"]()`` imports ``repro.bench.latency``
    when it runs, not with the package, and its shape checks pass."""
    _run(_EXPERIMENT_ON_DEMAND)


@pytest.mark.parametrize("backend", ["lapi", "mpl"])
def test_ga_job_loads_numpy_on_demand(backend):
    """A 2-node GA put/get job imports numpy when it runs, not before,
    and reads back what it put."""
    _run(_GA_ON_DEMAND, backend)


def test_ring_job_heap_bound():
    """The Python heap of one 256-node sp ring job stays <= 11.0 MB.

    ``tracemalloc`` peak over building the cluster and running the job,
    after an 8-node warm-up: 12.31 MB (48.1 KB per node) with numpy's
    Generator, a ``deque`` per idle semaphore and channel and a ``set``
    per peer's duplicate filter; 10.08 MB (39.4 KB per node) with
    pure-Python streams, list wait queues and a shared empty filter.
    """
    cfg = scale_config("sp")
    Cluster(nnodes=8, config=cfg, seed=1998).run_job(
        _ring_task, stacks=("lapi",))
    tracemalloc.start()
    try:
        cluster = Cluster(nnodes=256, config=cfg, seed=1998)
        cluster.run_job(_ring_task, stacks=("lapi",))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cluster.sim.now > 0
    assert peak <= 11.0 * MB, f"heap peak {peak / MB:.2f} MB"
