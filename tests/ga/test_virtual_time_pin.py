"""Virtual time of GA operations on both backends, pinned exactly.

A 4-node job (2 x 2 process grid over a 768 x 768 array) runs every
GA data path once per rank: each rank's sections cover its own block,
so every call has a local-owner piece beside its remote ones.  The
operations are put and get of a 1-D column, of a small strided section
(AM chunks on LAPI), and of a >= 512 KiB strided section (per-column
RMC puts); an accumulate above ``ACC_LARGE_THRESHOLD``; scatter,
gather, read_inc and lock/unlock.  LAPI runs the program three times:
with the default protocols, with the vector (Putv/Getv) extension, and
with the per-column get switch turned on.

After each operation every rank records ``task.now()``; the expected
times and each cluster's kernel event count are in
``virtual_time_pin.json``.  Regenerate it only for a change that moves
GA virtual time on purpose::

    PYTHONPATH=src python tests/ga/test_virtual_time_pin.py
"""

import json
import pathlib

import numpy as np
import pytest

from repro.ga import GA_DEFAULTS
from repro.machine import Cluster
from repro.machine.config import SP_1998

PIN = pathlib.Path(__file__).with_name("virtual_time_pin.json")

N = 768
HALF = N // 2
POINTS = [(0, 0), (HALF, 0), (0, HALF), (HALF, HALF), (N - 1, N - 1),
          (5, 700)]

CONFIGS = {
    "lapi": ("lapi", GA_DEFAULTS),
    "lapi_vector": ("lapi", GA_DEFAULTS.replace(use_vector_rmc=True)),
    "lapi_get_switch": ("lapi", GA_DEFAULTS.replace(
        get_strided_rmc_threshold=64)),
    "mpl": ("mpl", GA_DEFAULTS),
}


def program(task):
    ga = task.ga
    times = []

    def mark(label):
        times.append([label, task.now()])

    h = yield from ga.create((N, N), name="A")
    counters = yield from ga.create((4, 4), dtype=np.int64, name="C")
    yield from ga.create_mutexes(4)
    block = ga.distribution(h)
    sections = {
        "column": (0, N - 1, block.jlo, block.jlo),
        "chunked": (HALF - 3, HALF + 2, HALF - 3, HALF + 2),
        "large": (block.ilo + 1, block.ilo + 200, 0, N - 1),
    }
    for name, section in sections.items():
        buf = ga.alloc_local(section)
        yield from ga.put(h, section, buf)
        mark(f"put {name}")
        yield from ga.sync()
        yield from ga.get(h, section, buf)
        mark(f"get {name}")
        yield from ga.sync()
        ga.free_local(buf)
    section = (block.ilo + 1, block.ilo + 40, 0, N - 1)
    buf = ga.alloc_local(section)
    yield from ga.acc(h, section, buf, alpha=2.0)
    mark("acc large")
    ga.free_local(buf)
    yield from ga.sync()
    yield from ga.scatter(h, POINTS, [float(k) for k in range(len(POINTS))])
    mark("scatter")
    yield from ga.sync()
    yield from ga.gather(h, POINTS)
    mark("gather")
    yield from ga.sync()
    for point in ((0, 0), (3, 3)):
        yield from ga.read_inc(counters, point, 1)
        mark(f"read_inc {point}")
    yield from ga.sync()
    for mutex in (0, task.rank):
        yield from ga.lock(mutex)
        mark(f"lock {mutex}")
        yield from ga.unlock(mutex)
        mark("unlock")
    yield from ga.sync()
    mark("end")
    return times


def measure(name):
    backend, gcfg = CONFIGS[name]
    cluster = Cluster(nnodes=4, config=SP_1998, seed=1)
    times = cluster.run_job(program, ga_backend=backend, ga_config=gcfg)
    return {"events": cluster.sim.events_processed, "times": times}


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PIN.read_text())


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_ga_virtual_time_is_pinned(name, pinned):
    got = measure(name)
    want = pinned[name]
    for rank, (g, w) in enumerate(zip(got["times"], want["times"])):
        assert g == w, f"{name}: rank {rank}"
    assert got["events"] == want["events"]


if __name__ == "__main__":
    # One line per rank, so a moved time shows as a one-line diff.
    runs = []
    for name in sorted(CONFIGS):
        got = measure(name)
        ranks = ",\n   ".join(json.dumps(t) for t in got["times"])
        runs.append(f' "{name}": {{"events": {got["events"]},'
                    f' "times": [\n   {ranks}]}}')
    PIN.write_text("{\n" + ",\n".join(runs) + "\n}\n")
