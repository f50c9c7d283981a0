"""Differential oracle: one GA program, the same arrays on every backend.

Hypothesis generates race-free programs of put, acc, scatter, get,
gather and read_inc on 3-4 nodes, over a small float64 array and an
int64 counter array, and each runs on LAPI and MPL, in interrupt and in
polling mode.  The four runs must leave the same arrays and read the
same values, and those must equal a sequential model of the program.

Race-free means: epochs are separated by ``sync``; within an epoch no
element is stored twice (put and scatter are stores), stored and
accumulated, or read (get, gather) and written.  Accumulated values and
their ``alpha`` are small integers, so sums are exact in any order.
``read_inc`` returns depend on arrival order and are not compared; the
counters' final values are.
"""

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.machine import Cluster

COUNTER_DIMS = (4, 4)
RUNS = [("lapi", True), ("lapi", False), ("mpl", True), ("mpl", False)]


def _section(draw, dims):
    rows, cols = dims
    ilo = draw(st.integers(0, rows - 1))
    jlo = draw(st.integers(0, cols - 1))
    return (ilo, draw(st.integers(ilo, rows - 1)),
            jlo, draw(st.integers(jlo, cols - 1)))


def _elements(section):
    ilo, ihi, jlo, jhi = section
    return {(i, j) for i in range(ilo, ihi + 1) for j in range(jlo, jhi + 1)}


def _shape(section):
    ilo, ihi, jlo, jhi = section
    return ihi - ilo + 1, jhi - jlo + 1


@st.composite
def programs(draw):
    """``(nnodes, dims, epochs)``; ``epochs[e][rank]`` is that rank's
    list of operations in epoch ``e``."""
    nnodes = draw(st.integers(3, 4))
    dims = (draw(st.integers(2, 8)), draw(st.integers(2, 8)))
    point = st.tuples(st.integers(0, dims[0] - 1),
                      st.integers(0, dims[1] - 1))
    small = st.integers(-4, 4)
    epochs = []
    for _ in range(draw(st.integers(1, 3))):
        stored, accumulated, read = set(), set(), set()
        ops = [[] for _ in range(nnodes)]
        for _ in range(draw(st.integers(1, 6))):
            rank = draw(st.integers(0, nnodes - 1))
            kind = draw(st.sampled_from(
                ["put", "acc", "scatter", "get", "gather", "read_inc"]))
            if kind == "read_inc":
                ops[rank].append(("read_inc", (
                    draw(st.integers(0, COUNTER_DIMS[0] - 1)),
                    draw(st.integers(0, COUNTER_DIMS[1] - 1))),
                    draw(st.integers(1, 3))))
                continue
            if kind in ("put", "acc", "get"):
                section = _section(draw, dims)
                touched = _elements(section)
            elif kind == "scatter":
                points = draw(st.lists(point, min_size=1, max_size=6,
                                       unique=True))
                touched = set(points)
            else:
                points = draw(st.lists(point, min_size=1, max_size=6))
                touched = set(points)
            if kind in ("put", "scatter"):
                if touched & (stored | accumulated | read):
                    continue
                stored |= touched
            elif kind == "acc":
                if touched & (stored | read):
                    continue
                accumulated |= touched
            elif touched & (stored | accumulated):
                continue
            else:
                read |= touched
            if kind == "put":
                base = draw(st.integers(-100, 100))
                rows, cols = _shape(section)
                values = base + np.arange(rows * cols, dtype=np.float64)
                ops[rank].append(("put", section,
                                  values.reshape(rows, cols)))
            elif kind == "acc":
                values = np.array(draw(st.lists(
                    small, min_size=len(touched),
                    max_size=len(touched))), dtype=np.float64)
                ops[rank].append(("acc", section,
                                  values.reshape(_shape(section)),
                                  draw(st.sampled_from([1.0, 2.0, -1.0]))))
            elif kind == "scatter":
                ops[rank].append(("scatter", points, [
                    float(draw(small)) for _ in points]))
            else:
                ops[rank].append((kind, section if kind == "get"
                                  else points))
        epochs.append(ops)
    return nnodes, dims, epochs


def run(nnodes, dims, epochs, backend, interrupt):
    """Run the program; returns ``(reads per rank, array, counters)``."""

    def main(task):
        ga = task.ga
        a = yield from ga.create(dims, name="A")
        c = yield from ga.create(COUNTER_DIMS, dtype=np.int64, name="C")
        yield from ga.zero(a)
        yield from ga.zero(c)
        reads = []
        for epoch in epochs:
            for op in epoch[task.rank]:
                kind = op[0]
                if kind == "put":
                    yield from ga.put_ndarray(a, op[1], op[2])
                elif kind == "acc":
                    yield from ga.acc_ndarray(a, op[1], op[2], alpha=op[3])
                elif kind == "scatter":
                    yield from ga.scatter(a, op[1], op[2])
                elif kind == "get":
                    got = yield from ga.get_ndarray(a, op[1])
                    reads.append(got.tolist())
                elif kind == "gather":
                    got = yield from ga.gather(a, op[1])
                    reads.append(got.tolist())
                else:
                    yield from ga.read_inc(c, op[1], op[2])
            yield from ga.sync()
        whole = yield from ga.get_ndarray(a, (0, dims[0] - 1,
                                              0, dims[1] - 1))
        counters = yield from ga.get_ndarray(
            c, (0, COUNTER_DIMS[0] - 1, 0, COUNTER_DIMS[1] - 1))
        yield from ga.sync()
        return reads, whole.tolist(), counters.tolist()

    cluster = Cluster(nnodes=nnodes, seed=1)
    results = cluster.run_job(main, ga_backend=backend,
                              interrupt_mode=interrupt, until=1e7)
    return ([reads for reads, _, _ in results], results[0][1],
            results[0][2])


def model(nnodes, dims, epochs):
    """The program run sequentially; reads see the epoch's start."""
    a = np.zeros(dims)
    c = np.zeros(COUNTER_DIMS, dtype=np.int64)
    reads = [[] for _ in range(nnodes)]
    for epoch in epochs:
        start = a.copy()
        for rank, ops in enumerate(epoch):
            for op in ops:
                kind = op[0]
                if kind in ("put", "acc", "get"):
                    ilo, ihi, jlo, jhi = op[1]
                    block = (slice(ilo, ihi + 1), slice(jlo, jhi + 1))
                if kind == "put":
                    a[block] = op[2]
                elif kind == "acc":
                    a[block] += op[3] * op[2]
                elif kind == "scatter":
                    for (i, j), v in zip(op[1], op[2]):
                        a[i, j] = v
                elif kind == "get":
                    reads[rank].append(start[block].tolist())
                elif kind == "gather":
                    reads[rank].append([start[p] for p in op[1]])
                else:
                    c[op[1]] += op[2]
    return reads, a.tolist(), c.tolist()


# Rank 2 of 3 owns no block of a 2 x 2 array but scatters and gathers.
@example((3, (2, 2), [[[], [], [("scatter", [(0, 0)], [1.0]),
                                ("gather", [(1, 1), (0, 1)])]]]))
@given(programs())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_backends_and_progress_modes_agree(program):
    expected = model(*program)
    for backend, interrupt in RUNS:
        assert run(*program, backend, interrupt) == expected, (
            backend, "interrupt" if interrupt else "polling")
