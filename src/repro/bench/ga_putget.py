"""Figures 3 & 4 and the GA single-element latency numbers.

Section 5.4's synthetic benchmark, reproduced: four nodes; node 0 times
a series of GA put (Figure 3) or get (Figure 4) operations whose
sections live on the other nodes, visited round-robin, touching a
different patch each time.  Both "1-D" (contiguous single-column) and
square "2-D" (strided) sections are measured, for the LAPI and the MPL
backends.

Transfer-size sweep: 8 bytes to 2 MB.  The 2-D array is 1536 x 1536
doubles (18 MB -- the size at which the paper says the asymptote is
reached), giving 768 x 768 blocks so even the 512 x 512 (2 MB) patch
stays strided; the 1-D array is tall and narrow so single-column
requests of up to 2 MB are contiguous at their owner.
"""

from __future__ import annotations

import math
from typing import Optional

from ..ga.config import GA_DEFAULTS, GaConfig
from ..machine.config import SP_1998, MachineConfig
from .paper import GA_LATENCY
from .parallel import Deferred, JobSpec, submit
from .report import ExperimentResult
from .runner import bandwidth_mbs, fresh_cluster, mean

__all__ = ["submit_fig3", "submit_fig4", "submit_ga_latency",
           "ga_transfer_rate", "figure_jobs", "GA_SIZE_SWEEP"]

#: Backend/kind series of Figures 3-4, in serial construction order.
_SERIES = [("lapi", "1d"), ("lapi", "2d"), ("mpl", "1d"),
           ("mpl", "2d")]

#: Transfer sizes for Figures 3/4 (8 B to 2 MB).
GA_SIZE_SWEEP = [8, 64, 512, 2048, 8192, 32768, 131072, 524288,
                 2097152]

_2D_DIMS = (1536, 1536)
_1D_DIMS = (1 << 20, 4)


def _reps(nbytes: int) -> int:
    return max(2, min(12, (1 << 20) // max(nbytes, 1)))


def _section_elems(kind: str, nbytes: int) -> int:
    """Doubles a ``kind`` section of about ``nbytes`` moves: a column
    of whole doubles, or (2-D) the largest square that fits in it."""
    elems = max(1, nbytes // 8)
    return math.isqrt(elems) ** 2 if kind == "2d" else elems


def ga_transfer_rate(backend: str, op: str, kind: str, nbytes: int,
                     config: MachineConfig = SP_1998,
                     gcfg: GaConfig = GA_DEFAULTS,
                     seed: int = 0xF1) -> float:
    """Measured GA transfer rate (MB/s) for one point of Fig 3/4.

    Parameters: ``backend`` in {"lapi", "mpl"}; ``op`` in {"put",
    "get"}; ``kind`` in {"1d", "2d"}.
    """
    elems = _section_elems(kind, nbytes)
    side = math.isqrt(elems)
    nbytes = elems * 8
    reps = _reps(nbytes)
    records = {}

    def main(task):
        ga = task.ga
        if kind == "2d":
            h = yield from ga.create(_2D_DIMS, name="bench2d")
        else:
            h = yield from ga.create(_1D_DIMS, name="bench1d")
        yield from ga.sync()
        if task.rank == 0:
            if kind == "2d":
                sec0 = (0, side - 1, 0, side - 1)
            else:
                sec0 = (0, elems - 1, 0, 0)
            buf = ga.alloc_local(sec0)
            times = []
            for i in range(reps + 1):  # first rep is warm-up
                owner = 1 + (i % (task.size - 1))
                block = ga.distribution(h, owner)
                if kind == "2d":
                    span = block.rows - side
                    di = (i * 131) % (span + 1)
                    dj = (i * 67) % (block.cols - side + 1)
                    sec = (block.ilo + di, block.ilo + di + side - 1,
                           block.jlo + dj, block.jlo + dj + side - 1)
                else:
                    span = block.rows - elems
                    di = (i * 131) % (span + 1)
                    j = block.jlo + (i % block.cols)
                    sec = (block.ilo + di, block.ilo + di + elems - 1,
                           j, j)
                t0 = task.now()
                if op == "put":
                    yield from ga.put(h, sec, buf)
                else:
                    yield from ga.get(h, sec, buf)
                times.append(task.now() - t0)
            yield from ga.fence()
            records["per_op"] = mean(times, skip_warmup=1)
            ga.free_local(buf)
        yield from ga.sync()

    fresh_cluster(4, config, seed=seed).run_job(main,
                                                ga_backend=backend,
                                                ga_config=gcfg)
    return bandwidth_mbs(nbytes, records["per_op"])


def figure_jobs(op: str, config: MachineConfig = SP_1998,
                sizes=GA_SIZE_SWEEP) -> list[JobSpec]:
    """One Figure-3/4 sweep as specs: every (backend, kind, size)
    combination is an independent 4-node cluster simulation.

    An MPL put charges by bytes alone (the origin's ``store_piece``
    packs, the owner copies ``len(data)``), so a 2-D MPL put cell whose
    square section moves the 1-D cell's bytes is the 1-D cell's spec,
    run once per sweep.
    """
    figure = "fig3" if op == "put" else "fig4"

    def run_as(backend: str, kind: str, n: int) -> str:
        if (op, backend, kind) == ("put", "mpl", "2d") and \
                _section_elems("2d", n) == _section_elems("1d", n):
            return "1d"
        return kind

    return [JobSpec(ga_transfer_rate,
                    (backend, op, run_as(backend, kind, n), n, config),
                    key=(figure, backend, kind, n))
            for backend, kind in _SERIES for n in sizes]


def _submit_figure(op: str, config: MachineConfig, sizes) -> Deferred:
    sizes = list(sizes)
    future = submit(figure_jobs(op, config, sizes))
    return Deferred(future, lambda values: _figure(op, values, sizes))


def _figure(op: str, values: list, sizes: list) -> ExperimentResult:
    k = len(sizes)
    series = {combo: values[i * k:(i + 1) * k]
              for i, combo in enumerate(_SERIES)}
    rows = [[n,
             series[("lapi", "1d")][i], series[("lapi", "2d")][i],
             series[("mpl", "1d")][i], series[("mpl", "2d")][i]]
            for i, n in enumerate(sizes)]
    figure = "fig3" if op == "put" else "fig4"
    result = ExperimentResult(
        experiment=figure,
        title=f"GA {op} transfer rate [MB/s] under LAPI and MPL",
        headers=["bytes", "LAPI 1-D", "LAPI 2-D", "MPL 1-D",
                 "MPL 2-D"],
        rows=rows)

    lapi1, lapi2 = series[("lapi", "1d")], series[("lapi", "2d")]
    mpl1, mpl2 = series[("mpl", "1d")], series[("mpl", "2d")]
    if op == "get":
        result.check(
            "LAPI outperforms MPL for all cases (Fig 4)",
            all(l >= m for l, m in zip(lapi1, mpl1))
            and all(l >= m for l, m in zip(lapi2, mpl2)))
        result.check(
            "1-D beats 2-D for both implementations",
            lapi1[-1] > lapi2[-1] and mpl1[-1] > mpl2[-1],
            f"LAPI {lapi1[-1]:.1f}>{lapi2[-1]:.1f},"
            f" MPL {mpl1[-1]:.1f}>{mpl2[-1]:.1f}")
    else:
        small = [i for i, n in enumerate(sizes) if n <= 512]
        mid = [i for i, n in enumerate(sizes)
               if 8192 <= n <= 16384]
        large = [i for i, n in enumerate(sizes) if n >= 131072]
        result.check(
            "LAPI wins for small puts (low call overhead)",
            all(lapi1[i] >= mpl1[i] for i in small))
        result.check(
            "MPL buffering wins somewhere in the 1-20KB band (Fig 3)",
            any(mpl1[i] > lapi1[i] for i in mid)
            or any(mpl2[i] > lapi2[i] for i in mid))
        result.check(
            "LAPI wins for large puts (no sender-side buffering)",
            all(lapi1[i] >= mpl1[i] for i in large))
    result.check(
        "LAPI 1-D large transfers approach the raw put rate"
        " (within ~15%)",
        lapi1[-1] >= 80.0, f"{lapi1[-1]:.1f} MB/s at 2MB")
    return result


def submit_fig3(config: MachineConfig = SP_1998,
                sizes=GA_SIZE_SWEEP) -> Deferred:
    """Queue Figure 3's sweep; ``finish()`` builds the result."""
    return _submit_figure("put", config, sizes)



def submit_fig4(config: MachineConfig = SP_1998,
                sizes=GA_SIZE_SWEEP) -> Deferred:
    """Queue Figure 4's sweep; ``finish()`` builds the result."""
    return _submit_figure("get", config, sizes)



#: (op, backend) combinations of the latency table, in row order.
_LAT_COMBOS = [(op, backend) for op in ("get", "put")
               for backend in ("lapi", "mpl")]


def submit_ga_latency(config: MachineConfig = SP_1998) -> Deferred:
    """Queue the single-element jobs; ``finish()`` builds the table."""
    future = submit([JobSpec(ga_transfer_rate,
                             (backend, op, "1d", 8, config),
                             key=("ga_lat", op, backend))
                     for op, backend in _LAT_COMBOS])
    return Deferred(future, _ga_latency)



def _ga_latency(rates: list) -> ExperimentResult:
    measured = {combo: 8.0 / rate  # us per element
                for combo, rate in zip(_LAT_COMBOS, rates)}
    result = ExperimentResult(
        experiment="ga_lat",
        title="GA single-element (8-byte) latency [us]",
        headers=["Operation", "Paper", "Simulated"],
        rows=[
            ["get (LAPI)", GA_LATENCY[("get", "lapi")],
             measured[("get", "lapi")]],
            ["get (MPL)", GA_LATENCY[("get", "mpl")],
             measured[("get", "mpl")]],
            ["put (LAPI)", GA_LATENCY[("put", "lapi")],
             measured[("put", "lapi")]],
            ["put (MPL)", GA_LATENCY[("put", "mpl")],
             measured[("put", "mpl")]],
        ])
    result.check("GA get: LAPI much faster than MPL (paper 94 vs 221)",
                 measured[("get", "mpl")]
                 >= 1.8 * measured[("get", "lapi")],
                 f"{measured[('get', 'lapi')]:.1f} vs"
                 f" {measured[('get', 'mpl')]:.1f}")
    result.check("GA put: LAPI faster than MPL (paper 49.6 vs 54.6)",
                 measured[("put", "lapi")] < measured[("put", "mpl")],
                 f"{measured[('put', 'lapi')]:.1f} vs"
                 f" {measured[('put', 'mpl')]:.1f}")
    result.check("GA put much cheaper than GA get (one-way vs round"
                 " trip)",
                 measured[("put", "lapi")]
                 < 0.75 * measured[("get", "lapi")])
    return result
