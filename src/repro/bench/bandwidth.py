"""Figure 2: one-way bandwidth, LAPI vs MPI (default and 64K eager).

Protocol (section 4's experiment): two tasks; per message size the
origin transfers the payload and waits until it is *known delivered*
before the next transfer --

* LAPI: ``LAPI_Put`` + Waitcntr on the completion counter (data has
  arrived at the target);
* MPI: blocking send paired with a pre-posted receive, confirmed by a
  zero-byte acknowledgement message from the receiver.

Three series are produced: LAPI, MPI with the default MP_EAGER_LIMIT
(4 KB -- showing the eager-to-rendezvous kink), and MPI with
MP_EAGER_LIMIT=65536 (the environment-variable experiment that removes
the kink).  The raised limit changes only the sizes it moves from
rendezvous to eager (4 KB < n <= 64 KB); at every other size the third
series is the default series' simulation, run once.
"""

from __future__ import annotations

from typing import Optional

from ..machine.config import SP_1998, MachineConfig
from .paper import FIG2
from .parallel import Deferred, JobSpec, submit, sweep
from .report import ExperimentResult
from .runner import SIZE_SWEEP, bandwidth_mbs, fresh_cluster, mean, \
    reps_for_size

__all__ = ["submit_fig2", "fig2_jobs", "lapi_bandwidth",
           "mpl_bandwidth", "lapi_bandwidth_point",
           "mpl_bandwidth_point", "half_peak_size"]


def lapi_bandwidth_point(nbytes: int,
                         config: MachineConfig = SP_1998) -> float:
    """One-way LAPI bandwidth (MB/s) at one message size."""
    reps = reps_for_size(nbytes)
    records = {}

    def main(task):
        lapi = task.lapi
        mem = task.memory
        buf = mem.malloc(nbytes)
        yield from lapi.gfence()
        if task.rank == 0:
            src = mem.malloc(nbytes)
            cmpl = lapi.counter()
            times = []
            for _ in range(reps):
                t0 = task.now()
                yield from lapi.put(1, nbytes, buf, src,
                                    cmpl_cntr=cmpl)
                yield from lapi.waitcntr(cmpl, 1)
                times.append(task.now() - t0)
            records["per_msg"] = mean(times)
        yield from lapi.gfence()

    fresh_cluster(2, config).run_job(main, stacks=("lapi",),
                                     interrupt_mode=False)
    return bandwidth_mbs(nbytes, records["per_msg"])


def mpl_bandwidth_point(nbytes: int, eager_limit: Optional[int] = None,
                        config: MachineConfig = SP_1998) -> float:
    """One-way MPI bandwidth (MB/s) at one message size."""
    reps = reps_for_size(nbytes)
    records = {}

    def main(task):
        mpl = task.mpl
        mem = task.memory
        buf = mem.malloc(nbytes)
        if task.rank == 0:
            src = mem.malloc(nbytes)
            times = []
            for _ in range(reps):
                t0 = task.now()
                yield from mpl.send(1, src, nbytes, tag=1)
                yield from mpl.recv_bytes(1, tag=2)  # delivery ack
                times.append(task.now() - t0)
            records["per_msg"] = mean(times)
            yield from mpl.barrier()
        else:
            for _ in range(reps):
                yield from mpl.recv(0, 1, buf, nbytes)
                yield from mpl.send(0, b"", 0, tag=2)
            yield from mpl.barrier()

    fresh_cluster(2, config).run_job(main, stacks=("mpl",),
                                     interrupt_mode=False,
                                     eager_limit=eager_limit)
    return bandwidth_mbs(nbytes, records["per_msg"])


def lapi_bandwidth(sizes=SIZE_SWEEP, config: MachineConfig = SP_1998):
    return sweep([JobSpec(lapi_bandwidth_point, (n, config),
                          key=("lapi_bw", n)) for n in sizes])


def mpl_bandwidth(sizes=SIZE_SWEEP, eager_limit: Optional[int] = None,
                  config: MachineConfig = SP_1998):
    return sweep([JobSpec(mpl_bandwidth_point, (n, eager_limit, config),
                          key=("mpl_bw", eager_limit, n))
                  for n in sizes])


def fig2_jobs(config: MachineConfig = SP_1998,
              sizes=SIZE_SWEEP) -> list[JobSpec]:
    """Figure 2 as declarative job specs: three series per size, in
    the exact order the serial loops used to build clusters.

    A raised eager limit changes a run only where it turns a
    rendezvous send eager, so outside (``mpl_eager_limit``,
    ``mpl_eager_limit_max``] the 64K-eager cell is the default cell's
    spec, and the sweep runs it once (Figure 2 sends nothing else the
    limit decides on).
    """
    def raised(n: int) -> Optional[int]:
        if config.mpl_eager_limit < n <= config.mpl_eager_limit_max:
            return config.mpl_eager_limit_max
        return None

    specs = [JobSpec(lapi_bandwidth_point, (n, config),
                     key=("fig2", "lapi", n)) for n in sizes]
    specs += [JobSpec(mpl_bandwidth_point, (n, None, config),
                      key=("fig2", "mpi_default", n)) for n in sizes]
    specs += [JobSpec(mpl_bandwidth_point, (n, raised(n), config),
                      key=("fig2", "mpi_eager", n)) for n in sizes]
    return specs


def half_peak_size(sizes, series) -> int:
    """First size reaching half of the series' asymptotic bandwidth."""
    peak = max(series)
    for n, bw in zip(sizes, series):
        if bw >= peak / 2:
            return n
    return sizes[-1]


def submit_fig2(config: MachineConfig = SP_1998,
                sizes=SIZE_SWEEP) -> Deferred:
    """Queue Figure 2's sweeps; ``finish()`` builds the result."""
    sizes = list(sizes)
    future = submit(fig2_jobs(config, sizes))
    return Deferred(future,
                    lambda values: _fig2(values, config, sizes))



def _fig2(values: list, config: MachineConfig,
          sizes: list) -> ExperimentResult:
    k = len(sizes)
    lapi = values[:k]
    mpi_default = values[k:2 * k]
    mpi_eager = values[2 * k:]

    rows = [[n, l, d, e] for n, l, d, e
            in zip(sizes, lapi, mpi_default, mpi_eager)]
    result = ExperimentResult(
        experiment="fig2",
        title="One-way bandwidth [MB/s] vs message size",
        headers=["bytes", "LAPI", "MPI (eager=4K)", "MPI (eager=64K)"],
        rows=rows)
    result.notes.append(
        f"paper anchors: LAPI ~{FIG2['lapi_asymptote_mbs']} MB/s,"
        f" MPI ~{FIG2['mpi_asymptote_mbs']} MB/s asymptotic;"
        f" half-peak {FIG2['lapi_half_peak_bytes']}B (LAPI) vs"
        f" {FIG2['mpi_half_peak_bytes']}B (MPI)")

    lapi_peak, mpi_peak = max(lapi), max(mpi_eager)
    result.check("LAPI asymptote near 97 MB/s",
                 85.0 <= lapi_peak <= 105.0, f"{lapi_peak:.1f}")
    result.check("MPI peak slightly above LAPI's (16B vs 48B headers)",
                 lapi_peak < mpi_peak <= lapi_peak * 1.12,
                 f"{mpi_peak:.1f} vs {lapi_peak:.1f}")
    lapi_half = half_peak_size(sizes, lapi)
    mpi_half = half_peak_size(sizes, mpi_default)
    result.check("LAPI reaches half-peak at a much smaller size",
                 lapi_half * 2 <= mpi_half,
                 f"{lapi_half}B vs {mpi_half}B")
    result.check("LAPI beats default MPI at every medium size"
                 " (256B-64KB)",
                 all(l > d for n, l, d in zip(sizes, lapi, mpi_default)
                     if 256 <= n <= 65536))
    # The eager->rendezvous kink: crossing the default limit hurts the
    # default curve but not the 64K-eager curve.
    idx_above = next(i for i, n in enumerate(sizes)
                     if n > config.mpl_eager_limit)
    gain_default = mpi_default[idx_above] / mpi_default[idx_above - 1]
    gain_eager = mpi_eager[idx_above] / mpi_eager[idx_above - 1]
    result.check("rendezvous kink at the default eager limit",
                 gain_eager > gain_default,
                 f"growth {gain_default:.2f} vs {gain_eager:.2f}")
    result.check("curves converge at the top (within 10%)",
                 abs(mpi_default[-1] - mpi_eager[-1])
                 <= 0.1 * mpi_eager[-1])
    return result
