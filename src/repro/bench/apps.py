"""Section 5.4's application results: GA-LAPI vs GA-MPL speedups.

"The performance improvement over MPL-versions vary from 10 to 50%
depending on the problem size, ratio of communication and calculations,
and physical properties of the problems.  The most performance
improvement can be obtained in codes that mostly rely on 1-D array
communication."

Each kernel runs identically on both GA backends; the table reports
per-kernel elapsed virtual time and improvement percentage.  The
kernels span the communication/computation spectrum: transpose is pure
communication, SCF mixes dynamic load balancing with strided gets and
accumulates, MD leans on 1-D column fetches, matmul adds heavy local
compute.
"""

from __future__ import annotations

from typing import Callable

from .. import apps as kernels
from ..machine.config import SP_1998, MachineConfig
from .paper import APPS
from .parallel import Deferred, JobSpec, submit
from .report import ExperimentResult
from .runner import fresh_cluster

__all__ = ["submit_apps", "app_elapsed", "apps_jobs"]


def _scf_driver(task):
    out = yield from kernels.scf_iteration(task, nbf=48, patch=12,
                                           work_per_patch=6.0,
                                           iterations=1)
    return out["elapsed_us"]


def _md_driver(task):
    out = yield from kernels.md_step_loop(task, natoms=512, steps=2)
    return out["elapsed_us"]


def _transpose_driver(task):
    ga = task.ga
    n = 192
    a_h = yield from ga.create((n, n), name="A")
    b_h = yield from ga.create((n, n), name="B")
    yield from ga.zero(a_h)
    yield from ga.sync()
    elapsed = yield from kernels.ga_transpose(task, a_h, b_h)
    return elapsed


def _matmul_driver(task):
    ga = task.ga
    n = 96
    a_h = yield from ga.create((n, n), name="A")
    b_h = yield from ga.create((n, n), name="B")
    c_h = yield from ga.create((n, n), name="C")
    yield from ga.zero(a_h)
    yield from ga.zero(b_h)
    yield from ga.sync()
    elapsed = yield from kernels.ga_matmul(task, a_h, b_h, c_h, kblock=24)
    return elapsed


def _jacobi_driver(task):
    out = yield from kernels.jacobi_sweeps(task, n=96, sweeps=2)
    return out["elapsed_us"]


KERNELS: dict[str, Callable] = {
    "transpose (pure comm)": _transpose_driver,
    "SCF Fock build": _scf_driver,
    "molecular dynamics": _md_driver,
    "Jacobi relaxation": _jacobi_driver,
    "matrix multiply": _matmul_driver,
}


def app_elapsed(driver: Callable, backend: str,
                config: MachineConfig = SP_1998, nnodes: int = 4,
                seed: int = 0xA5) -> float:
    """Job completion time (max over ranks) for one kernel/backend."""
    results = fresh_cluster(nnodes, config, seed=seed).run_job(
        driver, ga_backend=backend)
    return max(float(r) for r in results)


def apps_jobs(config: MachineConfig = SP_1998) -> list[JobSpec]:
    """Every kernel/backend combination as an independent job spec
    (each runs its own 4-node cluster), in serial loop order."""
    return [JobSpec(app_elapsed, (driver, backend, config),
                    key=("apps", name, backend))
            for name, driver in KERNELS.items()
            for backend in ("lapi", "mpl")]


def submit_apps(config: MachineConfig = SP_1998) -> Deferred:
    """Queue every kernel/backend job; ``finish()`` builds the table."""
    return Deferred(submit(apps_jobs(config)), _apps)



def _apps(elapsed: list) -> ExperimentResult:
    rows = []
    improvements = []
    for i, name in enumerate(KERNELS):
        lapi_us, mpl_us = elapsed[2 * i], elapsed[2 * i + 1]
        improvement = 100.0 * (mpl_us - lapi_us) / mpl_us
        improvements.append((name, improvement))
        rows.append([name, lapi_us, mpl_us, improvement])

    result = ExperimentResult(
        experiment="apps",
        title="GA application kernels: LAPI vs MPL backend [us]",
        headers=["Kernel", "GA-LAPI", "GA-MPL", "improvement %"],
        rows=rows)
    lo = APPS["min_improvement_pct"]
    hi = APPS["max_improvement_pct"]
    result.notes.append(
        f"paper: improvements of {lo:.0f}-{hi:.0f}% depending on the"
        " communication/computation ratio")
    result.check("every kernel improves under LAPI",
                 all(imp > 0 for _, imp in improvements),
                 ", ".join(f"{n}: {i:.1f}%" for n, i in improvements))
    in_band = [i for _, i in improvements if lo * 0.5 <= i <= hi * 1.5]
    result.check("improvements fall in/near the paper's 10-50% band",
                 len(in_band) >= len(improvements) - 1,
                 f"{len(in_band)}/{len(improvements)} within"
                 f" [{lo * 0.5:.0f}%, {hi * 1.5:.0f}%]")
    result.notes.append(
        "latency-bound kernels (tiny gets + read_inc) exceed the"
        " paper's band: their call mix is precisely where the rcvncall"
        " baseline is weakest")
    comm_heavy = improvements[0][1]  # transpose
    compute_heavy = improvements[-1][1]  # matmul
    result.check(
        "communication-heavy kernels improve most (section 5.4)",
        comm_heavy > compute_heavy,
        f"transpose {comm_heavy:.1f}% vs matmul {compute_heavy:.1f}%")
    return result
