"""Benchmark harness: regenerates every table and figure of the paper.

One ``run_*`` function per artifact (see DESIGN.md's experiment index):

* :func:`run_table1` -- the LAPI function inventory.
* :func:`run_table2` -- latency (polling / round trips / interrupts).
* :func:`run_pipeline_latency` -- non-blocking call return times.
* :func:`run_fig2` -- LAPI vs MPI bandwidth (both eager settings).
* :func:`run_fig3` / :func:`run_fig4` -- GA put/get under LAPI and MPL.
* :func:`run_ga_latency` -- GA single-element latencies.
* :func:`run_apps` -- application-kernel improvement percentages.

Each returns an :class:`~repro.bench.report.ExperimentResult` with the
regenerated rows, the paper's reference values, and shape-check
verdicts.  ``python -m repro.bench`` runs everything.
"""

from .apps import run_apps, submit_apps
from .bandwidth import run_fig2, submit_fig2
from .chaos import run_chaos, submit_chaos
from .parallel import (Deferred, JobSpec, SweepFuture, SweepScheduler,
                       configure, get_executor, spread_seed, submit,
                       sweep)
from .ga_putget import (run_fig3, run_fig4, run_ga_latency,
                        submit_fig3, submit_fig4, submit_ga_latency)
from .latency import (run_pipeline_latency, run_table2,
                      submit_pipeline_latency, submit_table2)
from .report import ExperimentResult, ShapeCheck
from .scale import run_scale, submit_scale
from .table1 import run_table1

#: Every experiment, in paper order (name -> runner).
ALL_EXPERIMENTS = {
    "table1": run_table1,
    "table2": run_table2,
    "pipeline": run_pipeline_latency,
    "fig2": run_fig2,
    "fig3": run_fig3,
    "fig4": run_fig4,
    "ga_lat": run_ga_latency,
    "apps": run_apps,
}

__all__ = [
    "ALL_EXPERIMENTS",
    "Deferred",
    "ExperimentResult",
    "JobSpec",
    "ShapeCheck",
    "SweepFuture",
    "SweepScheduler",
    "configure",
    "get_executor",
    "spread_seed",
    "submit",
    "sweep",
    "run_apps",
    "run_chaos",
    "run_fig2",
    "run_fig3",
    "run_fig4",
    "run_ga_latency",
    "run_pipeline_latency",
    "run_scale",
    "run_table1",
    "run_table2",
    "submit_apps",
    "submit_chaos",
    "submit_fig2",
    "submit_fig3",
    "submit_fig4",
    "submit_ga_latency",
    "submit_pipeline_latency",
    "submit_scale",
    "submit_table2",
]
