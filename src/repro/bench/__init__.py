"""Benchmark harness: regenerates every table and figure of the paper.

:data:`EXPERIMENTS` is the one list of experiments: each name maps to
its ``submit_*`` entry point, which queues the experiment's sweeps and
returns a :class:`~repro.bench.parallel.Deferred` whose ``finish()``
builds an :class:`~repro.bench.report.ExperimentResult` (regenerated
rows, the paper's reference values, shape-check verdicts); a blocking
run is ``submit_*(...).finish()``.  DESIGN.md's experiment index maps
each name to its paper artifact.
``python -m repro.bench`` runs the paper's experiments.
"""

from . import ablations
from .apps import submit_apps
from .bandwidth import submit_fig2
from .chaos import submit_chaos
from .ga_putget import submit_fig3, submit_fig4, submit_ga_latency
from .latency import submit_pipeline_latency, submit_table2
from .parallel import (Deferred, JobSpec, SweepFuture, SweepScheduler,
                       configure, get_executor, spread_seed, submit,
                       sweep)
from .report import ExperimentResult, ShapeCheck
from .scale import submit_scale
from .scaling import submit_scaling
from .table1 import submit_table1

PAPER, OPT_IN = True, False

#: Every experiment: name -> (submit entry point, in the paper).  The
#: paper's tables and figures come first, in paper order, then the
#: opt-ins, which run only when named.
EXPERIMENTS = {
    "table1": (submit_table1, PAPER),
    "table2": (submit_table2, PAPER),
    "pipeline": (submit_pipeline_latency, PAPER),
    "fig2": (submit_fig2, PAPER),
    "fig3": (submit_fig3, PAPER),
    "fig4": (submit_fig4, PAPER),
    "ga_lat": (submit_ga_latency, PAPER),
    "apps": (submit_apps, PAPER),
    "chaos": (submit_chaos, OPT_IN),
    "scale": (submit_scale, OPT_IN),
    "scaling": (submit_scaling, OPT_IN),
    "ablation_header": (ablations.submit_ablation_header, OPT_IN),
    "ablation_eager": (ablations.submit_ablation_eager, OPT_IN),
    "ablation_chunk": (ablations.submit_ablation_chunk, OPT_IN),
    "ablation_hybrid": (ablations.submit_ablation_hybrid, OPT_IN),
    "ablation_interrupt": (ablations.submit_ablation_interrupt, OPT_IN),
    "ablation_noncontig": (ablations.submit_ablation_noncontig, OPT_IN),
}


def _runner(submit_fn):
    def run(**kwargs) -> ExperimentResult:
        return submit_fn(**kwargs).finish()
    return run


#: The paper's experiments, in paper order (name -> blocking runner).
ALL_EXPERIMENTS = {name: _runner(submit_fn)
                   for name, (submit_fn, in_paper) in EXPERIMENTS.items()
                   if in_paper}

__all__ = ["ALL_EXPERIMENTS", "EXPERIMENTS", "Deferred", "ExperimentResult",
           "JobSpec", "ShapeCheck", "SweepFuture", "SweepScheduler",
           "configure", "get_executor", "spread_seed", "submit", "sweep"]
