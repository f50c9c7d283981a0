"""Benchmark harness: regenerates every table and figure of the paper.

:data:`EXPERIMENTS` is the one list of experiments: each name maps to
its ``submit_*`` entry point, which queues the experiment's sweeps and
returns a :class:`~repro.bench.parallel.Deferred` whose ``finish()``
builds an :class:`~repro.bench.report.ExperimentResult` (regenerated
rows, the paper's reference values, shape-check verdicts); a blocking
run is ``submit_*(...).finish()``.  DESIGN.md's experiment index maps
each name to its paper artifact.
``python -m repro.bench`` runs the paper's experiments.

Only the sweep engine (:mod:`.parallel`, which loads :mod:`.runner`)
and :mod:`.report` load with the package.  Each experiment module loads
when its entry point is first called, or on first access to a
``submit_*`` name (PEP 562), so a run imports only the experiments it
runs.
"""

import importlib

from .parallel import (Deferred, JobSpec, SweepFuture, SweepScheduler,
                       configure, get_executor, spread_seed, submit,
                       sweep)
from .report import ExperimentResult, ShapeCheck

#: Exported entry point -> the submodule that defines it, loaded on
#: first use.
_LAZY = {
    "submit_ablation_chunk": "ablations",
    "submit_ablation_eager": "ablations",
    "submit_ablation_header": "ablations",
    "submit_ablation_hybrid": "ablations",
    "submit_ablation_interrupt": "ablations",
    "submit_ablation_noncontig": "ablations",
    "submit_apps": "apps",
    "submit_chaos": "chaos",
    "submit_fig2": "bandwidth",
    "submit_fig3": "ga_putget",
    "submit_fig4": "ga_putget",
    "submit_ga_latency": "ga_putget",
    "submit_pipeline_latency": "latency",
    "submit_scale": "scale",
    "submit_scaling": "scaling",
    "submit_table1": "table1",
    "submit_table2": "latency",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def _on_call(name: str):
    """The entry point ``name``, its module imported when first called."""
    def submit_fn(**kwargs) -> Deferred:
        return __getattr__(name)(**kwargs)
    submit_fn.__name__ = submit_fn.__qualname__ = name
    return submit_fn


PAPER, OPT_IN = True, False

#: Every experiment: name -> (submit entry point, in the paper).  The
#: paper's tables and figures come first, in paper order, then the
#: opt-ins, which run only when named.
EXPERIMENTS = {
    "table1": (_on_call("submit_table1"), PAPER),
    "table2": (_on_call("submit_table2"), PAPER),
    "pipeline": (_on_call("submit_pipeline_latency"), PAPER),
    "fig2": (_on_call("submit_fig2"), PAPER),
    "fig3": (_on_call("submit_fig3"), PAPER),
    "fig4": (_on_call("submit_fig4"), PAPER),
    "ga_lat": (_on_call("submit_ga_latency"), PAPER),
    "apps": (_on_call("submit_apps"), PAPER),
    "chaos": (_on_call("submit_chaos"), OPT_IN),
    "scale": (_on_call("submit_scale"), OPT_IN),
    "scaling": (_on_call("submit_scaling"), OPT_IN),
    "ablation_header": (_on_call("submit_ablation_header"), OPT_IN),
    "ablation_eager": (_on_call("submit_ablation_eager"), OPT_IN),
    "ablation_chunk": (_on_call("submit_ablation_chunk"), OPT_IN),
    "ablation_hybrid": (_on_call("submit_ablation_hybrid"), OPT_IN),
    "ablation_interrupt": (_on_call("submit_ablation_interrupt"), OPT_IN),
    "ablation_noncontig": (_on_call("submit_ablation_noncontig"), OPT_IN),
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
           "configure", "get_executor", "spread_seed", "submit", "sweep",
           *_LAZY]
