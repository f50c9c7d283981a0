"""Run the full evaluation: ``python -m repro.bench [experiment ...]``.

With no arguments every table and figure regenerates in paper order;
otherwise only the named experiments run.  The opt-in experiments of
:data:`repro.bench.EXPERIMENTS` run only when named (``chaos`` and
``scale`` also via ``--faults`` / ``--scale`` and their ``-out``
flags).  ``--help`` lists every option.  Exit status is 1 if any shape
check fails and 2 on a usage error.

``--obs NAMES --obs-out DIR`` arms the artifacts of
:data:`repro.obs.ARTIFACTS` (see ``docs/observability.md``);
``--jobs N`` pipelines every experiment's sweeps through one process
pool (see ``docs/performance.md``).  Arming artifacts never changes a
table or a virtual time.  Tables, ``--obs`` artifacts and the
``--scale-out`` / ``--faults-out`` records are byte-identical between
``--jobs 1`` and ``--jobs N`` (bar the host facts of ``--scale-out``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import partial
from typing import Callable

from . import ALL_EXPERIMENTS, EXPERIMENTS
from . import parallel, runner
from .parallel import Deferred
from ..errors import SimulationError
from ..obs import ARTIFACTS, ObsOutput, ObsSpec

#: Per-experiment keyword arguments of ``--quick``.  Chosen so every
#: shape check of the full sweep still resolves: fig2 keeps the
#: half-peak crossover (8K/16K) and the eager kink; fig3/fig4 keep one
#: size per regime (small win / MPL buffering band / large win /
#: asymptote).
QUICK = {
    "fig2": {"sizes": [1024, 8192, 16384, 65536, 2097152]},
    "fig3": {"sizes": [512, 8192, 131072, 2097152]},
    "fig4": {"sizes": [512, 8192, 131072, 2097152]},
    "chaos": {"quick": True},
    "scale": {"quick": True},
}


def _submitters(quick: bool) -> dict[str, Callable[[], Deferred]]:
    """Every experiment as a submit-phase entry point.

    Each callable queues the experiment's sweeps on the installed
    scheduler and returns a :class:`Deferred` whose ``finish()``
    assembles the result -- the seam that lets ``--jobs N`` submit
    everything up front and pipeline all sweeps through one pool.
    Serial runs call submit+finish back to back and run the jobs inline.
    """
    return {name: partial(submit_fn, **(QUICK.get(name, {}) if quick
                                         else {}))
            for name, (submit_fn, _) in EXPERIMENTS.items()}


def _obs_spec(text: str) -> ObsSpec:
    """argparse type for ``--obs``."""
    try:
        return ObsSpec.parse(text)
    except SimulationError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.")
    opt_in = [name for name, (_, in_paper) in EXPERIMENTS.items()
              if not in_paper]
    parser.add_argument("experiments", nargs="*",
                        help="experiment names (default: all, in paper"
                             f" order: {', '.join(ALL_EXPERIMENTS)};"
                             f" opt-in: {', '.join(opt_in)})")
    parser.add_argument("--jobs", type=parallel.parse_jobs, default=1,
                        metavar="N|auto",
                        help="worker processes for independent cluster"
                             " simulations (default: 1, serial;"
                             " results are byte-identical either way)")
    artifacts = ", ".join(
        f"{name} ({a.filename})" if a.filename else name
        for name, a in ARTIFACTS.items())
    parser.add_argument("--obs", type=_obs_spec, default=ObsSpec(),
                        metavar="NAMES",
                        help="comma-separated observability artifacts:"
                             f" {artifacts}; the ones with a file name"
                             " need --obs-out")
    parser.add_argument("--obs-out", metavar="DIR", default=None,
                        help="directory for the --obs file artifacts")
    parser.add_argument("--quick", action="store_true",
                        help="reduced fig2/fig3/fig4, scale and chaos"
                             " sweeps (CI smoke)")
    parser.add_argument("--scale", action="store_true",
                        help="run the 512-4096-node scale bench"
                             " (ring + gfence on sp/fattree/dragonfly"
                             " fabrics; --quick reduces to 512 nodes)")
    parser.add_argument("--scale-out", metavar="FILE", default=None,
                        help="write raw scale records as sorted JSON"
                             " (default BENCH_SCALE.json; implies"
                             " --scale)")
    parser.add_argument("--faults", action="store_true",
                        help="run the chaos fault-injection bench"
                             " (goodput degradation and recovery under"
                             " loss/outage/CPU-fault regimes)")
    parser.add_argument("--faults-out", metavar="FILE", default=None,
                        help="write raw chaos records as sorted JSON"
                             " (implies --faults)")
    opts = parser.parse_args(argv)
    if opts.obs.files and opts.obs_out is None:
        parser.error(f"--obs {','.join(opts.obs.files)} writes files:"
                     " give --obs-out DIR")

    submitters = _submitters(opts.quick)
    names = opts.experiments or list(ALL_EXPERIMENTS)
    unknown = [n for n in names if n not in submitters]
    if unknown:
        print(f"unknown experiments: {unknown}; choose from"
              f" {sorted(submitters)}")
        return 2
    if ((opts.faults or opts.faults_out is not None)
            and "chaos" not in names):
        names.append("chaos")
    if ((opts.scale or opts.scale_out is not None)
            and "scale" not in names):
        names.append("scale")

    # Observability must be armed before the first parallel sweep so
    # pool workers inherit the spec at initializer time.
    runner.configure_observability(opts.obs)
    parallel.configure(jobs=opts.jobs)
    pipelined = opts.jobs > 1
    if pipelined:
        print(f"parallel: pipelining sweeps across {opts.jobs} worker"
              " processes (results identical to --jobs 1)")

    # The executor must come down even when an experiment raises --
    # orphaned pool workers outlive the CLI otherwise.
    try:
        return _run(opts, names, submitters, pipelined)
    finally:
        parallel.shutdown()


def _run(opts, names: list[str], submitters: dict,
         pipelined: bool) -> int:
    failed = 0
    payloads = {}
    output = ObsOutput(opts.obs, opts.obs_out)
    pending: dict[str, Deferred] = {}
    if pipelined:
        # Submit every experiment up front: all sweeps flow through the
        # pool with no inter-experiment barrier.  Results are merged
        # below in submission order, so the output stream is
        # byte-identical to the serial loop.
        pending = {name: submitters[name]() for name in names}
    for name in names:
        if pipelined:
            deferred = pending[name]
            result = deferred.finish()
            # Pool jobs overlap across experiments, so a stopwatch
            # around finish() measures other experiments' work (or
            # nothing, if the jobs already completed).  Report the CPU
            # seconds this experiment's jobs consumed -- the number
            # comparable across job counts.
            wall = deferred.job_cpu_s
        else:
            start = time.perf_counter()
            result = submitters[name]().finish()
            wall = time.perf_counter() - start
        payloads[name] = getattr(result, "payload", None)
        captures = runner.drain_captures() if opts.obs.names else []
        texts = output.add(name, captures)
        print(result.render())
        for text in texts:
            print(text)
        print(f"(regenerated in {wall:.1f}s"
              f" {'cpu' if pipelined else 'wall'} time)")
        print()
        if not result.all_passed:
            failed += 1
    for line in output.close():
        print(line)
    # Sorted keys and rounded floats make every virtual-time field
    # byte-comparable between serial and --jobs N runs (a scale point's
    # wall seconds and RSS are host facts and vary).
    if "scale" in names:
        _write_report(opts.scale_out or "BENCH_SCALE.json",
                      {"schema": 1, "quick": opts.quick,
                       "host": parallel.host_record(opts.jobs),
                       "points": payloads["scale"] or {}},
                      "points", "scale records")
    if opts.faults_out is not None:
        _write_report(opts.faults_out,
                      {"schema": 1, "quick": opts.quick,
                       "scenarios": payloads["chaos"] or {}},
                      "scenarios", "chaos scenario records")
    if failed:
        print(f"{failed} experiment(s) had failing shape checks")
        return 1
    print("all shape checks passed")
    return 0


def _write_report(path: str, report: dict, key: str, noun: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(report[key])} {noun} to {path}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
