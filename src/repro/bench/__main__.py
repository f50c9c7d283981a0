"""Run the full evaluation: ``python -m repro.bench [experiment ...]``.

With no arguments every table and figure regenerates in paper order;
otherwise only the named experiments run (``table2``, ``fig3``, ...).
The ablations (``ablation_header``, ``ablation_eager``,
``ablation_chunk``, ``ablation_hybrid``, ``ablation_interrupt``,
``ablation_noncontig``), the supplemental ``scaling`` study, ``chaos``
and ``scale`` run only when named (or, for the last two, when their
flags below ask for them).  Exit status is non-zero if any shape check
fails.

Observability flags (see ``docs/observability.md``):

``--metrics``
    Print a per-subsystem metrics block (adapters, switch links,
    reliability, dispatchers, matching, GA buffer pools) for every
    cluster each experiment ran.  Deterministic: identical seeds
    produce byte-identical blocks.
``--trace-out FILE``
    Attach a structured tracer to every cluster and write all trace
    records to ``FILE`` as JSONL
    (``time_us, node, subsystem, event, fields``; ``.gz`` supported).
``--decompose``
    Print a Table-1-style per-phase latency decomposition (count /
    mean / p50 / p99 per subsystem, phase, and message-size bucket)
    for every experiment, plus the critical path of gfence epochs.
``--spans-out FILE``
    Write all spans as a Chrome trace-event JSON file, loadable at
    https://ui.perfetto.dev (``.gz`` supported): one track per node,
    flow arrows for every wire hop.

``--decompose`` and ``--spans-out`` record causal phase spans on every
cluster.  Spans are purely observational: virtual-time results are
byte-identical with them on or off.

Virtual-time telemetry (see ``docs/observability.md``):

``--timeline-out FILE``
    Arm the windowed telemetry pipeline (100 virtual-us windows) and
    write every cluster's per-window series (counter deltas, gauge
    values, latency sketches) as deterministic JSONL -- byte-identical
    between ``--jobs 1`` and ``--jobs N``.  Purely observational:
    virtual-time results are byte-identical with the flag on or off.
``--flight-out FILE``
    Arm the same pipeline and write every flight-recorder black-box
    dump (engaged fault clauses, convicted or unreachable peers) as
    deterministic JSONL.

Parallelism (see ``docs/performance.md``):

``--jobs N`` / ``--jobs auto``
    Shard each experiment's independent cluster simulations across N
    worker processes (``auto`` = usable core count).  With N > 1 the
    whole run is *pipelined*: every experiment's sweeps are submitted
    up front and flow through one process pool with no
    inter-experiment barrier.  Virtual-time results, tables,
    ``--metrics`` blocks, and trace files are byte-identical to
    ``--jobs 1``; only wall time changes, and each experiment's
    ``regenerated in`` line reports the CPU seconds its jobs consumed.
    Default is serial.
``--quick``
    Reduced message-size sweeps for fig2/fig3/fig4, and reduced
    ``scale`` and ``chaos`` sweeps -- the CI smoke configuration.

Scale sweep (see ``docs/performance.md``):

``--scale``
    Add the 512-4096-node scale bench to the run: the ring + gfence
    workload on the SP multistage, fat-tree, and dragonfly fabrics,
    measuring simulator wall time, kernel events, events/second, and
    resident memory per point.  ``--quick`` reduces the sweep to
    512 nodes (the CI scale-smoke configuration); ``--jobs N`` shards
    the points with byte-identical virtual-time results.
``--scale-out FILE``
    Write the raw per-point scale records as sorted JSON (default
    ``BENCH_SCALE.json``; CI diffs the deterministic fields between
    serial and ``--jobs N`` runs).  Implies ``--scale``.

Fault injection (see ``docs/reliability.md``):

``--faults``
    Add the chaos bench to the run: sweep loss / outage / ack-loss /
    CPU-fault / corruption regimes (``repro.faults``) over a LAPI put
    workload and report goodput degradation and recovery per scenario.
    Deterministic across ``--jobs N``.  ``--quick`` reduces the
    sweep.
``--faults-out FILE``
    Write the raw per-scenario chaos records (exact virtual times,
    retransmission and drop counters) as sorted JSON -- CI diffs the
    serial and ``--jobs N`` files byte-for-byte.  Implies ``--faults``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable

from . import ALL_EXPERIMENTS
from . import ablations, parallel, runner
from .apps import submit_apps
from .bandwidth import submit_fig2
from .chaos import submit_chaos
from .ga_putget import submit_fig3, submit_fig4, submit_ga_latency
from .latency import submit_pipeline_latency, submit_table2
from .parallel import Deferred
from .scale import submit_scale
from .scaling import submit_scaling
from .table1 import run_table1
from ..obs import (render_critical_path, render_decomposition,
                   write_chrome_trace, write_flight_jsonl,
                   write_trace_jsonl)

#: Reduced sweeps for ``--quick``.  Chosen so every shape check of
#: the full sweep still resolves: fig2 keeps the half-peak crossover
#: (8K/16K) and the eager kink; fig3 keeps one size per regime (small
#: win / MPL buffering band / large win / asymptote).
QUICK_SIZES = {
    "fig2": [1024, 8192, 16384, 65536, 2097152],
    "fig3": [512, 8192, 131072, 2097152],
    "fig4": [512, 8192, 131072, 2097152],
}


def _submitters(quick: bool) -> dict[str, Callable[[], Deferred]]:
    """Every experiment as a submit-phase entry point.

    Each callable queues the experiment's sweeps on the installed
    scheduler and returns a :class:`Deferred` whose ``finish()``
    assembles the result -- the seam that lets ``--jobs N`` submit
    everything up front and pipeline all sweeps through one pool.
    Serial runs call submit+finish back to back, which runs the jobs
    inline exactly as a direct ``run_*`` call would.
    """
    return {
        "table1": lambda: Deferred(None, lambda _: run_table1()),
        "table2": submit_table2,
        "pipeline": submit_pipeline_latency,
        "fig2": (lambda: submit_fig2(sizes=QUICK_SIZES["fig2"]))
        if quick else submit_fig2,
        "fig3": (lambda: submit_fig3(sizes=QUICK_SIZES["fig3"]))
        if quick else submit_fig3,
        "fig4": (lambda: submit_fig4(sizes=QUICK_SIZES["fig4"]))
        if quick else submit_fig4,
        "ga_lat": submit_ga_latency,
        "apps": submit_apps,
        "chaos": lambda: submit_chaos(quick=quick),
        "scale": lambda: submit_scale(quick=quick),
        "ablation_header": ablations.submit_ablation_header,
        "ablation_eager": ablations.submit_ablation_eager,
        "ablation_chunk": ablations.submit_ablation_chunk,
        "ablation_hybrid": ablations.submit_ablation_hybrid,
        "ablation_interrupt": ablations.submit_ablation_interrupt,
        "ablation_noncontig": ablations.submit_ablation_noncontig,
        "scaling": submit_scaling,
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.")
    parser.add_argument("experiments", nargs="*",
                        help="experiment names (default: all, in paper"
                             f" order: {', '.join(ALL_EXPERIMENTS)};"
                             " opt-in: chaos, scale, scaling,"
                             " ablation_{header,eager,chunk,hybrid,"
                             "interrupt,noncontig})")
    parser.add_argument("--jobs", type=parallel.parse_jobs, default=1,
                        metavar="N|auto",
                        help="worker processes for independent cluster"
                             " simulations (default: 1, serial;"
                             " results are byte-identical either way)")
    parser.add_argument("--metrics", action="store_true",
                        help="print per-subsystem metrics blocks")
    parser.add_argument("--trace-out", metavar="FILE", default=None,
                        help="write structured JSONL traces to FILE")
    parser.add_argument("--spans-out", metavar="FILE", default=None,
                        help="write a Chrome trace-event JSON file"
                             " (Perfetto-loadable; .gz supported)")
    parser.add_argument("--decompose", action="store_true",
                        help="print a Table-1-style per-phase latency"
                             " decomposition per experiment")
    parser.add_argument("--timeline-out", metavar="FILE", default=None,
                        help="write per-window telemetry series as"
                             " deterministic JSONL")
    parser.add_argument("--flight-out", metavar="FILE", default=None,
                        help="write flight-recorder black-box dumps as"
                             " deterministic JSONL")
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

    spans_on = opts.spans_out is not None or opts.decompose
    telemetry_on = (opts.timeline_out is not None
                    or opts.flight_out is not None)
    telemetry_cfg = None
    if telemetry_on:
        from ..obs import TelemetryConfig
        telemetry_cfg = TelemetryConfig()
    observing = (opts.metrics or opts.trace_out is not None
                 or spans_on or telemetry_on)
    if observing:
        runner.configure_observability(metrics=opts.metrics,
                                       trace=opts.trace_out is not None,
                                       spans=spans_on,
                                       telemetry=telemetry_cfg)
    # Observability must be armed before the first parallel sweep so
    # pool workers inherit the flags at initializer time.
    parallel.configure(jobs=opts.jobs)
    pipelined = opts.jobs > 1
    if pipelined:
        print(f"parallel: pipelining sweeps across {opts.jobs} worker"
              " processes (results identical to --jobs 1)")

    # The executor must come down even when an experiment raises --
    # orphaned pool workers outlive the CLI otherwise.
    try:
        return _run(opts, names, submitters, observing, spans_on,
                    telemetry_on, pipelined)
    finally:
        parallel.shutdown()


def _write_timeline(telemetry_records, path: str) -> int:
    """Write ``--timeline-out``: one JSONL line per series, tagged
    with experiment and cluster index.  Sorted keys and fixed
    separators -- byte-comparable between ``--jobs`` modes."""
    nlines = 0
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for name, idx, snap in telemetry_records:
            timeline = snap["timeline"]
            for series in timeline["series"]:
                row = {"experiment": name, "cluster": idx,
                       "record": "series",
                       "window_us": timeline["window_us"]}
                row.update(series)
                fh.write(json.dumps(row, sort_keys=True,
                                    separators=(",", ":")) + "\n")
                nlines += 1
    return nlines


def _run(opts, names: list[str], submitters: dict, observing: bool,
         spans_on: bool, telemetry_on: bool, pipelined: bool) -> int:
    failed = 0
    trace_lines = 0
    first_trace = True
    chaos_payload = None
    scale_payload = None
    span_streams: list[list[dict]] = []
    #: (experiment, cluster index, TelemetryRuntime.snapshot()) of
    #: every armed cluster, in submission order -- the deterministic
    #: source of --timeline-out / --flight-out output.
    telemetry_records: list[tuple] = []
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
        captures = runner.drain_captures() if observing else []
        if name == "chaos":
            chaos_payload = getattr(result, "payload", None)
        if name == "scale":
            scale_payload = getattr(result, "payload", None)
        decomposition = None
        if observing:
            if telemetry_on:
                telemetry_records.extend(
                    (name, i, c.telemetry)
                    for i, c in enumerate(captures)
                    if c.telemetry is not None)
            if opts.metrics:
                result.metrics_blocks = [
                    f"-- metrics: {name} cluster #{i}"
                    f" ({c.nnodes} nodes @ {c.now:.1f} virtual us)"
                    f" --\n{c.metrics_block}"
                    for i, c in enumerate(captures)]
            if opts.trace_out is not None:
                for c in captures:
                    if not c.trace:
                        continue
                    trace_lines += write_trace_jsonl(
                        c.trace, opts.trace_out,
                        append=not first_trace)
                    first_trace = False
            if spans_on:
                streams = [c.spans for c in captures if c.spans]
                if opts.spans_out is not None:
                    span_streams.extend(streams)
                if opts.decompose and streams:
                    flat = [s for stream in streams for s in stream]
                    decomposition = render_decomposition(flat, name)
                    cpath = render_critical_path(flat)
                    if cpath:
                        decomposition += "\n" + cpath
        print(result.render())
        if decomposition is not None:
            print()
            print(decomposition)
        print(f"(regenerated in {wall:.1f}s"
              f" {'cpu' if pipelined else 'wall'} time)")
        print()
        if not result.all_passed:
            failed += 1
    if opts.trace_out is not None:
        if first_trace:  # no records anywhere: still create the file
            open(opts.trace_out, "w", encoding="utf-8").close()
        print(f"wrote {trace_lines} trace records to {opts.trace_out}")
    if opts.spans_out is not None:
        nevents = write_chrome_trace(span_streams, opts.spans_out)
        nspans = sum(len(s) for s in span_streams)
        print(f"wrote {nevents} trace events ({nspans} spans,"
              f" {len(span_streams)} clusters) to {opts.spans_out}")
    if opts.timeline_out is not None:
        nlines = _write_timeline(telemetry_records, opts.timeline_out)
        print(f"wrote {nlines} timeline records to {opts.timeline_out}")
    if opts.flight_out is not None:
        dumps = [{"experiment": name, "cluster": idx, **dump}
                 for name, idx, snap in telemetry_records
                 for dump in snap["flight"]]
        ndumps = write_flight_jsonl(dumps, opts.flight_out)
        print(f"wrote {ndumps} flight dumps to {opts.flight_out}")
    if "scale" in names:
        # Sorted keys; wall seconds and RSS are host facts and vary,
        # but every virtual-time field (virtual_us, events, packet
        # counters) is deterministic -- CI compares those between
        # serial and --jobs N runs.
        scale_out = opts.scale_out or "BENCH_SCALE.json"
        report = {"schema": 1, "quick": opts.quick,
                  "host": parallel.host_record(opts.jobs),
                  "points": scale_payload or {}}
        with open(scale_out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(report['points'])} scale records to"
              f" {scale_out}")
    if opts.faults_out is not None:
        # Sorted keys + fixed float formatting (the records only hold
        # rounded floats) make the file safe to byte-compare between
        # serial and --jobs N runs.
        report = {"schema": 1, "quick": opts.quick,
                  "scenarios": chaos_payload or {}}
        with open(opts.faults_out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(report['scenarios'])} chaos scenario"
              f" records to {opts.faults_out}")

    if failed:
        print(f"{failed} experiment(s) had failing shape checks")
        return 1
    print("all shape checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
