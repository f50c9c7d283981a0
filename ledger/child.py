"""One ledger child: a fresh interpreter measuring one workload.

Run by ``ledger/run.py`` (never imported by it), one child at a time.
Prints a single JSON object as its last line of standard output.

``--mode setup`` stops after set-up: CPU seconds from interpreter
start until ``repro`` is imported and the workload's inputs exist.
``--mode measure`` goes on to one untimed warm-up repetition and the
timed repetitions, and with ``--trace 1`` to the per-layer phases: a
counter repetition (public counters read off every finished cluster),
a ``cProfile`` repetition (rows summed by sub-package), and the
isolated probes.  Tracing never overlaps the timed repetitions.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import resource
import sys
import time
from statistics import mean

import repro
from repro.bench import runner

import probes
from metrics import LAYERS
from recorder import Recorder, speedometer
from workloads import WORKLOADS

#: Timed repetitions per run: never fewer (the issue's floor), never
#: more, and in between until ``--seconds`` is used up.
MIN_REPS, MAX_REPS = 5, 12
_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_LEDGER_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


def layer_of(code) -> str:
    """The layer a profile entry belongs to, by the file of its code.

    ``builtins`` is the catch-all for time outside the tree: C
    builtins (which the profiler names by string, not code object),
    the standard library, generated code such as dataclass methods,
    and ``repro``'s few top-level modules.  numpy's C functions have no
    file; their names carry it.
    """
    if isinstance(code, str):
        return "numpy" if "numpy" in code else "builtins"
    filename = code.co_filename
    if filename.startswith(_REPRO_DIR):
        head = filename[len(_REPRO_DIR):].split(os.sep, 1)[0]
        return head if head in LAYERS else "builtins"
    if filename.startswith(_LEDGER_DIR):
        return "driver"
    return "numpy" if "numpy" in filename else "builtins"


def attribute(profile: cProfile.Profile) -> dict:
    """Sum profile entries (self seconds, call counts) by layer.

    Read straight from ``getstats()``: ``pstats`` keys rows by (file,
    line, name), so distinct code objects sharing a label -- every
    dataclass ``__init__`` is ``<string>:2`` -- overwrite each other in
    an order that follows memory addresses, and counts stop repeating.
    """
    layers = {name: {"self_cpu_s": 0.0, "calls": 0} for name in LAYERS}
    for entry in profile.getstats():
        layer = layers[layer_of(entry.code)]
        layer["self_cpu_s"] += entry.inlinetime
        layer["calls"] += entry.callcount
    return layers


def one_rep(workload, inputs, rec: Recorder, label: str):
    gc.collect()
    with rec.rep(label) as rep:
        extras = workload.run(inputs, rec) or {}
    return rep, extras


def lane_check(workload, rep) -> list:
    """The workload's train-lane assertion on one repetition."""
    if workload.train_share is None or not rep.packets_sent:
        return []
    share = rep.train_packets / rep.packets_sent
    lo, hi = workload.train_share
    if lo <= share <= hi:
        return []
    return [f"train packet share {share:.3f} outside [{lo}, {hi}]"]


def measure(args) -> dict:
    workload = WORKLOADS[args.workload]
    runner.configure_observability(capture=True)
    inputs = workload.make_inputs(args.seed, args.smoke)
    out = {"workload": workload.name, "seed": args.seed,
           "smoke": args.smoke, "setup_cpu_s": time.process_time()}
    out["setup_speed_s"] = mean(speedometer() for _ in range(3))
    if args.mode == "setup":
        return out

    rec = Recorder()
    attempted = failed = 0
    failures: list = []

    def account(rep, first) -> None:
        """Fold one repetition's ops into the totals; every rep after
        the first must also reproduce the first's virtual digest."""
        nonlocal attempted, failed
        misses = lane_check(workload, rep)
        if first is not None and rep.digest != first.digest:
            misses.append(f"virtual digest {rep.digest[:12]} differs from"
                          f" the first repetition's {first.digest[:12]}")
        attempted += rep.attempted + 1
        failed += rep.failed + bool(misses)
        failures.extend(rep.failures + misses)

    min_reps = 2 if args.smoke else MIN_REPS
    with rec.span(f"workload:{workload.name}"):
        warmup, extras = one_rep(workload, inputs, rec, "rep:warmup")
        account(warmup, None)
        reps = []
        deadline = time.perf_counter() + args.seconds
        while len(reps) < min_reps or (time.perf_counter() < deadline
                                       and len(reps) < MAX_REPS):
            rep, _ = one_rep(workload, inputs, rec, f"rep:{len(reps) + 1}")
            account(rep, warmup)
            reps.append(rep)
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1e3

        out.update({
            "warmup_cpu_s": warmup.cpu_s,
            "rep_cpu_s": [r.cpu_s for r in reps],
            "rep_speed_s": [mean(r.speed_s) for r in reps],
            "peak_rss_mb": peak_rss_mb,
            "virtual_us": warmup.virtual_us,
            "events": warmup.events,
            "packets_sent": warmup.packets_sent,
            "train_packets": warmup.train_packets,
            "virtual_digest": warmup.digest,
            # Per job: exact events and ops, and the cheapest run over
            # the timed repetitions.
            "jobs": {name: {**job, "cpu_s": min(r.jobs[name]["cpu_s"]
                                                for r in reps)}
                     for name, job in warmup.jobs.items()},
            **extras,
        })

        if args.trace:
            rec.calibrating = False
            rec.counting = True
            counted, _ = one_rep(workload, inputs, rec, "rep:counters")
            rec.counting = False
            account(counted, warmup)
            profile = cProfile.Profile()
            gc.collect()
            profile.enable()
            profiled, _ = one_rep(workload, inputs, rec, "rep:profile")
            profile.disable()
            account(profiled, warmup)
            out["trace"] = {"counters": rec.counters,
                            "layers": attribute(profile),
                            "profiled_rep_cpu_s": profiled.cpu_s}
    if args.trace:
        out["trace"]["probes"] = probes.run_probes(args.smoke)
        out["trace"]["spans"] = rec.spans
    out.update({"ops_attempted": attempted, "ops_failed": failed,
                "failures": failures[:20]})
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--mode", choices=("setup", "measure"),
                        default="measure")
    result = measure(parser.parse_args())
    sys.stdout.write("\n" + json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
