"""The ledger: host cost of the simulator, end to end and by layer.

    python ledger/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace [0|1]] [--out FILE] [--smoke]

Runs the named workload (default: all five, one after another), checks
every output, and prints each metric by name with its unit.  Each
workload is measured in fresh child interpreters, strictly one at a
time; this parent only starts them and does arithmetic on what they
report, so it never imports ``repro`` itself.

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--out`` also writes the full report (both metric sets, the exact
simulated results, repetition statistics, host facts) and, when
tracing, the driver-side spans to ``FILE`` with ``.spans.json``
appended.  Exit status is non-zero when any op failed.

Everything is written under ``ledger/.work`` unless ``--out`` says
otherwise; nothing touches ``.repro/`` or any path outside the tree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile

import metrics
from recorder import span_self_times

LEDGER_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(LEDGER_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(LEDGER_DIR, ".work")

#: Keep in step with ``workloads.WORKLOADS`` (not imported: that would
#: pull ``repro`` into the parent).
WORKLOADS = ("paper_regen", "smallmsg", "bulk", "scale", "chaos")
DEFAULT_SEED = 1998
#: ``run_seconds`` of BENCHMARK.json.
DEFAULT_SECONDS = 10
#: Fresh interpreters timed for ``setup_s``.  They run after the
#: measuring child, which has filled the run's bytecode cache, so every
#: sample is a warm import (the cold one is ``bench.setup_cold_s``).
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170


def child_env(scratch: str) -> dict:
    """A hermetic environment: fixed hash seed, default scheduler, and
    the sweep cost cache and the bytecode cache pointed into the
    workload's scratch directory.

    The private bytecode cache makes ``setup_s`` independent of what
    ``__pycache__`` the tree happens to hold: the measuring child
    compiles, the set-up children after it import from the cache, as a
    user's second and later runs do.
    """
    env = dict(os.environ)
    for name in ("REPRO_SIM_SCHEDULER", "REPRO_SWEEP_ORDER",
                 "PYTHONDONTWRITEBYTECODE"):
        env.pop(name, None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = os.path.join(scratch, "pycache")
    env["REPRO_COST_CACHE"] = os.path.join(scratch, "job_costs.json")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_child(env: dict, **options) -> dict:
    """Run one child to completion and return the object it printed."""
    argv = [sys.executable, os.path.join(LEDGER_DIR, "child.py")]
    for key, value in options.items():
        if value is True:
            argv.append(f"--{key}")
        elif value is not False:
            argv += [f"--{key}", str(value)]
    done = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"ledger child {options} exited"
                           f" {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().rsplit("\n", 1)[-1])


def measure_workload(name: str, args) -> tuple:
    """One workload's report block (and its spans, when tracing).

    Every workload gets its own scratch directory, so each measuring
    child starts from an empty bytecode cache whether the workload runs
    alone or after four others.
    """
    common = {"workload": name, "seed": args.seed, "smoke": args.smoke}
    scratch = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    try:
        env = child_env(scratch)
        child = run_child(env, mode="measure", seconds=args.seconds,
                          trace=int(args.trace), **common)
        setups = [run_child(env, mode="setup", **common)
                  for _ in range(1 if args.smoke else SETUP_SAMPLES)]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    setups = [(c["setup_cpu_s"], c["setup_speed_s"]) for c in setups]
    reps = child["rep_cpu_s"]
    block = {
        "seed": args.seed,
        "end_to_end": metrics.end_to_end(child, setups),
        "exact": metrics.exact(child),
        "ops_attempted": child["ops_attempted"],
        "ops_failed": child["ops_failed"],
        "failures": child["failures"],
        # Raw host seconds and the speedometer reading beside each.
        "reps": {"n": len(reps), "cpu_s": reps,
                 "speed_s": child["rep_speed_s"],
                 "warmup_cpu_s": child["warmup_cpu_s"]},
        "setup_samples": setups,
    }
    spans = None
    if args.trace:
        block["per_layer"] = metrics.per_layer(child)
        spans = child["trace"]["spans"]
        span_self_times(spans)
    return block, spans


def print_block(name: str, block: dict) -> None:
    exact = block["exact"]
    reps = block["reps"]
    print(f"== {name} (seed {block['seed']}) ==")
    for metric, entry in block["end_to_end"].items():
        print(f"  {metric} = {entry['value']:.6g} {entry['unit']}"
              f"  (spread {entry['spread']:.1%})")
    for metric, unit in metrics.EXACT.items():
        if metric in exact:
            print(f"  {metric} = {exact[metric]!r} {unit}  (simulated,"
                  " exact)")
    print(f"  virtual_digest = {exact['virtual_digest']}")
    print(f"  ops_attempted = {block['ops_attempted']} count,"
          f" ops_failed = {block['ops_failed']} count")
    print(f"  reps = {reps['n']} timed after 1 warm-up"
          f" ({reps['warmup_cpu_s']:.3f} s); raw rep CPU s:"
          f" {' '.join(f'{c:.3f}' for c in reps['cpu_s'])}")
    if name == "paper_regen":
        print("  note: seed-independent by construction (the paper's"
              " inputs are fixed)")
    for failure in block["failures"]:
        print(f"  FAILED: {failure}")
    for metric, entry in block.get("per_layer", {}).items():
        print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")


def host_facts() -> dict:
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": sys.platform,
            "machine": platform.machine()}


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="drives cluster RNG seeds, op-size schedules"
                        " and fault dice")
    parser.add_argument("--seconds", type=float,
                        help="keep timing repetitions for this long (never"
                        " fewer than the workload's floor of 5); default"
                        f" {DEFAULT_SECONDS}, or 0 with --smoke")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="add the per-layer phases")
    parser.add_argument("--out", help="write the full report here")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny size class for ledger/tests")
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = 0 if args.smoke else DEFAULT_SECONDS

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"ledger: no simulator to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2

    os.makedirs(WORK, exist_ok=True)
    names = [args.workload] if args.workload else list(WORKLOADS)
    report = {"schema": 1, "host": host_facts(), "seed": args.seed,
              "seconds": args.seconds, "smoke": args.smoke,
              "trace": bool(args.trace), "workloads": {}}
    all_spans = {}
    for name in names:
        block, spans = measure_workload(name, args)
        report["workloads"][name] = block
        if spans is not None:
            all_spans[name] = spans
        print_block(name, block)

    out = args.out or os.path.join(WORK, "last.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    if all_spans:
        with open(out + ".spans.json", "w", encoding="utf-8") as fh:
            json.dump(all_spans, fh)
            fh.write("\n")

    blocks = report["workloads"].values()
    failed = sum(b["ops_failed"] for b in blocks)
    if args.workload:
        block = report["workloads"][args.workload]
        chosen = block["per_layer"] if args.trace else block["end_to_end"]
        print(json.dumps({
            "correct": failed == 0,
            "attempted": block["ops_attempted"],
            "failed": failed,
            "metrics": {name: {"value": entry["value"],
                               "unit": entry["unit"]}
                        for name, entry in chosen.items()}}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
