"""Judge two ledger reports (or several alternating pairs) against the
benchmark's own bounds.

    python ledger/compare.py A.json B.json [A2.json B2.json ...]

A is the parent, B the change.  One row per (workload, end-to-end
metric): both medians, the ratio B/A with its base, the bound, and a
verdict:

* ``worse``      -- B is worse than A by more than the bound;
* ``better``     -- B is better than A by more than both the bound and
                    the spread, and (with several pairs) wins at least
                    nine tenths of them;
* ``same``       -- within the bound, and the spread is too;
* ``unresolved`` -- within the bound, but the run-to-run spread is wider
                    than the bound, so "no regression" cannot be
                    asserted from these runs.

The spread is the interquartile distance of A's runs over their median
when there are at least four pairs; with fewer it is the within-run
spread the reports carry (repetitions, set-up samples).  Simulated
results compare by equality, as do the virtual digest and every exact
per-layer count; any difference there is a model change, not noise.

Exit status is 1 when any row reads ``worse`` or any exact value
differs, so the script can gate a change.
"""

from __future__ import annotations

import json
import sys
from statistics import median

from metrics import END_TO_END, EXACT, spread

__all__ = ["verdict", "compare"]


def verdict(a_runs: list, b_runs: list, bound: float, noise: float,
            better: str = "lower") -> str:
    """The verdict for one bounded metric over paired runs."""
    sign = 1.0 if better == "lower" else -1.0
    a, b = median(a_runs), median(b_runs)
    worse_by = sign * (b - a) / a
    if worse_by > bound:
        return "worse"
    wins = sum(sign * (y - x) < 0 for x, y in zip(a_runs, b_runs))
    ties = sum(x == y for x, y in zip(a_runs, b_runs))
    if (-worse_by > max(bound, noise)
            and wins >= 0.9 * (len(a_runs) - ties)):
        return "better"
    return "unresolved" if noise > bound else "same"


def _runs(reports: list, workload: str, metric: str) -> tuple:
    entries = [r["workloads"][workload]["end_to_end"][metric]
               for r in reports]
    return [e["value"] for e in entries], max(e["spread"] for e in entries)


def compare(a_reports: list, b_reports: list, out=sys.stdout) -> bool:
    """Print the comparison; True when nothing is worse or changed."""
    ok = True
    workloads = [w for w in a_reports[0]["workloads"]
                 if all(w in r["workloads"] for r in a_reports + b_reports)]
    print(f"{len(a_reports)} pair(s); A = parent, B = change", file=out)
    print(f"{'workload':<12} {'metric':<12} {'A':>12} {'B':>12}"
          f" {'B/A':>7} {'bound':>6} {'spread':>7}  verdict", file=out)
    for workload in workloads:
        for metric, (unit, better, bound) in END_TO_END.items():
            a_runs, a_noise = _runs(a_reports, workload, metric)
            b_runs, b_noise = _runs(b_reports, workload, metric)
            noise = (spread(a_runs) if len(a_runs) >= 4
                     else max(a_noise, b_noise))
            a, b = median(a_runs), median(b_runs)
            v = verdict(a_runs, b_runs, bound, noise, better)
            ok &= v != "worse"
            print(f"{workload:<12} {metric:<12} {a:>12.6g} {b:>12.6g}"
                  f" {b / a:>7.3f} {bound:>6.0%} {noise:>7.1%}  {v}"
                  f"  (base {a:.6g} {unit})", file=out)

    print("\nsimulated results (exact; first pair)", file=out)
    a_first, b_first = a_reports[0], b_reports[0]
    for workload in workloads:
        ea = a_first["workloads"][workload]["exact"]
        eb = b_first["workloads"][workload]["exact"]
        for metric in list(EXACT) + ["virtual_digest"]:
            if metric not in ea and metric not in eb:
                continue
            va, vb = ea.get(metric), eb.get(metric)
            if va == vb:
                v = "same"
            elif metric in ("virtual_us", "paper_err_pct"):
                v = "worse" if vb > va else "better"
            else:
                v = "changed"
            ok &= v == "same"
            shown = (f"{va!r} -> {vb!r}" if v != "same" else f"{va!r}")
            print(f"{workload:<12} {metric:<22} {v:<8} {shown}", file=out)

    print("\nexact per-layer counts (first pair)", file=out)
    for workload in workloads:
        la = a_first["workloads"][workload].get("per_layer")
        lb = b_first["workloads"][workload].get("per_layer")
        if not la or not lb:
            print(f"{workload:<12} not traced in both reports", file=out)
            continue
        counts = [m for m, e in la.items() if e["unit"] == "count"]
        differ = [m for m in counts if la[m]["value"] != lb[m]["value"]]
        print(f"{workload:<12} {len(counts)} counts compared,"
              f" {len(differ)} differ", file=out)
        for metric in differ:
            ok = False
            va, vb = la[metric]["value"], lb[metric]["value"]
            ratio = f" ({vb / va:.4f}x of base {va})" if va else ""
            print(f"{'':<12} {metric:<28} {va} -> {vb}{ratio}", file=out)
    return ok


def main(argv: list) -> int:
    if len(argv) < 2 or len(argv) % 2:
        print(__doc__, file=sys.stderr)
        return 2
    reports = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            reports.append(json.load(fh))
    return 0 if compare(reports[0::2], reports[1::2]) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
