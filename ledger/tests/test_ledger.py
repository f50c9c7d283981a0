"""Schema, determinism and verdict tests for the ledger.

Run with ``python -m pytest ledger/tests`` (not part of tier-1
``testpaths``).  Everything runs the ``--smoke`` size class: the same
code paths as the real workloads on a fraction of the work.
"""

import copy
import io
import json
import os
import re
import subprocess
import sys

import pytest

LEDGER = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(LEDGER)
sys.path.insert(0, LEDGER)

import compare  # noqa: E402
import metrics  # noqa: E402
import run as ledger_run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _smoke(tmp_path_factory, tag):
    out = tmp_path_factory.mktemp("ledger") / f"{tag}.json"
    done = subprocess.run(
        [sys.executable, os.path.join(LEDGER, "run.py"), "--smoke",
         "--trace", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    with open(out, encoding="utf-8") as fh:
        return json.load(fh), done.stdout, str(out)


@pytest.fixture(scope="module")
def first(tmp_path_factory):
    return _smoke(tmp_path_factory, "first")


@pytest.fixture(scope="module")
def second(tmp_path_factory):
    return _smoke(tmp_path_factory, "second")


def test_benchmark_json_matches_the_metric_dictionary():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert bench["paths"] == ["ledger"]
    assert bench["run_seconds"] == ledger_run.DEFAULT_SECONDS
    assert [w["name"] for w in bench["workloads"]] == \
        list(ledger_run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in bench["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in bench["per_layer"]} == metrics.PER_LAYER
    for entry in bench["workloads"] + bench["end_to_end"] + \
            bench["per_layer"]:
        assert NAME.match(entry["name"]), entry["name"]
        if "unit" in entry:
            assert UNIT.match(entry["unit"]), entry["unit"]
        if "why" in entry:
            assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
        if "bound" in entry:
            assert 0 < entry["bound"] <= 0.25
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in bench["end_to_end"])


def test_every_workload_reports_every_metric(first):
    report, stdout, out = first
    assert list(report["workloads"]) == list(ledger_run.WORKLOADS)
    for name, block in report["workloads"].items():
        assert block["ops_failed"] == 0, block["failures"]
        assert block["ops_attempted"] >= 1
        assert set(block["end_to_end"]) == set(metrics.END_TO_END)
        for metric, entry in block["end_to_end"].items():
            assert entry["value"] > 0, (name, metric)
            assert entry["unit"] == metrics.END_TO_END[metric][0]
        assert set(block["per_layer"]) == set(metrics.PER_LAYER)
        assert block["exact"]["virtual_us"] > 0
        assert len(block["exact"]["virtual_digest"]) == 64
        assert f"== {name} " in stdout
    assert "paper_err_pct" in report["workloads"]["paper_regen"]["exact"]
    with open(out + ".spans.json", encoding="utf-8") as fh:
        spans = json.load(fh)
    for name in ledger_run.WORKLOADS:
        by_id = {s["id"]: s for s in spans[name]}
        kinds = {s["name"].split(":")[0] for s in spans[name]}
        assert {"workload", "rep", "job", "run_job", "verify"} <= kinds
        for span in spans[name]:
            assert span["end_s"] >= span["start_s"]
            assert 0 <= span["self_s"] <= span["end_s"] - span["start_s"] \
                + 1e-9
            assert span["parent"] is None or span["parent"] in by_id


def test_layer_separation(first):
    layers = {name: block["per_layer"]
              for name, block in first[0]["workloads"].items()}

    def value(workload, metric):
        return layers[workload][metric]["value"]

    assert value("bulk", "machine.train_packet_share") >= 0.4
    assert value("smallmsg", "machine.train_packet_share") == 0
    assert value("chaos", "machine.train_packet_share") == 0
    for workload in layers:
        armed = workload == "chaos"
        assert (value(workload, "faults.calls") > 0) == armed
        assert value(workload, "obs.armed") == int(armed)
    for workload in ("smallmsg", "bulk", "scale"):
        assert value(workload, "ga.self_share") == 0
    assert value("paper_regen", "ga.calls") > 0


def test_exact_counts_repeat(first, second):
    for name, block in first[0]["workloads"].items():
        other = second[0]["workloads"][name]
        assert block["exact"] == other["exact"], name
        for metric, entry in block["per_layer"].items():
            # Call counts and event/packet counts repeat exactly.
            if entry["unit"] == "count":
                assert entry["value"] == other["per_layer"][metric][
                    "value"], (name, metric)


def test_compare_verdicts(first):
    # Host metrics of two smoke runs are all noise; verdicts are tested
    # on a report against edited copies of itself.
    sink = io.StringIO()
    assert compare.compare([first[0]], [copy.deepcopy(first[0])], out=sink)
    assert "worse" not in sink.getvalue()
    assert "changed" not in sink.getvalue()

    slower = copy.deepcopy(first[0])
    entry = slower["workloads"]["bulk"]["end_to_end"]["peak_rss_mb"]
    entry["value"] *= 1.20
    sink = io.StringIO()
    assert not compare.compare([first[0]], [slower], out=sink)
    row = [line for line in sink.getvalue().splitlines()
           if line.startswith("bulk") and "peak_rss_mb" in line]
    assert row and row[0].rstrip().split("  (base")[0].endswith("worse")

    changed = copy.deepcopy(first[0])
    changed["workloads"]["scale"]["exact"]["virtual_us"] += 1.0
    assert not compare.compare([first[0]], [changed], out=io.StringIO())


def test_verdict_rules():
    assert compare.verdict([1.0], [1.2], 0.10, 0.02) == "worse"
    assert compare.verdict([1.0], [1.05], 0.10, 0.02) == "same"
    assert compare.verdict([1.0], [1.05], 0.10, 0.15) == "unresolved"
    assert compare.verdict([1.0], [0.8], 0.10, 0.02) == "better"
    # Better by less than the spread is not a gain.
    assert compare.verdict([1.0], [0.8], 0.10, 0.30) == "unresolved"
    # Ten pairs: nine wins in ten are needed.
    a = [1.0] * 10
    assert compare.verdict(a, [0.8] * 9 + [1.1], 0.10, 0.02) == "better"
    assert compare.verdict(a, [0.8] * 6 + [1.1] * 4, 0.10, 0.02) == "same"


def test_refuses_to_run_without_the_simulator(tmp_path):
    bare = tmp_path / "ledger"
    bare.mkdir()
    for name in os.listdir(LEDGER):
        if name.endswith(".py"):
            (bare / name).write_text(
                open(os.path.join(LEDGER, name), encoding="utf-8").read(),
                encoding="utf-8")
    done = subprocess.run(
        [sys.executable, str(bare / "run.py"), "--workload", "bulk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
