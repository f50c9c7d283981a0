"""Telemetry contracts: zero perturbation, jobs-N byte-identity.

The ``timeline`` / ``flight`` artifacts of ``--obs`` are
purely observational: arming it must not move a single virtual-time
observable, and every artifact it writes must be byte-identical
between ``--jobs 1`` and ``--jobs N`` and with or without the flags
that do not feed it.
"""

import json

import pytest

from repro.bench import __main__ as cli
from repro.bench import parallel, runner
from repro.bench.runner import fresh_cluster
from repro.obs import ObsSpec


@pytest.fixture
def restore_engine():
    yield
    runner.configure_observability()
    parallel.configure(1)


def put_workload(task):
    lapi = task.lapi
    n = 4096
    buf = task.memory.malloc(n)
    yield from lapi.gfence()
    if task.rank == 0:
        src = task.memory.malloc(n)
        for _ in range(6):
            yield from lapi.put(1, n, buf, src)
        yield from lapi.fence()
    yield from lapi.gfence()


class TestZeroPerturbation:
    def _run(self, obs):
        cluster = fresh_cluster(2, seed=0xBE1, obs=obs)
        cluster.run_job(put_workload, stacks=("lapi",))
        return cluster

    def test_armed_run_matches_disarmed_virtual_time(self,
                                                     restore_engine):
        disarmed = self._run(ObsSpec())
        armed = self._run(ObsSpec({"timeline", "flight"}))
        assert armed.sim.now == disarmed.sim.now
        assert armed.sim.events_processed == \
            disarmed.sim.events_processed
        assert armed.metrics.render() == disarmed.metrics.render()
        # And the armed run actually recorded something.
        assert armed.telemetry.snapshot()["series"]

    def test_armed_snapshot_is_deterministic(self, restore_engine):
        cfg = ObsSpec({"timeline", "flight"})
        a = self._run(cfg).telemetry.snapshot()
        b = self._run(cfg).telemetry.snapshot()
        assert a == b
        dump = lambda s: json.dumps(s, sort_keys=True)
        assert dump(a) == dump(b)


class TestCliArtifactIdentity:
    def _chaos_run(self, tmp_path, tag, jobs):
        out = tmp_path / tag
        paths = {
            "timeline": out / "timeline.jsonl",
            "flight": out / "flight.jsonl",
            "faults": tmp_path / f"faults_{tag}.json",
        }
        argv = ["--quick", "--faults-out", str(paths["faults"]),
                "--obs", "timeline,flight", "--obs-out", str(out),
                "--jobs", str(jobs), "chaos"]
        assert cli.main(argv) == 0
        return {k: p.read_bytes() for k, p in paths.items()}

    def test_jobs4_artifacts_match_serial(self, restore_engine,
                                          tmp_path, capsys):
        serial = self._chaos_run(tmp_path, "serial", jobs=1)
        pooled = self._chaos_run(tmp_path, "pooled", jobs=4)
        assert pooled["timeline"] == serial["timeline"]
        assert pooled["flight"] == serial["flight"]
        assert pooled["faults"] == serial["faults"]
        # The artifacts carry real content, not empty parity.
        assert serial["timeline"].count(b"\n") > 10
        assert serial["flight"].count(b"\n") > 0

    def test_faults_out_identical_without_telemetry_flags(
            self, restore_engine, tmp_path, capsys):
        """The chaos records are a pure function of the job args:
        arming telemetry with --obs must not change a byte of
        --faults-out."""
        bare = tmp_path / "faults_bare.json"
        assert cli.main(["--quick", "--faults-out", str(bare),
                         "chaos"]) == 0
        armed = self._chaos_run(tmp_path, "armed", jobs=1)
        assert bare.read_bytes() == armed["faults"]
        record = json.loads(bare.read_text())
        burst = record["scenarios"]["burst"]
        assert burst["goodput_windows"]
        assert burst["detection_us"] is not None
        assert burst["recovered_us"] > burst["detection_us"]
