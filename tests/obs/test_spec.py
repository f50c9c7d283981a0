"""ObsSpec: the one observability handle from the CLI to the cluster."""

import gzip
import json

import pytest

from repro.bench import __main__ as cli
from repro.bench import parallel, runner
from repro.errors import SimulationError
from repro.machine import Cluster
from repro.obs import ObsSpec
from repro.sim import trace as sim_trace


@pytest.fixture
def restore_engine():
    yield
    runner.configure_observability()
    parallel.configure(1)


class TestSpec:
    def test_parse_names_in_table_order(self):
        spec = ObsSpec.parse("flight, metrics,trace")
        assert spec.names == {"flight", "metrics", "trace"}
        assert spec.ordered() == ["metrics", "trace", "flight"]
        assert spec.files == ["trace", "flight"]
        assert ObsSpec.parse("") == ObsSpec()

    def test_unknown_artifact_rejected(self):
        with pytest.raises(SimulationError, match="choose from"):
            ObsSpec.parse("metrics,spam")

    @pytest.mark.parametrize("names,armed", [
        ((), (False, False, False, False)),
        (("metrics",), (False, False, False, False)),
        (("trace",), (True, False, False, False)),
        (("decompose",), (False, True, False, False)),
        (("flight",), (False, False, False, True)),
        (("timeline",), (False, False, True, False)),
        (("timeline", "flight"), (False, False, True, True)),
    ])
    def test_cluster_builds_only_the_named_recorders(self, names, armed):
        cluster = Cluster(nnodes=2, obs=ObsSpec(names))
        assert (cluster.trace is not None, cluster.spans is not None,
                cluster.telemetry is not None,
                cluster.sim.flight is not None) == armed

    def test_artifacts_of_one_recorder_share_a_payload(self):
        cluster = Cluster(nnodes=2, obs=ObsSpec({"spans", "decompose"}))
        cap = ObsSpec({"spans", "decompose"}).capture(cluster)
        assert cap.artifacts["spans"] is cap.artifacts["decompose"]


class TestCli:
    def test_file_artifact_needs_obs_out(self, restore_engine, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--obs", "metrics,timeline", "table1"])
        assert exc.value.code == 2
        assert "--obs-out" in capsys.readouterr().err

    def test_unknown_artifact_exits_2(self, restore_engine, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--obs", "tracing", "table1"])
        assert exc.value.code == 2
        assert "tracing" in capsys.readouterr().err

    def test_trace_write_line_reports_the_cap(self, restore_engine,
                                              tmp_path, capsys,
                                              monkeypatch):
        monkeypatch.setattr(sim_trace, "TRACE_LIMIT", 10)
        assert cli.main(["--obs", "trace", "--obs-out", str(tmp_path),
                         "pipeline"]) == 0
        [line] = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("wrote ")]
        records = gzip.decompress(
            (tmp_path / "trace.jsonl.gz").read_bytes()).splitlines()
        assert line.startswith(f"wrote {len(records)} trace records")
        assert "more dropped: the cap is 10 per cluster" in line
        assert all(json.loads(r)["time_us"] >= 0 for r in records)
