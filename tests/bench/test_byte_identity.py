"""Byte-identity of virtual-time observables across worker counts.

The acceptance contract of the sweep engine: the worker count is a
pure wall-clock optimization -- every rendered table, metrics
block, and span stream is byte-identical to the serial run.  These
tests drive the real CLI, diffing its output and its Perfetto span
file between ``--jobs 1`` and ``--jobs 4``.
"""

import pytest

from repro.bench import __main__ as cli
from repro.bench import parallel, runner
from repro.bench.latency import submit_table2
from repro.obs import ObsSpec


@pytest.fixture
def restore_engine():
    yield
    runner.configure_observability()
    parallel.configure(1)


def _cli_run(tmp_path, capsys, jobs):
    """``--quick --obs metrics,spans`` on fig2: the stdout lines that
    must match, and the span file's bytes."""
    out = tmp_path / f"obs_{jobs}"
    assert cli.main(["--quick", "--obs", "metrics,spans", "--obs-out",
                     str(out), "--jobs", str(jobs), "fig2"]) == 0
    spans = out / "spans.json.gz"
    out = [line for line in capsys.readouterr().out.splitlines()
           if not line.startswith(("(regenerated in", "parallel:",
                                   "wrote "))]
    return out, spans.read_bytes()


class TestSchedulingModesAreInvisible:
    def test_jobs4_matches_serial(self, restore_engine, tmp_path,
                                  capsys):
        serial_out, serial_spans = _cli_run(tmp_path, capsys, jobs=1)
        pooled_out, pooled_spans = _cli_run(tmp_path, capsys, jobs=4)
        assert pooled_out == serial_out
        assert pooled_spans == serial_spans
        assert any(line.startswith("-- metrics: fig2")
                   for line in serial_out)

    def test_spans_actually_captured(self, restore_engine):
        runner.configure_observability(ObsSpec({"spans"}))
        parallel.configure(4)
        submit_table2().finish()
        assert any(c.artifacts["spans"]
                   for c in runner.drain_captures()), \
            "worker-shipped span streams should be non-empty"
