"""Structured trace export: JSONL schema, determinism, file writing."""

import gzip
import json

from repro.obs import ObsSpec, jsonl_lines, record_to_dict, write_trace_jsonl
from repro.sim import TraceRecord


def _sample_records():
    return [
        TraceRecord(1.25, "node0", "tx", "inject",
                    {"uid": 4, "kind": "data", "bytes": 1024}),
        TraceRecord(3.5, "switch", "route", "deliver", {"uid": 4}),
        TraceRecord(9.0, "node1", "rx", "receive"),
    ]


class TestRecordToDict:
    def test_schema_keys(self):
        d = record_to_dict(_sample_records()[0])
        assert set(d) == {"time_us", "node", "subsystem", "event",
                          "fields"}
        assert d["time_us"] == 1.25
        assert d["node"] == "node0"
        assert d["subsystem"] == "tx"
        assert d["event"] == "inject"
        assert d["fields"]["bytes"] == 1024

    def test_empty_fields_stay_empty_dict(self):
        d = record_to_dict(_sample_records()[2])
        assert d["fields"] == {}


class TestJsonlLines:
    def test_every_line_parses_back(self):
        lines = list(jsonl_lines(_sample_records()))
        assert len(lines) == 3
        for line in lines:
            parsed = json.loads(line)
            assert set(parsed) == {"time_us", "node", "subsystem",
                                   "event", "fields"}

    def test_encoding_is_deterministic(self):
        a = list(jsonl_lines(_sample_records()))
        b = list(jsonl_lines(_sample_records()))
        assert a == b

    def test_non_json_field_values_stringified(self):
        rec = TraceRecord(0.0, "n", "c", "m", {"obj": object()})
        parsed = json.loads(next(jsonl_lines([rec])))
        assert isinstance(parsed["fields"]["obj"], str)


class TestWriteTraceJsonl:
    def test_writes_and_counts_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        n = write_trace_jsonl(_sample_records(), path)
        assert n == 3
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert json.loads(lines[1])["subsystem"] == "route"

    def test_append_mode_extends_truncate_replaces(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace_jsonl(_sample_records(), path)
        write_trace_jsonl(_sample_records(), path, append=True)
        assert len(path.read_text().splitlines()) == 6
        write_trace_jsonl(_sample_records(), path)
        assert len(path.read_text().splitlines()) == 3

    def test_gz_path_round_trips(self, tmp_path):
        path = tmp_path / "trace.jsonl.gz"
        n = write_trace_jsonl(_sample_records(), path)
        assert n == 3
        lines = gzip.decompress(path.read_bytes()).decode().splitlines()
        assert len(lines) == 3
        assert json.loads(lines[0])["node"] == "node0"

    def test_gz_append_concatenates_members(self, tmp_path):
        path = tmp_path / "trace.jsonl.gz"
        write_trace_jsonl(_sample_records(), path)
        write_trace_jsonl(_sample_records(), path, append=True)
        lines = gzip.decompress(path.read_bytes()).decode().splitlines()
        assert len(lines) == 6

    def test_gz_output_is_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a.jsonl.gz", tmp_path / "b.jsonl.gz"
        write_trace_jsonl(_sample_records(), a)
        write_trace_jsonl(_sample_records(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_real_cluster_trace_round_trips(self, tmp_path):
        from repro.machine import Cluster

        def main(task):
            lapi = task.lapi
            buf = task.memory.malloc(64)
            yield from lapi.gfence()
            if task.rank == 0:
                src = task.memory.malloc(64)
                yield from lapi.put(1, 64, buf, src)
                yield from lapi.fence()
            yield from lapi.gfence()

        cluster = Cluster(nnodes=2, obs=ObsSpec({"trace"}))
        cluster.run_job(main, stacks=("lapi",))
        records = [r for r in cluster.trace.records
                   if r.category in ("tx", "rx", "route")]
        assert records, "trace should capture packet events"
        path = tmp_path / "cluster.jsonl"
        n = write_trace_jsonl(records, path)
        assert n == len(records)
        times = [json.loads(line)["time_us"]
                 for line in path.read_text().splitlines()]
        assert times == sorted(times)
