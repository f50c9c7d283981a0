"""Causal span tracing: recorder primitives, decomposition, Chrome
export, and the two observability invariants.

The invariants the tentpole stands on:

1. *Zero perturbation* -- arming a :class:`SpanRecorder` cannot change
   any virtual-time number; a cluster runs to the identical ``sim.now``
   with spans on or off.
2. *Determinism* -- identical seeds produce byte-identical span
   streams, serially and through the parallel sweep engine.
"""

import gzip
import json

import pytest

from repro.bench import parallel, runner
from repro.bench.latency import lapi_pingpong_job
from repro.machine import Cluster
from repro.machine.config import SP_1998
from repro.machine.packet import Packet
from repro.obs import (MANDATORY_PHASES, PHASE_ORDER, SPAN_SCHEMA_KEYS,
                       ObsSpec, SpanRecorder, bucket_of, chrome_trace_events,
                       critical_path, decompose, percentile,
                       pool_stats, render_critical_path, render_decomposition,
                       span_to_dict, write_chrome_trace)


def _pkt(uid=0, src=0, dst=1, proto="lapi", kind="data", nbytes=64):
    return Packet(src=src, dst=dst, proto=proto, kind=kind,
                  header_bytes=16, payload=b"\0" * nbytes, uid=uid)


class TestSpanRecorder:
    def test_open_close_records_interval(self):
        sp = SpanRecorder()
        sid = sp.open(0, "lapi", "put", 1.0, dst=1, bytes=64)
        assert len(sp) == 0  # still open
        sp.close(sid, 5.0, packets=1)
        (span,) = sp.records
        assert (span.t0, span.t1) == (1.0, 5.0)
        assert span.phase == "op"
        assert span.fields == {"dst": 1, "bytes": 64, "packets": 1}

    def test_close_unknown_sid_is_noop(self):
        sp = SpanRecorder()
        sp.close(999, 1.0)
        assert len(sp) == 0

    def test_emit_and_sid_monotonic(self):
        sp = SpanRecorder()
        a = sp.emit(0, "lapi", "put", "call", 0.0, 9.0)
        b = sp.open(0, "lapi", "put", 9.0)
        assert b == a + 1

    def test_drain_orders_by_t0_then_sid(self):
        sp = SpanRecorder()
        sp.emit(0, "x", "a", "op", 5.0, 6.0)
        sp.emit(0, "x", "b", "op", 1.0, 2.0)
        sp.emit(0, "x", "c", "op", 1.0, 3.0)
        assert [s.op for s in sp.drain()] == ["b", "c", "a"]

    def test_limit_suppresses_visibly(self):
        sp = SpanRecorder(limit=2)
        for i in range(5):
            sp.emit(0, "x", "a", "op", float(i), float(i))
        assert len(sp) == 2
        assert sp.suppressed == 3

    def test_span_dict_schema(self):
        sp = SpanRecorder()
        sp.emit(0, "lapi", "put", "wire", 1.0, 2.5, flow=7, uid=7)
        (d,) = sp.span_dicts()
        assert tuple(d) == SPAN_SCHEMA_KEYS
        assert d["dur_us"] == 1.5
        assert d["flow"] == 7
        assert d["fields"] == {"uid": 7}


class TestPacketHooks:
    def test_bound_packet_full_lifecycle(self):
        sp = SpanRecorder()
        pkt = _pkt(uid=3)
        parent = sp.open(0, "lapi", "put", 0.0)
        sp.bind_packets(pkt.uid, 1, parent, "put", 64)
        sp.packet_submitted(pkt, 1.0)
        sp.packet_tx_done(pkt, 2.0)
        sp.packet_delivered(pkt, 3.0)
        sp.packet_enqueued(pkt, 3.5)
        sp.packet_dispatched(pkt, 4.0)
        phases = [(s.phase, s.t0, s.t1, s.node) for s in sp.records]
        assert phases == [("tx", 1.0, 2.0, 0), ("wire", 2.0, 3.0, 0),
                          ("rx_dma", 3.0, 3.5, 1),
                          ("dispatch", 3.5, 4.0, 1)]
        assert all(s.parent == parent for s in sp.records)
        assert all(s.op == "put" for s in sp.records)
        wire = sp.records[1]
        assert wire.flow == 3  # pairs with rx_dma in the Chrome trace
        assert sp.records[2].flow == 3
        assert sp.origin_of(pkt) == parent

    def test_unbound_packet_still_tracked(self):
        sp = SpanRecorder()
        ack = _pkt(uid=9, kind="ack", nbytes=0)
        sp.packet_submitted(ack, 1.0)
        sp.packet_tx_done(ack, 2.0)
        (span,) = sp.records
        assert span.op == "ack"  # falls back to the packet kind
        assert span.parent is None

    def test_lost_packet_emits_terminal_wire_span(self):
        sp = SpanRecorder()
        pkt = _pkt(uid=4)
        sp.packet_submitted(pkt, 0.0)
        sp.packet_tx_done(pkt, 1.0)
        sp.packet_lost(pkt, 2.0)
        lost = sp.records[-1]
        assert lost.phase == "wire"
        assert lost.fields["lost"] is True
        assert lost.flow is None  # no arrow to a delivery that never was


class TestDecomposition:
    def test_bucket_of(self):
        assert bucket_of(None) == "ctrl"
        assert bucket_of(0) == "0B"
        assert bucket_of(256) == "<=256B"
        assert bucket_of(257) == "<=4KB"
        assert bucket_of(1 << 20) == "<=1MB"
        assert bucket_of((1 << 20) + 1) == ">1MB"

    def test_percentile_nearest_rank(self):
        vals = [1.0, 2.0, 3.0, 4.0]
        assert percentile(vals, 0.50) == 2.0
        assert percentile(vals, 0.99) == 4.0
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def _spans(self):
        sp = SpanRecorder()
        for i in range(4):
            sp.emit(0, "lapi", "put", "call", 0.0, 9.0, bytes=64)
            sp.emit(0, "lapi", "put", "tx", 9.0, 10.0 + i, bytes=64)
        sp.emit(0, "lapi", "put", "tx", 0.0, 2.0)  # control bucket
        return sp.span_dicts()

    def test_decompose_stats(self):
        stats = decompose(self._spans())
        call = stats["lapi"]["call"]["all"]
        assert call["count"] == 4
        assert call["mean_us"] == 9.0
        tx = stats["lapi"]["tx"]
        assert tx["all"]["count"] == 5
        assert set(tx["buckets"]) == {"<=256B", "ctrl"}

    def test_render_prints_mandatory_phases_with_dashes(self):
        text = render_decomposition(self._spans(), "unit")
        assert text.startswith("-- phase decomposition: unit --")
        for phase in MANDATORY_PHASES:
            assert f"\n  {phase:<14}" in text
        # Unobserved mandatory phases print a zero-count dash row.
        assert f"  {'hdr_handler':<14} {0:>7} {'-':>10}" in text

    def test_render_empty(self):
        assert "(no spans recorded)" in render_decomposition([], "x")

    def test_phase_order_is_table1_first(self):
        assert PHASE_ORDER[:7] == ["call", "tx", "wire", "rx_dma",
                                   "dispatch", "hdr_handler",
                                   "cmpl_handler"]


class TestCriticalPath:
    def _epoch_spans(self):
        sp = SpanRecorder()
        # Epoch 0: node 1 exits last; dispatch dominates its window.
        for node, t1 in [(0, 10.0), (1, 14.0)]:
            sp.emit(node, "lapi", "gfence", "op", 0.0, t1, epoch=0)
        sp.emit(1, "lapi", "put", "dispatch", 2.0, 9.0)
        sp.emit(1, "lapi", "put", "tx", 0.5, 1.5)
        sp.emit(0, "lapi", "put", "dispatch", 2.0, 9.5)  # not the gate
        return sp.span_dicts()

    def test_gate_node_and_phase(self):
        (row,) = critical_path(self._epoch_spans())
        assert row["epoch"] == 0
        assert row["nodes"] == 2
        assert row["gate_node"] == 1
        assert row["duration_us"] == 14.0
        assert row["gate_phase"] == "dispatch"
        assert row["gate_phase_us"] == 7.0

    def test_idle_gate(self):
        sp = SpanRecorder()
        sp.emit(0, "lapi", "gfence", "op", 0.0, 5.0, epoch=3)
        (row,) = critical_path(sp.span_dicts())
        assert row["gate_phase"] == "idle"

    def test_render_empty_without_epochs(self):
        assert render_critical_path([]) == ""

    def test_render_has_header(self):
        text = render_critical_path(self._epoch_spans())
        assert "critical path (gfence epochs):" in text


class TestChromeTrace:
    def _stream(self):
        sp = SpanRecorder()
        parent = sp.open(0, "lapi", "put", 0.0)
        pkt = _pkt(uid=5)
        sp.bind_packets(pkt.uid, 1, parent, "put", 64)
        sp.packet_submitted(pkt, 1.0)
        sp.packet_tx_done(pkt, 2.0)
        sp.packet_delivered(pkt, 3.0)
        sp.packet_enqueued(pkt, 3.5)
        sp.close(parent, 4.0)
        return sp.span_dicts()

    def test_flow_events_pair_wire_to_rx_dma(self):
        events = chrome_trace_events([self._stream()])
        starts = [e for e in events if e["ph"] == "s"]
        ends = [e for e in events if e["ph"] == "f"]
        assert len(starts) == len(ends) == 1
        assert starts[0]["id"] == ends[0]["id"]
        assert starts[0]["pid"] == 0   # source node
        assert ends[0]["pid"] == 1     # destination node
        assert starts[0]["ts"] == 3.0  # end of the wire span
        assert ends[0]["ts"] == 3.0    # start of the rx_dma span

    def test_lanes_never_overlap(self):
        sp = SpanRecorder()
        sp.emit(0, "x", "a", "op", 0.0, 10.0)
        sp.emit(0, "x", "b", "op", 2.0, 4.0)   # overlaps a -> new lane
        sp.emit(0, "x", "c", "op", 5.0, 6.0)   # fits lane 1 again
        events = [e for e in chrome_trace_events([sp.span_dicts()])
                  if e["ph"] == "X"]
        by_lane = {}
        for e in events:
            by_lane.setdefault(e["tid"], []).append(
                (e["ts"], e["ts"] + e["dur"]))
        for intervals in by_lane.values():
            intervals.sort()
            for (_, e0), (s1, _) in zip(intervals, intervals[1:]):
                assert s1 >= e0

    def test_cluster_pid_and_flow_namespacing(self):
        events = chrome_trace_events([self._stream(), self._stream()])
        pids = {e["pid"] for e in events if e["ph"] == "X"}
        assert pids == {0, 1, 100, 101}
        fids = {e["id"] for e in events if e["ph"] == "s"}
        assert len(fids) == 2  # same uid, distinct per-cluster flow ids

    def test_process_metadata_present(self):
        events = chrome_trace_events([self._stream()])
        names = {e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert names == {"cluster0/node0", "cluster0/node1"}

    def test_write_plain_and_gz_round_trip(self, tmp_path):
        stream = self._stream()
        plain = tmp_path / "t.json"
        gzed = tmp_path / "t.json.gz"
        n1 = write_chrome_trace([stream], plain)
        n2 = write_chrome_trace([stream], gzed)
        assert n1 == n2
        doc = json.loads(plain.read_text())
        gzdoc = json.loads(gzip.decompress(gzed.read_bytes()))
        assert doc == gzdoc
        assert len(doc["traceEvents"]) == n1

    def test_gz_output_is_byte_deterministic(self, tmp_path):
        stream = self._stream()
        a, b = tmp_path / "a.gz", tmp_path / "b.gz"
        write_chrome_trace([stream], a)
        write_chrome_trace([stream], b)
        assert a.read_bytes() == b.read_bytes()


def _put_job(spans):
    """One 2-node LAPI put/gfence cluster, spans armed or not; returns
    the cluster (its recorder is ``cluster.spans``)."""

    def main(task):
        lapi = task.lapi
        buf = task.memory.malloc(256)
        tgt = lapi.counter()
        yield from lapi.gfence()
        if task.rank == 0:
            src = task.memory.malloc(256)
            yield from lapi.put(1, 256, buf, src, tgt_cntr=tgt.id)
            yield from lapi.fence()
        else:
            yield from lapi.waitcntr(tgt, 1)
        yield from lapi.gfence()

    cluster = Cluster(nnodes=2,
                      obs=ObsSpec({"spans"}) if spans else ObsSpec())
    cluster.run_job(main, stacks=("lapi",))
    return cluster


class TestClusterIntegration:
    def test_real_cluster_produces_causal_spans(self):
        dicts = _put_job(True).spans.span_dicts()
        assert dicts, "a put/gfence job must produce spans"
        phases = {d["phase"] for d in dicts}
        assert {"call", "tx", "wire", "rx_dma", "dispatch",
                "counter_update", "op"} <= phases
        sids = {d["sid"] for d in dicts}
        op = next(d for d in dicts
                  if d["op"] == "put" and d["phase"] == "op")
        children = [d for d in dicts if d["parent"] == op["sid"]]
        assert children, "packet phases must parent to the put op span"
        # Every parent edge resolves (closed spans only, so the op
        # spans the children point to are all present).
        for d in dicts:
            if d["parent"] is not None:
                assert d["parent"] in sids

    def test_identical_seeds_identical_span_streams(self):
        a, b = _put_job(True).spans, _put_job(True).spans
        assert a.span_dicts() == b.span_dicts()

    def test_spans_do_not_perturb_virtual_time(self):
        bare = _put_job(False)
        traced = _put_job(True)
        assert traced.sim.now == bare.sim.now
        assert (traced.sim.events_processed
                == bare.sim.events_processed)
        assert len(traced.spans) > 0

    def test_consumed_acks_retire_their_span_tracks(self):
        # The transport retires each consumed ack's uid-keyed track, so
        # acks never pile up in the recorder's side table.  (An ack
        # still on the wire when the job ends keeps its track.)
        cluster = _put_job(True)
        acks = {d["fields"]["uid"] for d in cluster.spans.span_dicts()
                if d["op"] == "ack" and d["phase"] == "rx_dma"}
        assert acks
        assert not acks & cluster.spans._pkt.keys()
        assert (pool_stats(cluster)["span_tracks"]
                == {"tracks_live": len(cluster.spans._pkt)})

    def test_get_reply_copies_have_spans_like_put_copies(self):
        """Each packet a put lands at its target and each packet of a
        get's reply lands at its origin records a ``copy`` span."""
        nbytes = 4000
        npkts = -(-nbytes // SP_1998.lapi_payload)

        def main(task):
            lapi = task.lapi
            buf = task.memory.malloc(nbytes)
            yield from lapi.gfence()
            if task.rank == 0:
                yield from lapi.get_sync(1, nbytes, buf, buf)
                yield from lapi.put_sync(1, nbytes, buf, buf)
            yield from lapi.gfence()

        cluster = Cluster(nnodes=2, obs=ObsSpec({"spans"}))
        cluster.run_job(main, stacks=("lapi",))
        copies = [(s.op, s.node) for s in cluster.spans.records
                  if s.phase == "copy" and s.subsystem == "lapi"]
        assert npkts == 5
        assert copies.count(("get", 0)) == npkts
        assert copies.count(("put", 1)) == npkts


def _pingpong_job(shard):
    # ``shard`` only keeps the specs distinct: equal specs in one
    # submit are one job.
    return lapi_pingpong_job(interrupt_mode=False)


@pytest.fixture
def restore_engine():
    yield
    runner.configure_observability()
    parallel.configure(1)


class TestParallelParity:
    def test_jobs1_and_jobs4_span_streams_identical(self,
                                                    restore_engine):
        """Worker-shipped span dicts equal the serial in-process ones
        (uids and sids restart per cluster, so shard order is moot)."""
        specs = [parallel.JobSpec(_pingpong_job, (i,), key=("sp", i))
                 for i in range(3)]

        runner.configure_observability(ObsSpec({"spans"}), capture=True)
        parallel.configure(1)
        serial_values = parallel.sweep(specs)
        serial = [c.artifacts["spans"] for c in runner.drain_captures()]

        parallel.configure(4)
        par_values = parallel.sweep(specs)
        par = [c.artifacts["spans"] for c in runner.drain_captures()]

        assert par_values == serial_values
        assert len(serial) == len(par) == 3
        assert serial[0], "expected spans from the pingpong job"
        assert serial[0] == serial[1] == serial[2]
        assert par == serial
