"""Tests for the LAPI_Putv/Getv extension (section 6 future work #1)."""

import pytest

from repro.errors import LapiError
from repro.faults import FaultSchedule, GilbertElliott
from repro.machine.config import SP_1998

from .conftest import run_spmd


def _strided_layout(mem, nruns=6, run_len=40, stride=64):
    """Allocate a region with ``nruns`` runs spaced ``stride`` apart."""
    base = mem.malloc(nruns * stride)
    addrs = [base + i * stride for i in range(nruns)]
    return base, addrs


class TestPutv:
    def test_scatters_all_runs(self, progress_mode):
        nruns, run_len = 6, 40

        def main(task):
            lapi = task.lapi
            mem = task.memory
            _, dst = _strided_layout(mem, nruns, run_len)
            src = mem.malloc(nruns * run_len)
            tgt = lapi.counter()
            yield from lapi.gfence()
            if task.rank == 0:
                for i in range(nruns):
                    mem.write(src + i * run_len,
                              bytes([i + 1]) * run_len)
                runs = [(dst[i], src + i * run_len, run_len)
                        for i in range(nruns)]
                yield from lapi.putv(1, runs, tgt_cntr=tgt.id)
                yield from lapi.fence()
            else:
                yield from lapi.waitcntr(tgt, 1)
                return [mem.read(dst[i], run_len) for i in range(nruns)]

        results = run_spmd(main, interrupt_mode=progress_mode)
        for i, blob in enumerate(results[1]):
            assert blob == bytes([i + 1]) * 40

    def test_single_message_many_runs(self):
        """All runs travel as one message: one message id, packets
        packed densely (far fewer than one packet per run)."""
        nruns = 50
        run_len = 32

        def main(task):
            lapi = task.lapi
            mem = task.memory
            _, dst = _strided_layout(mem, nruns, run_len)
            src = mem.malloc(nruns * run_len)
            tgt = lapi.counter()
            yield from lapi.gfence()
            if task.rank == 0:
                runs = [(dst[i], src + i * run_len, run_len)
                        for i in range(nruns)]
                before = task.node.adapter.packets_sent
                yield from lapi.putv(1, runs, tgt_cntr=tgt.id)
                yield from lapi.fence()
                sent = task.node.adapter.packets_sent - before
                yield from lapi.gfence()
                return sent
            yield from lapi.waitcntr(tgt, 1)
            yield from lapi.gfence()

        sent = run_spmd(main)[0]
        # 50 runs x 32B = 1600B of data + subheaders: 2-3 packets, not 50.
        assert sent <= 4

    def test_long_run_straddles_packets(self):
        n = SP_1998.lapi_payload * 2 + 100

        def main(task):
            lapi = task.lapi
            mem = task.memory
            dst = mem.malloc(n)
            src = mem.malloc(n)
            tgt = lapi.counter()
            yield from lapi.gfence()
            if task.rank == 0:
                mem.write(src, bytes(i % 251 for i in range(n)))
                yield from lapi.putv(1, [(dst, src, n)],
                                     tgt_cntr=tgt.id)
                yield from lapi.fence()
            else:
                yield from lapi.waitcntr(tgt, 1)
                return mem.read(dst, n)

        assert run_spmd(main)[1] == bytes(i % 251 for i in range(n))

    def test_counters_and_local_fast_path(self):
        def main(task):
            lapi = task.lapi
            mem = task.memory
            dst = mem.malloc(64)
            src = mem.malloc(64)
            mem.write(src, b"V" * 64)
            org = lapi.counter()
            tgt = lapi.counter()
            yield from lapi.putv(task.rank, [(dst, src, 64)],
                                 tgt_cntr=tgt.id, org_cntr=org)
            yield from lapi.waitcntr(tgt, 1)
            yield from lapi.waitcntr(org, 1)
            return mem.read(dst, 64)

        assert run_spmd(main, nnodes=1)[0] == b"V" * 64

    def test_empty_runs_rejected(self):
        def main(task):
            try:
                yield from task.lapi.putv(0, [])
            except LapiError:
                return "rejected"

        assert run_spmd(main, nnodes=1)[0] == "rejected"


class TestGetv:
    def test_gathers_all_runs(self, progress_mode):
        nruns, run_len = 5, 48

        def main(task):
            lapi = task.lapi
            mem = task.memory
            _, remote = _strided_layout(mem, nruns, run_len)
            local = mem.malloc(nruns * run_len)
            if task.rank == 1:
                for i in range(nruns):
                    mem.write(remote[i], bytes([0x40 + i]) * run_len)
            yield from lapi.gfence()
            if task.rank == 0:
                org = lapi.counter()
                runs = [(remote[i], local + i * run_len, run_len)
                        for i in range(nruns)]
                yield from lapi.getv(1, runs, org_cntr=org)
                yield from lapi.waitcntr(org, 1)
                data = [mem.read(local + i * run_len, run_len)
                        for i in range(nruns)]
                yield from lapi.gfence()
                return data
            yield from lapi.gfence()

        results = run_spmd(main, interrupt_mode=progress_mode)
        for i, blob in enumerate(results[0]):
            assert blob == bytes([0x40 + i]) * 48

    def test_many_runs_multi_request_packets(self):
        """More runs than fit one request packet still work."""
        nruns = 100  # > GETV_RUNS_PER_PACKET

        def main(task):
            lapi = task.lapi
            mem = task.memory
            _, remote = _strided_layout(mem, nruns, 16, stride=24)
            local = mem.malloc(nruns * 16)
            if task.rank == 1:
                for i in range(nruns):
                    mem.write(remote[i], bytes([i % 251]) * 16)
            yield from lapi.gfence()
            if task.rank == 0:
                org = lapi.counter()
                runs = [(remote[i], local + i * 16, 16)
                        for i in range(nruns)]
                yield from lapi.getv(1, runs, org_cntr=org)
                yield from lapi.waitcntr(org, 1)
                ok = all(mem.read(local + i * 16, 16)
                         == bytes([i % 251]) * 16
                         for i in range(nruns))
                yield from lapi.gfence()
                return ok
            yield from lapi.gfence()

        assert run_spmd(main)[0] is True

    def test_getv_survives_loss(self):
        faults = FaultSchedule([GilbertElliott(loss_good=0.15)])

        def main(task):
            lapi = task.lapi
            mem = task.memory
            _, remote = _strided_layout(mem, 4, 64)
            local = mem.malloc(4 * 64)
            if task.rank == 1:
                for i in range(4):
                    mem.write(remote[i], bytes([i + 1]) * 64)
            yield from lapi.gfence()
            if task.rank == 0:
                org = lapi.counter()
                runs = [(remote[i], local + i * 64, 64)
                        for i in range(4)]
                yield from lapi.getv(1, runs, org_cntr=org)
                yield from lapi.waitcntr(org, 1)
                ok = all(mem.read(local + i * 64, 64)
                         == bytes([i + 1]) * 64 for i in range(4))
                yield from lapi.gfence()
                return ok
            yield from lapi.gfence()

        assert run_spmd(main, faults=faults, seed=5)[0] is True


class TestGaVectorBackend:
    def test_ga_roundtrip_with_vector_rmc(self):
        import numpy as np

        from repro.ga.config import GA_DEFAULTS
        from repro.machine import Cluster

        data = np.arange(40 * 40, dtype=np.float64).reshape(40, 40)

        def main(task):
            ga = task.ga
            h = yield from ga.create((128, 128))
            yield from ga.zero(h)
            sec = (10, 49, 10, 49)
            if task.rank == 0:
                yield from ga.put_ndarray(h, sec, data)
            yield from ga.sync()
            got = yield from ga.get_ndarray(h, sec)
            return bool(np.array_equal(got, data))

        cluster = Cluster(nnodes=4, seed=2)
        results = cluster.run_job(
            main, ga_backend="lapi",
            ga_config=GA_DEFAULTS.replace(use_vector_rmc=True))
        assert all(results)
