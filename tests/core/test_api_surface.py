"""Table 1 completeness: every LAPI function group exists and works."""

import pytest

from repro.core import Lapi, LapiCounter, QenvKey, RmwOp, SenvKey
from repro.machine.config import SP_1998

from .conftest import run_spmd


class TestTable1Surface:
    """One test per row of the paper's Table 1."""

    def test_setup_init_term(self):
        # Init/Term are exercised by every job; assert the guard rails.
        from repro.errors import LapiError

        def main(task):
            try:
                yield from task.lapi.init()  # second init (run_job did one)
            except LapiError:
                return "double-init rejected"

        assert run_spmd(main, nnodes=1)[0] == "double-init rejected"

    def test_active_message_amsend_exists(self):
        assert callable(Lapi.amsend)

    def test_data_transfer_put_get_exist(self):
        assert callable(Lapi.put)
        assert callable(Lapi.get)

    def test_mutual_exclusion_rmw_has_four_ops(self):
        assert {op.name for op in RmwOp} == {
            "SWAP", "COMPARE_AND_SWAP", "FETCH_AND_ADD", "FETCH_AND_OR"}

    def test_signaling_counter_functions(self):
        def main(task):
            lapi = task.lapi
            c = lapi.counter()
            lapi.setcntr(c, 5)
            v = yield from lapi.getcntr(c)
            yield from lapi.waitcntr(c, 3)
            v2 = yield from lapi.getcntr(c)
            return v, v2

        assert run_spmd(main, nnodes=1)[0] == (5, 2)

    def test_ordering_fence_gfence(self):
        def main(task):
            yield from task.lapi.fence()
            yield from task.lapi.gfence()
            return "ok"

        assert run_spmd(main, nnodes=2) == ["ok", "ok"]

    def test_address_exchange(self):
        def main(task):
            table = yield from task.lapi.address_init(task.rank * 10)
            return table

        assert run_spmd(main, nnodes=2)[0] == [0, 10]

    def test_environment_query_setup(self):
        def main(task):
            lapi = task.lapi
            out = {k: lapi.qenv(k) for k in QenvKey}
            lapi.senv(SenvKey.ERROR_CHK, 1)
            yield from lapi.gfence()
            return out

        out = run_spmd(main, nnodes=2)[0]
        assert out[QenvKey.TASK_ID] == 0
        assert out[QenvKey.NUM_TASKS] == 2
        assert out[QenvKey.MAX_UHDR_SZ] == SP_1998.lapi_uhdr_max
        assert out[QenvKey.MAX_AM_PAYLOAD] == SP_1998.am_uhdr_payload
        assert out[QenvKey.MAX_PKT_PAYLOAD] == SP_1998.lapi_payload
        assert out[QenvKey.INTERRUPT_SET] == 1
        assert out[QenvKey.SEND_WINDOW] == SP_1998.lapi_window


class TestGuards:
    def test_use_before_init_rejected(self):
        from repro.errors import LapiError
        from repro.machine import Cluster

        cluster = Cluster(nnodes=1)
        # Build a Lapi by hand and call without init.
        from repro.machine.cluster import Task
        task = Task(cluster, 0, 1, cluster.nodes[0])
        lapi = Lapi(task)

        def body(thread):
            task.thread = thread
            try:
                yield from lapi.fence()
            except LapiError as exc:
                return str(exc)

        t = cluster.nodes[0].cpu.spawn(body)
        msg = cluster.sim.run_until_complete(t.process)
        assert "before LAPI_Init" in msg

    #: Each stack's misuse messages: use before init, use after term,
    #: init called twice.
    MISUSE = {
        "lapi": ("LAPI used before LAPI_Init", "LAPI used after LAPI_Term",
                 "LAPI_Init called twice"),
        "mpl": ("MPL used before init", "MPL used after term",
                "MPL init called twice"),
    }

    @pytest.mark.parametrize("stack,use", [
        ("lapi", lambda lapi: lapi.probe()),
        ("lapi", lambda lapi: lapi.setcntr(LapiCounter(0), 1)),
        ("lapi", lambda lapi: lapi.counter()),
        ("lapi", lambda lapi: lapi.local_counter()),
        ("lapi", lambda lapi: lapi.register_handler(print)),
        ("lapi", lambda lapi: lapi.set_interrupt_mode(True)),
        ("lapi", lambda lapi: lapi.qenv(QenvKey.INTERRUPT_SET)),
        ("lapi", lambda lapi: lapi.senv(SenvKey.INTERRUPT_SET, 1)),
        ("mpl", lambda mpl: mpl.iprobe(0, 0)),
        ("mpl", lambda mpl: mpl.waitall([])),
        ("mpl", lambda mpl: mpl.waitany([])),
        ("mpl", lambda mpl: mpl.barrier()),
        ("mpl", lambda mpl: mpl.bcast(b"x")),
        ("mpl", lambda mpl: mpl.reduce(1, max)),
        ("mpl", lambda mpl: mpl.allreduce(1, max)),
    ], ids=["lapi-probe", "lapi-setcntr", "lapi-counter",
            "lapi-local_counter", "lapi-register_handler",
            "lapi-set_interrupt_mode", "lapi-qenv", "lapi-senv",
            "mpl-iprobe", "mpl-waitall", "mpl-waitany",
            "mpl-barrier", "mpl-bcast", "mpl-reduce", "mpl-allreduce"])
    def test_misuse_rejected_on_both_stacks(self, stack, use):
        """Every public call that acts on a stack rejects use before
        init and after term; a second init is rejected too."""
        from repro.errors import LapiError, MplError
        from repro.machine import Cluster
        from repro.machine.cluster import Task
        from repro.mpl import Mpl

        before, after, twice = self.MISUSE[stack]

        def call_on(cluster, endpoint, call):
            def body(thread):
                try:
                    result = call(endpoint)
                    if result is not None and hasattr(result, "send"):
                        yield from result
                except (LapiError, MplError) as exc:
                    return str(exc)

            t = cluster.nodes[0].cpu.spawn(body)
            return cluster.sim.run_until_complete(t.process)

        cluster = Cluster(nnodes=1)
        task = Task(cluster, 0, 1, cluster.nodes[0])
        fresh = Lapi(task) if stack == "lapi" else Mpl(task)
        assert call_on(cluster, fresh, use) == before

        def main(task):
            try:
                yield from getattr(task, stack).init()
            except (LapiError, MplError) as exc:
                return task, str(exc)

        cluster = Cluster(nnodes=1)
        task, msg = cluster.run_job(main, stacks=(stack,))[0]
        assert msg == twice
        assert call_on(cluster, getattr(task, stack), use) == after

    def test_put_sync_unregisters_its_counter_when_the_put_raises(self):
        """``put_sync`` registers a counter for the call; a put that
        raises (here, after term) leaves the counter table as it was."""
        from repro.errors import LapiError
        from repro.machine import Cluster

        def main(task):
            yield from ()
            return task.lapi

        cluster = Cluster(nnodes=1)
        lapi = cluster.run_job(main, stacks=("lapi",))[0]
        before = list(lapi.ctx.counters)

        def body(thread):
            with pytest.raises(LapiError, match=self.MISUSE["lapi"][1]):
                yield from lapi.put_sync(0, 0, 0, 0)

        t = cluster.nodes[0].cpu.spawn(body)
        cluster.sim.run_until_complete(t.process)
        assert list(lapi.ctx.counters) == before

    def test_senv_toggles_interrupt_mode(self):
        def main(task):
            lapi = task.lapi
            before = lapi.qenv(QenvKey.INTERRUPT_SET)
            lapi.senv(SenvKey.INTERRUPT_SET, 0)
            mid = lapi.qenv(QenvKey.INTERRUPT_SET)
            lapi.senv(SenvKey.INTERRUPT_SET, 1)
            after = lapi.qenv(QenvKey.INTERRUPT_SET)
            yield from lapi.gfence()
            return before, mid, after

        assert run_spmd(main, nnodes=2)[0] == (1, 0, 1)

    def test_probe_drives_progress_in_polling(self):
        """A polling-mode task that only probes still receives data."""
        def main(task):
            lapi = task.lapi
            buf = task.memory.malloc(64)
            tgt = lapi.counter()
            yield from lapi.gfence()
            if task.rank == 0:
                src = task.memory.malloc(64)
                task.memory.write(src, b"P" * 64)
                yield from lapi.put(1, 64, buf, src, tgt_cntr=tgt.id)
                yield from lapi.fence()
                yield from lapi.gfence()
            else:
                while tgt.value < 1:
                    yield from lapi.probe()
                    yield from task.thread.sleep(5.0)
                data = task.memory.read(buf, 64)
                yield from lapi.gfence()
                return data

        assert run_spmd(main, interrupt_mode=False)[1] == b"P" * 64
