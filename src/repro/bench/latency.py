"""Table 2 (latency) and the section-4 pipeline-latency experiments.

All measurements use 4-byte messages between two nodes, matching the
paper's setup, and report virtual microseconds:

* **one-way latency** ("polling" row): time from the origin starting
  its call to the data being available at the target (the target's
  wait completing);
* **round trip**: origin sends, target echoes 4 bytes back on arrival,
  origin waits for the echo;
* **pipeline latency**: time for the *non-blocking* LAPI_Put/Get call
  to return control to the user program.

The LAPI rows run the LAPI stack in polling or interrupt mode; the
MPI/MPL rows use send/recv ping-pong, with the interrupt round trip
going through ``rcvncall`` exactly as the paper footnotes.
"""

from __future__ import annotations

from typing import Generator

from ..machine.config import SP_1998, MachineConfig
from .paper import PIPELINE, TABLE2
from .parallel import Deferred, JobSpec, submit
from .report import ExperimentResult
from .runner import fresh_cluster, mean

__all__ = ["submit_table2", "submit_pipeline_latency", "lapi_pingpong",
           "mpl_pingpong",
           "lapi_pingpong_job", "mpl_pingpong_job", "table2_jobs",
           "pipeline_latency_job"]

#: Ping-pong repetitions (first is treated as warm-up).
REPS = 12


def lapi_pingpong(cluster, *, interrupt_mode: bool):
    """Run the LAPI ping-pong; returns (one_way_us, round_trip_us)."""
    records = {}

    def main(task):
        lapi = task.lapi
        mem = task.memory
        buf = mem.malloc(8)
        echo = mem.malloc(8)
        src = mem.malloc(8)
        ping = lapi.counter("ping")
        pong = lapi.counter("pong")
        yield from lapi.gfence()
        one_way = []
        round_trip = []
        if task.rank == 0:
            for _ in range(REPS):
                t0 = task.now()
                yield from lapi.put(1, 4, buf, src, tgt_cntr=ping.id)
                yield from lapi.waitcntr(pong, 1)
                round_trip.append(task.now() - t0)
                records.setdefault("sends", []).append(t0)
            yield from lapi.gfence()
            records["round_trip"] = round_trip
        else:
            for _ in range(REPS):
                yield from lapi.waitcntr(ping, 1)
                records.setdefault("arrivals", []).append(task.now())
                yield from lapi.put(0, 4, echo, src, tgt_cntr=pong.id)
            yield from lapi.gfence()

    cluster.run_job(main, stacks=("lapi",),
                    interrupt_mode=interrupt_mode)
    one_way = [a - s for s, a in zip(records["sends"],
                                     records["arrivals"])]
    return mean(one_way), mean(records["round_trip"])


def mpl_pingpong(cluster, *, interrupt_mode: bool,
                 use_rcvncall: bool = False):
    """Run the MPI/MPL ping-pong; returns (one_way_us, round_trip_us).

    With ``use_rcvncall`` the echo comes from an interrupt-driven
    rcvncall handler (the paper's interrupt-mode measurement, which
    pays the AIX handler-context cost).
    """
    records = {}

    def main(task):
        mpl = task.mpl
        if task.rank == 1 and use_rcvncall:
            def echo_handler(t, src, tag, data):
                records.setdefault("arrivals", []).append(t.now())
                yield from t.mpl.send(src, b"echo", 4, tag=2)
            mpl.rcvncall(1, echo_handler)
        yield from mpl.barrier()
        if task.rank == 0:
            round_trip = []
            for _ in range(REPS):
                t0 = task.now()
                records.setdefault("sends", []).append(t0)
                yield from mpl.send(1, b"ping", 4, tag=1)
                yield from mpl.recv_bytes(1, tag=2)
                round_trip.append(task.now() - t0)
            records["round_trip"] = round_trip
            yield from mpl.barrier()
        else:
            if not use_rcvncall:
                for _ in range(REPS):
                    yield from mpl.recv_bytes(0, tag=1)
                    records.setdefault("arrivals",
                                       []).append(task.now())
                    yield from mpl.send(0, b"echo", 4, tag=2)
            yield from mpl.barrier()

    cluster.run_job(main, stacks=("mpl",), interrupt_mode=interrupt_mode)
    one_way = [a - s for s, a in zip(records["sends"],
                                     records["arrivals"])]
    return mean(one_way), mean(records["round_trip"])


def lapi_pingpong_job(config: MachineConfig = SP_1998, *,
                      interrupt_mode: bool = False):
    """Self-contained LAPI ping-pong job (builds its own cluster)."""
    return lapi_pingpong(fresh_cluster(2, config),
                         interrupt_mode=interrupt_mode)


def mpl_pingpong_job(config: MachineConfig = SP_1998, *,
                     interrupt_mode: bool = False,
                     use_rcvncall: bool = False):
    """Self-contained MPL ping-pong job (builds its own cluster)."""
    return mpl_pingpong(fresh_cluster(2, config),
                        interrupt_mode=interrupt_mode,
                        use_rcvncall=use_rcvncall)


def table2_jobs(config: MachineConfig = SP_1998) -> list[JobSpec]:
    """Table 2's four independent cluster measurements as specs."""
    return [
        JobSpec(lapi_pingpong_job, (config,),
                {"interrupt_mode": False},
                key=("table2", "lapi", "polling")),
        JobSpec(lapi_pingpong_job, (config,),
                {"interrupt_mode": True},
                key=("table2", "lapi", "interrupt")),
        JobSpec(mpl_pingpong_job, (config,),
                {"interrupt_mode": False},
                key=("table2", "mpl", "polling")),
        JobSpec(mpl_pingpong_job, (config,),
                {"interrupt_mode": True, "use_rcvncall": True},
                key=("table2", "mpl", "interrupt")),
    ]


def submit_table2(config: MachineConfig = SP_1998) -> Deferred:
    """Queue Table 2's measurements; ``finish()`` builds the table."""
    return Deferred(submit(table2_jobs(config)), _table2)



def _table2(values: list) -> ExperimentResult:
    ((lapi_ow, lapi_rt), (_, lapi_irt),
     (mpl_ow, mpl_rt), (_, mpl_irt)) = values

    result = ExperimentResult(
        experiment="table2",
        title="Latency measurements, 4-byte messages [us]",
        headers=["Measurement", "LAPI (paper)", "LAPI (sim)",
                 "MPI/MPL (paper)", "MPI/MPL (sim)"],
        rows=[
            ["polling", TABLE2[("lapi", "polling")], lapi_ow,
             TABLE2[("mpl", "polling")], mpl_ow],
            ["polling round-trip",
             TABLE2[("lapi", "polling_round_trip")], lapi_rt,
             TABLE2[("mpl", "polling_round_trip")], mpl_rt],
            ["interrupt round-trip",
             TABLE2[("lapi", "interrupt_round_trip")], lapi_irt,
             TABLE2[("mpl", "interrupt_round_trip")], mpl_irt],
        ])
    result.check("LAPI one-way beats MPI (polling)", lapi_ow < mpl_ow,
                 f"{lapi_ow:.1f} vs {mpl_ow:.1f}")
    result.check("LAPI round-trip beats MPI (polling)",
                 lapi_rt < mpl_rt, f"{lapi_rt:.1f} vs {mpl_rt:.1f}")
    result.check("interrupt round-trip costs more than polling (LAPI)",
                 lapi_irt > lapi_rt,
                 f"{lapi_irt:.1f} vs {lapi_rt:.1f}")
    result.check("interrupt round-trip costs more than polling (MPL)",
                 mpl_irt > mpl_rt, f"{mpl_irt:.1f} vs {mpl_rt:.1f}")
    ratio = mpl_irt / lapi_irt
    result.check("MPL interrupt RT ~2x LAPI's (paper: 200/89 = 2.2)",
                 1.5 <= ratio <= 3.2, f"ratio {ratio:.2f}")
    return result


def pipeline_latency_job(config: MachineConfig = SP_1998):
    """Measure non-blocking call return times; returns (put, get) us."""
    records = {}

    def main(task):
        lapi = task.lapi
        mem = task.memory
        buf = mem.malloc(64)
        src = mem.malloc(64)
        yield from lapi.gfence()
        if task.rank == 0:
            puts, gets = [], []
            for _ in range(REPS):
                t0 = task.now()
                yield from lapi.put(1, 4, buf, src)
                puts.append(task.now() - t0)
            yield from lapi.fence()
            org = lapi.counter()
            for _ in range(REPS):
                t0 = task.now()
                yield from lapi.get(1, 4, buf, src, org_cntr=org)
                gets.append(task.now() - t0)
            yield from lapi.waitcntr(org, REPS)
            records["put"] = mean(puts)
            records["get"] = mean(gets)
        yield from lapi.gfence()

    fresh_cluster(2, config).run_job(main, stacks=("lapi",))
    return records["put"], records["get"]


def submit_pipeline_latency(config: MachineConfig = SP_1998
                            ) -> Deferred:
    """Queue the pipeline-latency job; ``finish()`` builds the table."""
    future = submit([JobSpec(pipeline_latency_job, (config,),
                             key=("pipeline", "lapi"))])
    return Deferred(future, _pipeline_latency)



def _pipeline_latency(values: list) -> ExperimentResult:
    [(put_us, get_us)] = values
    result = ExperimentResult(
        experiment="pipeline",
        title="Pipeline latency: non-blocking call return time [us]",
        headers=["Call", "Paper", "Simulated"],
        rows=[["LAPI_Put", PIPELINE["put"], put_us],
              ["LAPI_Get", PIPELINE["get"], get_us]])
    result.check("Put pipeline latency near paper's 16us",
                 8.0 <= put_us <= 26.0, f"{put_us:.1f}us")
    result.check("Get pipeline latency near paper's 19us",
                 10.0 <= get_us <= 30.0, f"{get_us:.1f}us")
    result.check("Get costs slightly more than Put (request marshal)",
                 get_us > put_us, f"{get_us:.1f} > {put_us:.1f}")
    result.check("pipeline latency well below one-way latency",
                 put_us < TABLE2[("lapi", "polling")],
                 f"{put_us:.1f} < 34")
    return result
