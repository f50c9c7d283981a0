"""Ablations: sweeping the design choices the paper calls out.

Each ablation isolates one constant the paper discusses and shows the
performance consequence the design argument predicts:

* **header size** -- section 4 blames LAPI's 48-byte one-sided header
  for its peak-bandwidth deficit and lists reducing it as future work;
* **eager limit** -- the MP_EAGER_LIMIT environment experiment of
  Figure 2, swept across the full range;
* **AM chunk size** -- GA's choice to pipeline medium messages in
  ~900-byte single-packet chunks (section 5.3.1);
* **hybrid threshold** -- GA's empirically-selected switch from AM
  pipelining to per-column RMC (section 5.3);
* **interrupt cost** -- how the polling/interrupt latency gap of
  Table 2 scales with the hardware's interrupt overhead.

Every ablation is a ``submit_*`` entry point: submission queues the
sweep on the shared scheduler (so ablations pipeline with every other
pending experiment) and ``finish()`` assembles the table.
"""

from __future__ import annotations

from ..ga.config import GA_DEFAULTS
from ..machine.config import SP_1998, MachineConfig
from .bandwidth import lapi_bandwidth_point, mpl_bandwidth_point
from .ga_putget import ga_transfer_rate
from .latency import lapi_pingpong_job
from .parallel import Deferred, JobSpec, submit
from .report import ExperimentResult

__all__ = ["submit_ablation_header", "submit_ablation_eager",
           "submit_ablation_chunk", "submit_ablation_hybrid",
           "submit_ablation_interrupt", "submit_ablation_noncontig"]


def submit_ablation_noncontig(config: MachineConfig = SP_1998
                              ) -> Deferred:
    """Future work #1: the vector RMC interface vs the 1998 protocols.

    Compares strided (2-D) GA transfers under three protocol choices:
    the default hybrid (AM chunks / AM+bulk-reply), the paper's exact
    per-column RMC switch, and the proposed non-contiguous
    LAPI_Putv/Getv extension -- quantifying what section 6 predicted:
    "removing the overhead associated with multiple requests or the
    copy overhead in the AM-based implementations".
    """
    sizes = [32768, 524288, 2097152]
    variants = {
        "hybrid (default)": GA_DEFAULTS,
        "per-column RMC": GA_DEFAULTS.replace(
            get_strided_rmc_threshold=512 * 1024),
        "vector putv/getv": GA_DEFAULTS.replace(use_vector_rmc=True),
    }
    combos = [(name, n) for name in variants for n in sizes]
    future = submit([JobSpec(ga_transfer_rate,
                             ("lapi", op, "2d", n, config,
                              variants[name]),
                             key=("ablation_noncontig", name, op, n))
                     for name, n in combos for op in ("put", "get")])
    return Deferred(future,
                    lambda values: _noncontig(values, combos, sizes))



def _noncontig(values: list, combos: list,
               sizes: list) -> ExperimentResult:
    rows = []
    rates: dict[tuple[str, str, int], float] = {}
    for i, (name, n) in enumerate(combos):
        put, get = values[2 * i], values[2 * i + 1]
        rates[(name, "put", n)] = put
        rates[(name, "get", n)] = get
        rows.append([name, n, put, get])
    result = ExperimentResult(
        experiment="ablation_noncontig",
        title="Strided 2-D GA transfers: hybrid vs per-column vs"
              " vector RMC [MB/s]",
        headers=["protocol", "bytes", "put", "get"],
        rows=rows)
    big = sizes[-1]
    result.check(
        "the vector interface beats per-column RMC (the overhead it"
        " was proposed to remove)",
        rates[("vector putv/getv", "get", big)]
        > rates[("per-column RMC", "get", big)],
        f"getv {rates[('vector putv/getv', 'get', big)]:.1f} vs"
        f" {rates[('per-column RMC', 'get', big)]:.1f}")
    result.check(
        "the vector interface is at least as good as the hybrid"
        " protocols at every probed size",
        all(rates[("vector putv/getv", op, n)]
            >= 0.95 * rates[("hybrid (default)", op, n)]
            for op in ("put", "get") for n in sizes))
    return result


def submit_ablation_header(config: MachineConfig = SP_1998
                           ) -> Deferred:
    """Sweep the LAPI packet header size (future-work item #1)."""
    headers = [16, 32, 48, 96]
    probe_small, probe_large = 4096, 2 * 1024 * 1024
    configs = {hdr: config.replace(lapi_header=hdr)
               for hdr in headers}
    future = submit([JobSpec(lapi_bandwidth_point,
                             (probe, configs[hdr]),
                             key=("ablation_header", hdr, probe))
                     for hdr in headers
                     for probe in (probe_small, probe_large)])
    return Deferred(future,
                    lambda values: _header(values, headers, configs))



def _header(values: list, headers: list,
            configs: dict) -> ExperimentResult:
    rows = []
    peaks = {}
    for i, hdr in enumerate(headers):
        small, large = values[2 * i], values[2 * i + 1]
        peaks[hdr] = large
        rows.append([hdr, configs[hdr].lapi_payload, small, large])
    result = ExperimentResult(
        experiment="ablation_header",
        title="LAPI header size vs bandwidth [MB/s]",
        headers=["header B", "payload B", "4KB msg", "2MB msg"],
        rows=rows)
    result.notes.append(
        "section 4: the 48B one-sided header costs LAPI its peak"
        " deficit vs MPI's 16B header; shrinking it is future work")
    result.check("smaller headers raise the asymptote",
                 peaks[16] > peaks[48] > peaks[96],
                 f"16B:{peaks[16]:.1f} 48B:{peaks[48]:.1f}"
                 f" 96B:{peaks[96]:.1f}")
    gain = (peaks[16] - peaks[48]) / peaks[48]
    result.check("16B header recovers roughly the payload ratio"
                 " (~3%)", 0.005 <= gain <= 0.08, f"{gain * 100:.1f}%")
    return result


def submit_ablation_eager(config: MachineConfig = SP_1998) -> Deferred:
    """Sweep MP_EAGER_LIMIT at a rendezvous-sensitive message size."""
    probe = 8192  # the size where Figure 2's kink is clearest
    limits = [1024, 4096, 8192, 65536]
    future = submit([JobSpec(mpl_bandwidth_point,
                             (probe, limit, config),
                             key=("ablation_eager", limit))
                     for limit in limits])
    return Deferred(future,
                    lambda values: _eager(values, limits, probe))



def _eager(values: list, limits: list, probe: int) -> ExperimentResult:
    rows = []
    bws = {}
    for limit, bw in zip(limits, values):
        bws[limit] = bw
        protocol = "eager" if probe <= limit else "rendezvous"
        rows.append([limit, protocol, bw])
    result = ExperimentResult(
        experiment="ablation_eager",
        title=f"MP_EAGER_LIMIT sweep at {probe}B messages [MB/s]",
        headers=["MP_EAGER_LIMIT", "protocol", "bandwidth"],
        rows=rows)
    result.check("crossing into eager removes the rendezvous"
                 " round trip",
                 bws[8192] > bws[4096] and bws[65536] > bws[1024],
                 f"8K-limit:{bws[8192]:.1f} vs 4K:{bws[4096]:.1f}")
    result.notes.append(
        "above ~16KB the eager copy costs what the handshake saves;"
        " the advantage is a small-to-medium message effect")
    return result


def submit_ablation_chunk(config: MachineConfig = SP_1998) -> Deferred:
    """Sweep GA's AM chunk payload for a medium strided put."""
    probe = 32768  # 64x64 doubles, strided
    caps = [128, 256, 512, None]
    future = submit([JobSpec(ga_transfer_rate,
                             ("lapi", "put", "2d", probe, config,
                              GA_DEFAULTS.replace(am_chunk_cap=cap)),
                             key=("ablation_chunk", cap))
                     for cap in caps])
    return Deferred(future, lambda rates: _chunk(rates, caps, probe))



def _chunk(rates: list, caps: list, probe: int) -> ExperimentResult:
    rows = []
    for cap, rate in zip(caps, rates):
        label = cap if cap is not None else "~900 (1 packet)"
        rows.append([label, rate])
    result = ExperimentResult(
        experiment="ablation_chunk",
        title=f"GA AM chunk payload sweep, {probe}B strided put"
              " [MB/s]",
        headers=["chunk bytes", "bandwidth"],
        rows=rows)
    result.notes.append(
        "section 5.3.1: GA fills each single-packet AM with ~900"
        " bytes; smaller chunks waste packets on per-message overhead")
    result.check("the full-packet chunk (paper's choice) is best",
                 rates[-1] == max(rates),
                 f"{[f'{r:.1f}' for r in rates]}")
    result.check("chunk size matters a lot (>2x from 128B to full)",
                 rates[-1] > 2 * rates[0])
    return result


def submit_ablation_hybrid(config: MachineConfig = SP_1998
                           ) -> Deferred:
    """Sweep the strided AM->RMC switch threshold (section 5.3)."""
    probe = 524288  # the paper's 0.5MB switch point
    thresholds = [65536, 262144, 524288, 4 * 1024 * 1024]
    future = submit([JobSpec(
        ga_transfer_rate,
        ("lapi", "put", "2d", probe, config,
         GA_DEFAULTS.replace(strided_rmc_threshold=thr)),
        key=("ablation_hybrid", thr)) for thr in thresholds])
    return Deferred(future,
                    lambda values: _hybrid(values, thresholds, probe))



def _hybrid(values: list, thresholds: list,
            probe: int) -> ExperimentResult:
    rows = []
    rates = {}
    for thr, rate in zip(thresholds, values):
        protocol = "per-column RMC" if probe >= thr else "AM chunks"
        rates[thr] = rate
        rows.append([thr, protocol, rate])
    result = ExperimentResult(
        experiment="ablation_hybrid",
        title=f"GA hybrid-protocol threshold sweep, {probe}B 2-D put"
              " [MB/s]",
        headers=["threshold B", "protocol used", "bandwidth"],
        rows=rows)
    result.check(
        "per-column RMC beats AM chunking for 0.5MB strided requests"
        " (so the paper's switch point is on the right side)",
        rates[65536] > rates[4 * 1024 * 1024],
        f"RMC {rates[65536]:.1f} vs AM {rates[4 * 1024 * 1024]:.1f}")
    return result


def submit_ablation_interrupt(config: MachineConfig = SP_1998
                              ) -> Deferred:
    """Sweep the hardware interrupt cost; watch Table 2's gap move."""
    costs = [2.0, 8.0, 14.0, 30.0, 60.0]
    future = submit([JobSpec(lapi_pingpong_job,
                             (config.replace(interrupt_latency=cost),),
                             {"interrupt_mode": interrupt_mode},
                             key=("ablation_interrupt", cost,
                                  interrupt_mode))
                     for cost in costs
                     for interrupt_mode in (False, True)])
    return Deferred(future, lambda values: _interrupt(values, costs))



def _interrupt(values: list, costs: list) -> ExperimentResult:
    rows = []
    gaps = []
    for i, cost in enumerate(costs):
        (_, rt_poll), (_, rt_int) = values[2 * i], values[2 * i + 1]
        gaps.append(rt_int - rt_poll)
        rows.append([cost, rt_poll, rt_int, rt_int - rt_poll])
    result = ExperimentResult(
        experiment="ablation_interrupt",
        title="Interrupt-cost sweep: LAPI round trip [us]",
        headers=["interrupt cost", "polling RT", "interrupt RT",
                 "gap"],
        rows=rows)
    result.notes.append(
        "the polling/interrupt gap of Table 2 is mechanical: ~2"
        " interrupts per round trip")
    result.check("the gap grows monotonically with interrupt cost",
                 all(a <= b + 1.0 for a, b in zip(gaps, gaps[1:])),
                 f"gaps {[f'{g:.1f}' for g in gaps]}")
    result.check("gap is roughly 2x the per-interrupt cost at the"
                 " calibrated point",
                 1.0 * 14 <= gaps[2] <= 3.0 * 14,
                 f"{gaps[2]:.1f} vs 2x14")
    return result
