"""Machine calibration tables for the simulated IBM RS/6000 SP.

Every scalar cost in the machine model lives here, in one frozen
dataclass, so that (a) experiments are reproducible from a single config
object, (b) ablation benchmarks can sweep a constant without touching
model code, and (c) the calibration story is auditable: the comments on
each field say what 1998-era quantity it stands for.

Calibration philosophy
----------------------
The reproduction targets the paper's *mechanisms* (protocol structure,
copies, interrupts, header arithmetic).  The scalars below were chosen
once so that the simulated Table 2 and the latency/pipeline numbers in
section 4 land close to the paper's measurements on 120 MHz P2SC nodes,
and are then held fixed for every other experiment; Figures 2-4 and the
application results are *predictions* of the model, not fits.

Units: time in microseconds, sizes in bytes, bandwidth in bytes/us
(numerically equal to MB/s).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

__all__ = ["MachineConfig", "SP_1998"]


@dataclass(frozen=True)
class MachineConfig:
    """All tunable constants of the simulated SP system."""

    # ------------------------------------------------------------------
    # Switch fabric and adapter ("SP switch", TB3 adapter)
    # ------------------------------------------------------------------
    #: Raw link signalling rate.  The SP switch delivered up to 110 MB/s
    #: bi-directional per node pair; sustained user-space payload peaked
    #: near 100 MB/s.  Raw rate feeding the header/payload arithmetic.
    link_bandwidth: float = 112.5
    #: Maximum packet size on the wire, header included (SP switch: 1 KiB).
    packet_size: int = 1024
    #: Per-hop propagation/cut-through delay inside the switch fabric.
    hop_latency: float = 0.2
    #: Node-to-edge-switch wire latency (each direction).
    wire_latency: float = 0.1
    #: Nodes attached to one edge switch (SP switch boards served small
    #: groups of node ports; also controls when traffic crosses the
    #: multistage core and can be reordered by multipath routing).
    switch_group_size: int = 4
    #: Number of middle-stage switches == disjoint paths between groups.
    #: The SP switch provided 4 independent routes between node pairs.
    switch_mid_count: int = 4
    #: Uniform random extra delay per middle-stage traversal, modelling
    #: route-length/queueing variation; this is what makes concurrent
    #: packets arrive out of order (a property LAPI must tolerate).
    route_jitter: float = 0.15
    #: Adapter FIFO depths, in packets.
    adapter_tx_fifo: int = 64
    adapter_rx_fifo: int = 512
    #: DMA/injection engine cost per packet on the send side (descriptor
    #: setup + FIFO write), paid by the adapter, pipelined with the CPU.
    adapter_send_dma: float = 0.8
    #: Same on the receive side (FIFO read + DMA to host memory).
    adapter_recv_dma: float = 0.8
    #: Extra per-packet gap on the wire (framing, CRC, flow control).
    packet_gap: float = 0.15
    # ------------------------------------------------------------------
    # Fabric topology (the ``--scale`` bench; "sp" is the paper machine)
    # ------------------------------------------------------------------
    #: Fabric shape: ``"sp"`` (the paper's multistage switch),
    #: ``"fattree"`` (three-tier leaf/agg/core), or ``"dragonfly"``
    #: (router groups with global links).  See
    #: :mod:`repro.machine.routing`.
    topology: str = "sp"
    #: Fat tree: nodes per leaf switch.
    fattree_leaf_size: int = 16
    #: Fat tree: leaf switches per pod.
    fattree_pod_leaves: int = 8
    #: Fat tree: aggregation switches per pod (intra-pod multipath).
    fattree_agg_count: int = 8
    #: Fat tree: core switches (cross-pod multipath width).
    fattree_core_count: int = 16
    #: Dragonfly: nodes per router.
    dragonfly_router_nodes: int = 4
    #: Dragonfly: routers per group (all-to-all local links).
    dragonfly_group_routers: int = 8
    #: Dragonfly: extra flight time of a global (inter-group) link,
    #: on top of the per-hop latency -- global links are physically
    #: long.
    dragonfly_global_latency: float = 0.5

    # ------------------------------------------------------------------
    # Node: 120 MHz P2SC CPU, AIX 4.2.1
    # ------------------------------------------------------------------
    #: Sustained memcpy bandwidth of a P2SC node (bytes/us == MB/s).
    cpu_copy_bandwidth: float = 380.0
    #: Fixed cost of starting any memory copy (function call, alignment).
    copy_setup: float = 0.3
    #: Sustained DAXPY-style bandwidth for accumulate operations.
    daxpy_bandwidth: float = 210.0
    #: Cost of taking a hardware interrupt and dispatching to the
    #: communication subsystem (first-level handler + mode switch).  This
    #: is the per-side premium interrupt mode pays over polling.
    interrupt_latency: float = 14.0
    #: Cost of one poll of the adapter status (doorbell read).
    poll_check_cost: float = 0.7
    #: After draining, the interrupt-mode dispatcher lingers this long
    #: (off-CPU) for further arrivals before re-arming the interrupt:
    #: back-to-back packets of a bulk stream are then serviced by one
    #: interrupt (the coalescing section 5.3.1 alludes to), while
    #: isolated messages still pay the full interrupt cost.
    interrupt_linger: float = 15.0
    #: Pthread mutex lock/unlock pair, uncontended.
    mutex_cost: float = 0.4
    #: Sustained double-precision rate of a P2SC node (flops per us ==
    #: MFLOPS); used by the application kernels to charge compute time.
    flops_per_us: float = 220.0

    # ------------------------------------------------------------------
    # LAPI protocol constants
    # ------------------------------------------------------------------
    #: LAPI packet header (section 4: 48 bytes -- the origin must carry
    #: target-side parameters in every packet).
    lapi_header: int = 48
    #: User-space library call overhead for any LAPI entry point.
    lapi_call_overhead: float = 9.0
    #: CPU cost to build + stage one outgoing packet (header formatting,
    #: FIFO slot claim), excluding the data copy itself.
    lapi_pkt_send_cost: float = 6.3
    #: CPU cost to demultiplex the first packet of a dispatch batch
    #: (interrupt/poll wake-up path; dominates small-message latency).
    lapi_pkt_recv_cost: float = 10.5
    #: CPU cost per additional packet processed in the same dispatch
    #: batch -- bulk streaming amortizes the wake-up work, which is how
    #: the real stack sustains ~97 MB/s despite a ~10 us first-packet
    #: cost.
    lapi_pkt_recv_amortized: float = 4.0
    #: Cost of invoking a user header handler (call + uhdr delivery).
    lapi_hdr_handler_cost: float = 2.5
    #: Cost of scheduling a completion handler onto its thread.
    lapi_cmpl_handler_cost: float = 2.0
    #: Cost of updating one completion counter (and waking waiters).
    lapi_counter_update: float = 0.4
    #: Extra origin-side cost of a Get over a Put (request marshalling).
    lapi_get_extra: float = 3.0
    #: Maximum user header (uhdr) bytes in LAPI_Amsend.
    lapi_uhdr_max: int = 128
    #: Messages no larger than this are copied into LAPI's internal send
    #: buffers (for possible retransmission) so the call returns
    #: immediately (section 5.3.1); larger messages transmit from the
    #: user buffer and the origin counter fires when the last packet has
    #: been handed to the adapter.
    lapi_retrans_copy_limit: int = 4096
    #: Go-back-N retransmission window per destination, in packets.
    lapi_window: int = 64
    #: Retransmission timeout.  Must comfortably exceed the time a
    #: full send window spends queued at the adapter (~64 packets x
    #: ~10 us) or spurious retransmission storms ensue.
    lapi_retrans_timeout: float = 2000.0
    #: Cost for the target side to emit a protocol ACK.
    lapi_ack_cost: float = 1.0

    # ------------------------------------------------------------------
    # Adaptive retransmission (Jacobson/Karels RTO; see
    # docs/reliability.md).  The transports adapt exactly when a
    # ``FaultSchedule`` is installed on the cluster, so fault-free runs
    # keep the fixed-timeout arithmetic (and its virtual-time
    # trajectory) bit-for-bit.
    # ------------------------------------------------------------------
    #: Lower clamp on the estimated RTO: below this, jitter in the RTT
    #: samples would cause spurious retransmission storms.
    rto_min: float = 200.0
    #: Upper clamp on the backed-off RTO: keeps recovery probes flowing
    #: through long outages instead of backing off into silence.
    rto_max: float = 30000.0
    #: Exponential backoff multiplier applied per retransmission round
    #: while a packet stays unacknowledged (Karn's backoff).
    rto_backoff: float = 2.0
    #: Retransmission attempts for one packet before the transport marks
    #: the peer *degraded* (health state machine; the peer returns to
    #: *healthy* on the next fresh acknowledgement).
    peer_degraded_after: int = 3
    #: Retransmission attempts for one packet before the transport gives
    #: up and declares the peer unreachable (the retry budget; the
    #: historical hardwired cap was 50).
    retry_budget: int = 50

    # ------------------------------------------------------------------
    # Failure detection (repro.resilience; see docs/reliability.md).
    # The heartbeat detector is armed exactly when the installed fault
    # schedule fail-stops a node (NodeCrash clauses), so every other
    # run -- including non-crash fault scenarios -- keeps its
    # virtual-time trajectory bit-for-bit.
    # ------------------------------------------------------------------
    #: Heartbeat period: every node pings every peer this often
    #: (virtual us) through an adapter-assisted responder.
    heartbeat_period: float = 400.0
    #: Silence threshold: a peer not heard from for this long is
    #: *convicted* (declared fail-stop dead) and every primitive blocked
    #: on it resolves with ``PeerUnreachableError``.  Worst-case
    #: detection latency is ``conviction_threshold + heartbeat_period``.
    conviction_threshold: float = 2000.0

    # ------------------------------------------------------------------
    # MPL / MPI protocol constants (the baseline stack)
    # ------------------------------------------------------------------
    #: MPI packet header (section 4: 16 bytes).
    mpl_header: int = 16
    #: Library call overhead for MPI/MPL entry points (thicker API layer:
    #: communicators, datatypes, request objects).
    mpl_call_overhead: float = 10.0
    mpl_pkt_send_cost: float = 6.5
    mpl_pkt_recv_cost: float = 13.5
    #: Amortized per-packet cost within one dispatch batch.  Higher
    #: than LAPI's: every two-sided packet touches per-message matching
    #: state, the very "ordering, matching, grouping and buffering"
    #: overhead section 4 blames for MPI's slower rise.
    mpl_pkt_recv_amortized: float = 6.5
    #: Cost of matching an arriving message against the posted-receive
    #: queue (or filing it on the unexpected queue).
    mpl_match_cost: float = 7.5
    #: Cost of posting a receive (descriptor + queue insert).
    mpl_post_recv_cost: float = 2.5
    #: Default MP_EAGER_LIMIT: above this, MPI switches from the eager to
    #: the rendezvous protocol (section 4: kink at 4 KB).
    mpl_eager_limit: int = 4096
    #: Maximum value MP_EAGER_LIMIT accepts (64 KiB).
    mpl_eager_limit_max: int = 65536
    #: Per-control-message cost of the rendezvous handshake (RTS/CTS).
    mpl_rendezvous_ctrl_cost: float = 4.0
    #: Send-side internal buffering limit: a non-blocking send whose
    #: message fits is copied and returns immediately (the "much larger
    #: buffer space in MPL/MPI" of section 5.4, visible in Figure 3's
    #: 1 KB - 20 KB band).
    mpl_send_buffer_limit: int = 20480
    #: Go-back-N window per destination for the MPL transport.
    mpl_window: int = 64
    #: MPL retransmission timeout (same sizing rule as LAPI's).
    mpl_retrans_timeout: float = 2000.0
    #: AIX cost to create the handler context for an MPL rcvncall
    #: (section 5.2 blames this for the >300 us gets on the SP-1/2; on
    #: the measured system the interrupt round-trip was 200 us).
    rcvncall_context_cost: float = 93.0

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    #: Per-node simulated memory is allocated lazily; this caps a single
    #: allocation to catch runaway models.
    max_allocation: int = 512 * 1024 * 1024

    def replace(self, **changes) -> "MachineConfig":
        """Return a copy with ``changes`` applied (ablation helper)."""
        return dataclasses.replace(self, **changes)

    # Derived quantities -------------------------------------------------
    @property
    def lapi_payload(self) -> int:
        """Data bytes one LAPI packet carries."""
        return self.packet_size - self.lapi_header

    @property
    def mpl_payload(self) -> int:
        """Data bytes one MPL/MPI packet carries."""
        return self.packet_size - self.mpl_header

    @property
    def am_uhdr_payload(self) -> int:
        """Data bytes available in a single-packet active message after
        transport header and a maximal user header -- the "around 900
        bytes to the application" of section 5.3.1 that Global Arrays
        exploits for its pipelined medium-message protocol."""
        return self.packet_size - self.lapi_header - self.lapi_uhdr_max

    def copy_cost(self, nbytes: int) -> float:
        """CPU time to memcpy ``nbytes``."""
        if nbytes <= 0:
            return 0.0
        return self.copy_setup + nbytes / self.cpu_copy_bandwidth

    def daxpy_cost(self, nbytes: int) -> float:
        """CPU time to accumulate (read-modify-write) ``nbytes``."""
        if nbytes <= 0:
            return 0.0
        return self.copy_setup + nbytes / self.daxpy_bandwidth

    def flop_cost(self, nflops: float) -> float:
        """CPU time for ``nflops`` double-precision operations."""
        if nflops <= 0:
            return 0.0
        return nflops / self.flops_per_us

    def validate(self) -> None:
        """Raise ``ValueError`` on physically meaningless settings."""
        if self.packet_size <= max(self.lapi_header, self.mpl_header):
            raise ValueError("packet_size must exceed protocol headers")
        if self.lapi_uhdr_max >= self.lapi_payload:
            raise ValueError("lapi_uhdr_max must fit in a packet payload")
        if self.link_bandwidth <= 0 or self.cpu_copy_bandwidth <= 0:
            raise ValueError("bandwidths must be positive")
        if self.switch_group_size < 1 or self.switch_mid_count < 1:
            raise ValueError("switch topology parameters must be >= 1")
        from .routing import TOPOLOGIES
        if self.topology not in TOPOLOGIES:
            raise ValueError(
                f"unknown topology {self.topology!r}; choose from"
                f" {TOPOLOGIES}")
        for name in ("fattree_leaf_size", "fattree_pod_leaves",
                     "fattree_agg_count", "fattree_core_count",
                     "dragonfly_router_nodes",
                     "dragonfly_group_routers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.dragonfly_global_latency < 0:
            raise ValueError("dragonfly_global_latency must be >= 0")
        if self.mpl_eager_limit > self.mpl_eager_limit_max:
            raise ValueError("eager limit exceeds its maximum")
        for name in ("lapi_retrans_timeout", "mpl_retrans_timeout"):
            timeout = getattr(self, name)
            if not (timeout > 0 and math.isfinite(timeout)):
                raise ValueError(
                    f"{name} must be positive and finite, got {timeout}")
        for name in ("lapi_window", "mpl_window"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not (0 < self.rto_min <= self.rto_max
                and math.isfinite(self.rto_max)):
            raise ValueError(
                "need 0 < rto_min <= rto_max, both finite"
                f" (got {self.rto_min}, {self.rto_max})")
        if not (self.rto_backoff >= 1.0
                and math.isfinite(self.rto_backoff)):
            raise ValueError(
                f"rto_backoff must be finite and >= 1,"
                f" got {self.rto_backoff}")
        if self.peer_degraded_after < 1:
            raise ValueError("peer_degraded_after must be >= 1")
        if self.retry_budget < 1:
            raise ValueError(
                f"retry_budget must be >= 1, got {self.retry_budget}")
        if not (self.heartbeat_period > 0
                and math.isfinite(self.heartbeat_period)):
            raise ValueError(
                f"heartbeat_period must be positive and finite,"
                f" got {self.heartbeat_period}")
        if not math.isfinite(self.conviction_threshold):
            raise ValueError("conviction_threshold must be finite")
        if self.heartbeat_period >= self.conviction_threshold:
            raise ValueError(
                f"heartbeat_period ({self.heartbeat_period}) must be"
                f" below conviction_threshold"
                f" ({self.conviction_threshold}): a peer must get at"
                " least one heartbeat per conviction window or every"
                " healthy peer is convicted")
        if self.conviction_threshold <= self.rto_min:
            raise ValueError(
                f"conviction_threshold ({self.conviction_threshold})"
                f" must exceed the RTO floor ({self.rto_min}): a"
                " conviction faster than one retransmission round"
                " declares live peers dead on ordinary jitter")


#: The calibration used throughout the reproduction: a 1998 SP with
#: 120 MHz P2SC "thin" nodes, the SP switch, and PSSP 2.3 software.
SP_1998 = MachineConfig()
SP_1998.validate()
