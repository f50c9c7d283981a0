"""Declarative fault scenarios for the simulated SP fabric and nodes.

The paper's reliability machinery exists because the real switch
failed in structured ways: bursty CRC errors on a marginal link, a
whole link going dark while a cable was reseated, an overloaded node
starving its dispatcher.  Section 5.3.1's internal send buffers exist
precisely "since retransmissions might be required in a case of switch
failures".  A single uniform loss probability cannot express any of
those regimes, so this module provides a *schedule*: a validated,
immutable list of scenario clauses that a
:class:`~repro.machine.cluster.Cluster` compiles into runtime hooks
(:mod:`repro.faults.runtime`).

Every clause is a frozen dataclass (picklable, hashable, sweepable by
the bench harness) and validates itself at construction; the schedule
additionally rejects overlapping windows that would make a scenario
ambiguous.  Determinism: the schedule itself holds no state -- all
randomness comes from the cluster's seeded ``faults`` RNG stream, so
the same seed reproduces the same fault pattern byte-for-byte,
serially or under ``--jobs N``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from ..errors import MachineError

__all__ = ["FaultClause", "GilbertElliott", "LinkOutage", "AckLoss",
           "Corruption", "CpuPause", "CpuDegrade", "NodeCrash",
           "NodeRestart", "FaultSchedule"]


def _check_window(name: str, start: float, end: float) -> None:
    if not (math.isfinite(start) and start >= 0.0):
        raise MachineError(
            f"{name}: window start must be finite and >= 0, got {start}")
    if math.isnan(end) or end <= start:
        raise MachineError(
            f"{name}: window end {end} must exceed start {start}")


def _check_prob(name: str, field: str, p: float) -> None:
    if not (0.0 <= p <= 1.0) or math.isnan(p):
        raise MachineError(f"{name}: {field} must be in [0, 1], got {p}")


@dataclass(frozen=True)
class FaultClause:
    """Base of all schedule clauses: an optional active time window.

    ``start``/``end`` bound the clause in virtual microseconds;
    ``end=inf`` keeps it active for the whole run.
    """

    start: float = 0.0
    end: float = math.inf

    def active(self, now: float) -> bool:
        return self.start <= now < self.end

    def validate(self) -> None:
        _check_window(type(self).__name__, self.start, self.end)


@dataclass(frozen=True)
class _LinkClause(FaultClause):
    """A clause selecting a directed node pair (``None`` = wildcard)."""

    src: Optional[int] = None
    dst: Optional[int] = None

    def matches_pair(self, src: int, dst: int) -> bool:
        return ((self.src is None or self.src == src)
                and (self.dst is None or self.dst == dst))

    def pair_key(self) -> tuple:
        return (self.src, self.dst)


@dataclass(frozen=True)
class GilbertElliott(_LinkClause):
    """Bursty per-link loss: the classic two-state Gilbert-Elliott chain.

    A link is either *good* (losing packets with ``loss_good``) or
    *bad* (losing with ``loss_bad``).  Per packet traversal the chain
    first takes a transition draw (good->bad with ``p_good_bad``,
    bad->good with ``p_bad_good``), then a loss draw at the current
    state's rate.  Mean burst length is ``1 / p_bad_good`` packets;
    stationary bad-state occupancy is
    ``p_good_bad / (p_good_bad + p_bad_good)``.  ``p_good_bad=0`` with
    ``loss_good>0`` degenerates to uniform (memoryless) loss.
    """

    p_good_bad: float = 0.0
    p_bad_good: float = 1.0
    loss_good: float = 0.0
    loss_bad: float = 0.0

    def validate(self) -> None:
        super().validate()
        name = "GilbertElliott"
        _check_prob(name, "p_good_bad", self.p_good_bad)
        _check_prob(name, "p_bad_good", self.p_bad_good)
        _check_prob(name, "loss_good", self.loss_good)
        _check_prob(name, "loss_bad", self.loss_bad)
        if self.loss_good == 0.0 and self.loss_bad == 0.0:
            raise MachineError(
                "GilbertElliott: both loss rates are zero -- the clause"
                " can never fire (remove it or raise a rate)")
        if self.loss_good >= 1.0 or self.loss_bad >= 1.0:
            raise MachineError(
                "GilbertElliott: a loss rate of 1.0 silences the link"
                " forever; use LinkOutage for hard outages")


@dataclass(frozen=True)
class LinkOutage(_LinkClause):
    """Hard link outage: every matching packet in the window is lost.

    Models a dark fiber / reseated cable: the fabric drops everything
    on the directed pair between ``start`` and ``end``.  The window
    must be finite -- a permanent outage is a topology change, not a
    fault to recover from.
    """

    def validate(self) -> None:
        super().validate()
        if not math.isfinite(self.end):
            raise MachineError(
                "LinkOutage: the window end must be finite (a permanent"
                " outage cannot be recovered from and would retry until"
                " the peer is declared unreachable)")


@dataclass(frozen=True)
class AckLoss(_LinkClause):
    """Asymmetric loss of transport acknowledgements.

    Drops only ``ack``-kind packets on the directed pair with
    probability ``rate`` -- data flows, acks vanish.  Exercises the
    Karn-ambiguity path: the sender retransmits data the receiver
    already has, and the duplicate filter plus RTT-sample suppression
    must keep both state machines honest.
    """

    rate: float = 0.0

    def validate(self) -> None:
        super().validate()
        _check_prob("AckLoss", "rate", self.rate)
        if self.rate == 0.0:
            raise MachineError("AckLoss: rate must be > 0")
        if self.rate >= 1.0:
            raise MachineError(
                "AckLoss: rate 1.0 permanently silences acks; use"
                " LinkOutage on the reverse pair for a hard outage")


@dataclass(frozen=True)
class Corruption(_LinkClause):
    """Payload corruption detected by CRC at the receiving adapter.

    Unlike fabric loss, a corrupted packet traverses the whole wire
    (consuming link bandwidth and occupancy) and is discarded only at
    the destination adapter's CRC check -- the worst-case waste mode.
    """

    rate: float = 0.0

    def validate(self) -> None:
        super().validate()
        _check_prob("Corruption", "rate", self.rate)
        if not (0.0 < self.rate < 1.0):
            raise MachineError(
                f"Corruption: rate must be in (0, 1), got {self.rate}")


@dataclass(frozen=True)
class _CpuClause(FaultClause):
    """A clause affecting one node's CPU inside a finite window."""

    node: int = 0

    def validate(self) -> None:
        super().validate()
        name = type(self).__name__
        if self.node < 0:
            raise MachineError(f"{name}: node must be >= 0")
        if not math.isfinite(self.end):
            raise MachineError(f"{name}: the window end must be finite")

    def rate(self) -> float:
        """CPU progress rate inside the window (1.0 = full speed)."""
        raise NotImplementedError


@dataclass(frozen=True)
class CpuPause(_CpuClause):
    """Full CPU stall: no thread on ``node`` progresses in the window.

    Models a node descheduled by a paging storm or checkpoint: work
    that overlaps the window simply resumes when it ends.  Peers keep
    timing out and retransmitting into it, which is what the adaptive
    RTO backoff exists to survive.
    """

    def rate(self) -> float:
        return 0.0


@dataclass(frozen=True)
class CpuDegrade(_CpuClause):
    """CPU slowdown: work in the window takes ``factor`` times longer."""

    factor: float = 2.0

    def validate(self) -> None:
        super().validate()
        if not (self.factor > 1.0 and math.isfinite(self.factor)):
            raise MachineError(
                f"CpuDegrade: factor must be finite and > 1, got"
                f" {self.factor} (use CpuPause for a full stall)")

    def rate(self) -> float:
        return 1.0 / self.factor


@dataclass(frozen=True)
class NodeCrash(FaultClause):
    """Fail-stop crash of one node at ``start``.

    At the crash instant every thread on ``node`` is killed at its
    current yield point (fail-stop: no cleanup code runs), the adapter
    drops all in-flight TX/RX traffic and stops acknowledging, and the
    node goes silent.  A finite ``end`` restarts the *machine* at that
    time (adapter alive and answering heartbeats again, protocol state
    cleared); ``end=inf`` keeps the node dead for the rest of the run.
    Restart is machine-level only -- the SPMD task that was running on
    the node stays dead, which is exactly the fail-stop model: the
    survivors' view is "peer died, then its hardware came back".
    """

    node: int = 0

    def validate(self) -> None:
        _check_window("NodeCrash", self.start, self.end)
        if self.node < 0:
            raise MachineError("NodeCrash: node must be >= 0")
        if self.start <= 0.0:
            raise MachineError(
                "NodeCrash: start must be > 0 (a node cannot crash"
                " before the run begins)")


@dataclass(frozen=True)
class NodeRestart(FaultClause):
    """Close an open-ended :class:`NodeCrash` on the same node.

    Sugar for scenarios that list the crash and the restart as two
    events: ``NodeRestart(node=2, start=t)`` turns a preceding
    ``NodeCrash(node=2, start=s)`` with ``end=inf`` into a crash
    window ``[s, t)``.  The schedule rejects a restart with no
    matching open crash, or one inside a finite crash window.
    """

    node: int = 0

    def validate(self) -> None:
        if not (math.isfinite(self.start) and self.start > 0.0):
            raise MachineError(
                f"NodeRestart: start must be finite and > 0,"
                f" got {self.start}")
        if self.node < 0:
            raise MachineError("NodeRestart: node must be >= 0")


def compile_crash_windows(clauses: Sequence[FaultClause]) -> dict:
    """Resolve NodeCrash/NodeRestart clauses into per-node windows.

    Returns ``{node: [(crash_at, restart_at_or_inf), ...]}`` with the
    windows sorted and validated non-overlapping.  Shared between
    schedule validation and :class:`~repro.faults.runtime.FaultRuntime`
    so both agree on the semantics.
    """
    crashes: dict = {}
    for clause in clauses:
        if isinstance(clause, NodeCrash):
            crashes.setdefault(clause.node, []).append(
                [clause.start, clause.end])
    for clause in clauses:
        if not isinstance(clause, NodeRestart):
            continue
        windows = crashes.get(clause.node)
        match = None
        for win in (windows or ()):
            if win[0] < clause.start and not math.isfinite(win[1]):
                if match is not None:
                    raise MachineError(
                        f"NodeRestart(node={clause.node},"
                        f" start={clause.start}): ambiguous -- several"
                        " open-ended NodeCrash windows precede it")
                match = win
            elif win[0] < clause.start <= win[1]:
                raise MachineError(
                    f"NodeRestart(node={clause.node},"
                    f" start={clause.start}): falls inside the finite"
                    f" crash window [{win[0]}, {win[1]}) -- drop the"
                    " restart or the crash end")
        if match is None:
            raise MachineError(
                f"NodeRestart(node={clause.node}, start={clause.start}):"
                " no preceding open-ended NodeCrash on that node")
        match[1] = clause.start
    out: dict = {}
    for node, windows in sorted(crashes.items()):
        windows = sorted((w[0], w[1]) for w in windows)
        for a, b in zip(windows, windows[1:]):
            if b[0] < a[1]:
                raise MachineError(
                    f"FaultSchedule: overlapping crash windows"
                    f" [{a[0]}, {a[1]}) and [{b[0]}, {b[1]}) for node"
                    f" {node} -- merge or separate them")
        out[node] = windows
    return out


def _reject_overlaps(kind: str, clauses: Sequence[FaultClause],
                     key_fn) -> None:
    """Reject clauses of one family whose windows overlap per key.

    Two outage windows on the same directed pair (or two CPU windows
    on the same node) with overlapping spans would make the scenario's
    semantics order-dependent; the schedule refuses them up front so a
    malformed sweep fails at construction, not mid-run.
    """
    by_key: dict = {}
    for clause in clauses:
        by_key.setdefault(key_fn(clause), []).append(clause)
    for key, group in by_key.items():
        group = sorted(group, key=lambda c: (c.start, c.end))
        for a, b in zip(group, group[1:]):
            if b.start < a.end:
                raise MachineError(
                    f"FaultSchedule: overlapping {kind} windows"
                    f" [{a.start}, {a.end}) and [{b.start}, {b.end})"
                    f" for {key} -- merge or separate them")


class FaultSchedule:
    """An immutable, validated list of fault clauses.

    Install on a cluster at construction time::

        schedule = FaultSchedule([
            GilbertElliott(p_good_bad=0.05, p_bad_good=0.25,
                           loss_bad=0.8),
            LinkOutage(src=0, dst=1, start=3000.0, end=9000.0),
        ])
        cluster = Cluster(nnodes=2, faults=schedule)

    An empty schedule is equivalent to no schedule at all: it compiles
    to nothing and the cluster's hot paths stay untouched.
    """

    def __init__(self, clauses: Sequence[FaultClause] = ()) -> None:
        clauses = tuple(clauses)
        for clause in clauses:
            if not isinstance(clause, FaultClause):
                raise MachineError(
                    f"FaultSchedule: {clause!r} is not a fault clause")
            clause.validate()
        _reject_overlaps(
            "LinkOutage",
            [c for c in clauses if isinstance(c, LinkOutage)],
            lambda c: c.pair_key())
        _reject_overlaps(
            "CPU",
            [c for c in clauses if isinstance(c, _CpuClause)],
            lambda c: c.node)
        # Resolve + validate crash/restart pairing and window overlap.
        self.crash_windows = compile_crash_windows(clauses)
        self.clauses = clauses

    def __len__(self) -> int:
        return len(self.clauses)

    def __bool__(self) -> bool:
        return bool(self.clauses)

    def install(self, cluster) -> Optional[object]:
        """Compile into a :class:`~repro.faults.runtime.FaultRuntime`
        and hook it into ``cluster``'s switch/adapters/CPUs.  Returns
        the runtime, or ``None`` for an empty schedule (no hooks)."""
        if not self.clauses:
            return None
        from .runtime import FaultRuntime
        return FaultRuntime(self, cluster)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kinds = [type(c).__name__ for c in self.clauses]
        return f"<FaultSchedule {len(self.clauses)} clauses: {kinds}>"
