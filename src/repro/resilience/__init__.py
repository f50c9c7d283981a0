"""Fail-stop failure detection for simulated SP clusters.

LAPI's reliability layer (section 4.3 of the paper) recovers from
*packet* loss; it has no answer for a *node* that stops executing.
This package adds the cluster-level complement: an adapter-assisted
heartbeat failure detector in the style of group-services daemons on
real SP systems, living entirely outside the protocol stacks' hot
paths.

The runtime attaches a tiny ``"resil"`` protocol client to every
adapter and exchanges ping/pong control packets on the switch.  A peer
silent past ``MachineConfig.conviction_threshold`` is *convicted*
(declared fail-stop dead): every registered stack on the observing
node is told, blocked primitives involving the dead peer resolve with
a structured :class:`~repro.errors.PeerUnreachableError`, and the
survivor policy (:meth:`repro.machine.Cluster.run_job`'s
``on_peer_failure``) decides whether the job fails or degrades
gracefully.

Arming is automatic and zero-cost when off: the cluster builds a
runtime exactly when its fault schedule carries
:class:`~repro.faults.NodeCrash` clauses, so fault-free runs and
non-crash fault runs keep their virtual-time trajectories bit-for-bit.
"""

from .runtime import ResilienceRuntime

__all__ = ["ResilienceRuntime"]
