"""Hot-path pool statistics.

The object pools live with their owners -- the per-cluster
:class:`~repro.machine.pool.HotPools` (transport-ack packets and
struct-of-arrays train records) and the span recorder's track free
list.  :func:`pool_stats` condenses all of them into one picklable
dict per cluster; the ledger reads it for its pool hit-rate metric.

These numbers are deliberately *not* part of the ``--metrics`` blocks:
hit counts differ between fast-lane-on and fast-lane-off runs of the
same scenario, and the equivalence contract requires those blocks
byte-identical.
"""

from __future__ import annotations

__all__ = ["pool_stats"]


def pool_stats(cluster) -> dict:
    """All pool counters of one finished cluster, keyed by pool name.

    Works on any object with a ``sim`` attribute (ducks for
    :class:`repro.machine.Cluster`); pools that are not armed on this
    cluster are simply absent from the dict.
    """
    sim = cluster.sim
    stats: dict = {}
    pools = getattr(sim, "pools", None)
    if pools is not None:
        stats.update(pools.stats())
    spans = getattr(cluster, "spans", None)
    if spans is not None:
        stats["span_tracks"] = spans.pool_stats()
    return stats

