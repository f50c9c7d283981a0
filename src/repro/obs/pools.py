"""Hot-path pool statistics.

No object pool is left: :func:`pool_stats` reports the span
recorder's packet side-table size and the constant-zero counters of the
retired pools, as one picklable dict per cluster.

These numbers are deliberately *not* part of the metrics blocks:
the ``--obs metrics`` output must be byte-identical with spans armed or not.
"""

from __future__ import annotations

__all__ = ["pool_stats"]


def pool_stats(cluster) -> dict:
    """All pool counters of one finished cluster, keyed by pool name.

    Works on any object with a ``spans`` attribute (ducks for
    :class:`repro.machine.Cluster`); ``span_tracks`` is present only
    when a span recorder is armed.
    """
    # Always 0: the ledger's traced counters (``ledger/recorder.py``)
    # still read these names from the retired packet and train pools.
    stats: dict = {pool: {"acquires": 0, "hits": 0}
                   for pool in ("packets", "trains")}
    spans = getattr(cluster, "spans", None)
    if spans is not None:
        stats["span_tracks"] = spans.pool_stats()
    return stats
