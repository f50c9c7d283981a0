"""Collectives built on MPL point-to-point messaging.

The paper's MPL-based GA and the application kernels need broadcast
and reductions (the barrier is the endpoint's, shared with LAPI's
gfence: :meth:`repro.mpl.api.Mpl.barrier`).  These use the textbook
logarithmic algorithms over reserved tags; per-source in-order matching
makes plain tag reuse across calls safe (messages from one source can
never overtake each other).
"""

from __future__ import annotations

import pickle
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from .constants import ReservedTag

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .api import Mpl

__all__ = ["bcast", "reduce", "allreduce"]


def bcast(mpl: "Mpl", data: Optional[bytes], root: int = 0) -> Generator:
    """Binomial-tree broadcast of a byte payload; returns it everywhere."""
    size = mpl.size
    if size == 1:
        return data
    # Rotate ranks so the root is virtual rank 0.
    vrank = (mpl.rank - root) % size
    if vrank == 0 and data is None:
        raise ValueError("bcast root must supply data")
    # Find the bit on which this rank receives; the root never does and
    # exits the scan with the top of the tree.
    mask = 1
    while mask < size and not (vrank & mask):
        mask <<= 1
    if vrank != 0:
        parent = ((vrank - mask) + root) % size
        data = yield from mpl.recv_bytes(parent, ReservedTag.BCAST)
    # Forward down the binomial tree.
    mask >>= 1
    while mask > 0:
        child = vrank + mask
        if child < size:
            yield from mpl.send(((child + root) % size), data,
                                len(data), ReservedTag.BCAST)
        mask >>= 1
    return data


def reduce(mpl: "Mpl", value: Any, op: Callable[[Any, Any], Any],
           root: int = 0) -> Generator:
    """Binomial-tree reduction of picklable values; result at root.

    ``op(a, b)`` must be associative and commutative (GA uses sums and
    maxima of numpy arrays / floats).
    """
    size = mpl.size
    vrank = (mpl.rank - root) % size
    acc = value
    mask = 1
    while mask < size:
        if vrank & mask:
            parent = ((vrank & ~mask) + root) % size
            blob = pickle.dumps(acc, protocol=pickle.HIGHEST_PROTOCOL)
            yield from mpl.send(parent, blob, len(blob),
                                ReservedTag.REDUCE)
            break
        else:
            child = vrank | mask
            if child < size:
                blob = yield from mpl.recv_bytes(
                    ((child + root) % size), ReservedTag.REDUCE)
                acc = op(acc, pickle.loads(blob))
        mask <<= 1
    return acc if vrank == 0 else None


def allreduce(mpl: "Mpl", value: Any,
              op: Callable[[Any, Any], Any]) -> Generator:
    """Reduce to rank 0, then broadcast the result to everyone."""
    acc = yield from reduce(mpl, value, op, root=0)
    blob = pickle.dumps(acc, protocol=pickle.HIGHEST_PROTOCOL) \
        if mpl.rank == 0 else None
    blob = yield from bcast(mpl, blob, root=0)
    return pickle.loads(blob)
