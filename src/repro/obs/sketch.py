"""Deterministic log-bucketed quantile sketches (DDSketch-style).

The paper's profiles are quantile-shaped -- Table 1 decomposes a
*median* latency, the timeline reports p50/p99/p99.9 per window -- but
the fixed-bucket :class:`repro.obs.Histogram` cannot answer "what is
p99 of this window's latencies" with a useful error bound.  This
module adds the standard streaming answer: a sketch that buckets each
observation by the integer key

    key(v) = ceil(log(v) / log(gamma)),    gamma = (1 + a) / (1 - a)

so every value in bucket ``k`` lies within relative error ``a`` of the
bucket's representative value ``2 * gamma^k / (gamma + 1)``.  Quantile
queries walk the bucket counts by rank and return the representative,
giving the classic DDSketch guarantee::

    |q_est - q_true| <= a * q_true        (relative, for any quantile)

Two properties matter more here than accuracy:

* **Fixed layout.**  ``gamma`` is derived once from ``alpha``; bucket
  keys are integers; nothing rescales or collapses as data arrives.
  Two sketches built from the same observations are *equal*, not just
  statistically close.
* **Exact, order-independent merge.**  Merging adds integer bucket
  counts, so ``merge(a, b) == merge(b, a)`` bit-for-bit and any
  grouping of per-node / per-worker sketches combines to the same
  result -- the property the ``--jobs N`` byte-identity contract
  needs (histogram-of-histograms would need it too; quantile summaries
  like t-digest do not have it).

Values at or below ``MIN_TRACKABLE`` land in a dedicated zero bucket;
negative values mirror into a negative store keyed by ``key(-v)``.
Serialization (:meth:`QuantileSketch.to_dict`) emits sorted integer
keys as strings, so ``json.dumps(..., sort_keys=True)`` of two equal
sketches is byte-identical.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

from ..errors import SimulationError

__all__ = ["QuantileSketch", "merge_sketches", "DEFAULT_ALPHA",
           "MIN_TRACKABLE"]

#: Default relative accuracy: 1% -- p99 of a 100us stream is reported
#: within +-1us, far below every bucket the figures resolve.
DEFAULT_ALPHA = 0.01

#: Magnitudes at or below this are indistinguishable from zero (the
#: log mapping diverges at 0); they are counted in the zero bucket.
MIN_TRACKABLE = 1e-9


class QuantileSketch:
    """A mergeable log-bucketed quantile sketch with fixed layout.

    ``alpha`` is the relative-accuracy target; all sketches that are
    ever merged must share it (checked -- merging sketches of
    different layouts would silently corrupt both bounds).
    """

    __slots__ = ("alpha", "_log_gamma", "count", "total", "zero",
                 "pos", "neg")

    def __init__(self, alpha: float = DEFAULT_ALPHA) -> None:
        if not 0.0 < alpha < 1.0:
            raise SimulationError(
                f"sketch alpha must be in (0, 1), got {alpha}")
        self.alpha = alpha
        self._log_gamma = math.log((1.0 + alpha) / (1.0 - alpha))
        self.count = 0
        self.total = 0.0
        self.zero = 0
        #: bucket key -> observation count, positive / negative stores.
        self.pos: dict[int, int] = {}
        self.neg: dict[int, int] = {}

    # ------------------------------------------------------------------
    def _key(self, magnitude: float) -> int:
        return math.ceil(math.log(magnitude) / self._log_gamma)

    def _value(self, key: int) -> float:
        """Representative value of bucket ``key`` (midpoint in relative
        terms: within ``alpha`` of every member)."""
        gamma = math.exp(self._log_gamma)
        return 2.0 * gamma ** key / (gamma + 1.0)

    # ------------------------------------------------------------------
    def observe(self, value: float, n: int = 1) -> None:
        """Fold ``n`` occurrences of ``value`` into the sketch."""
        if n <= 0:
            raise SimulationError(f"sketch observe: n must be > 0,"
                                  f" got {n}")
        self.count += n
        self.total += value * n
        if -MIN_TRACKABLE <= value <= MIN_TRACKABLE:
            self.zero += n
        elif value > 0.0:
            key = self._key(value)
            self.pos[key] = self.pos.get(key, 0) + n
        else:
            key = self._key(-value)
            self.neg[key] = self.neg.get(key, 0) + n

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.observe(value)

    # ------------------------------------------------------------------
    def quantile(self, q: float) -> Optional[float]:
        """The ``q``-quantile estimate (relative error <= alpha).

        ``None`` on an empty sketch.  Nearest-rank semantics: the
        returned bucket holds the observation with 1-based rank
        ``ceil(q * count)`` (clamped to ``[1, count]``), so ``q=0``
        is the minimum bucket and ``q=1`` the maximum.
        """
        if not 0.0 <= q <= 1.0:
            raise SimulationError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return None
        rank = min(max(math.ceil(q * self.count), 1), self.count)
        seen = 0
        # Negative store first, most-negative value first: larger keys
        # are larger magnitudes, i.e. smaller (more negative) values.
        for key in sorted(self.neg, reverse=True):
            seen += self.neg[key]
            if seen >= rank:
                return -self._value(key)
        seen += self.zero
        if seen >= rank:
            return 0.0
        for key in sorted(self.pos):
            seen += self.pos[key]
            if seen >= rank:
                return self._value(key)
        # Unreachable unless counts were corrupted externally.
        raise SimulationError("sketch rank walk overran the counts")

    def quantiles(self, qs: Iterable[float]) -> list[Optional[float]]:
        return [self.quantile(q) for q in qs]

    @property
    def mean(self) -> Optional[float]:
        return self.total / self.count if self.count else None

    # ------------------------------------------------------------------
    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold ``other`` into ``self`` (returns ``self``).

        Exact: bucket counts add, so the merged sketch equals the
        sketch of the concatenated streams regardless of merge order
        or grouping (the associativity/commutativity tests pin this).
        """
        if other.alpha != self.alpha:
            raise SimulationError(
                f"cannot merge sketches of different layouts"
                f" (alpha {self.alpha} vs {other.alpha})")
        self.count += other.count
        self.total += other.total
        self.zero += other.zero
        for key, n in other.pos.items():
            self.pos[key] = self.pos.get(key, 0) + n
        for key, n in other.neg.items():
            self.neg[key] = self.neg.get(key, 0) + n
        return self

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Stable serialized form (sorted integer keys as strings)."""
        return {
            "alpha": self.alpha,
            "count": self.count,
            "sum": round(self.total, 6),
            "zero": self.zero,
            "pos": {str(k): self.pos[k] for k in sorted(self.pos)},
            "neg": {str(k): self.neg[k] for k in sorted(self.neg)},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "QuantileSketch":
        sketch = cls(alpha=data["alpha"])
        sketch.count = int(data["count"])
        sketch.total = float(data["sum"])
        sketch.zero = int(data["zero"])
        sketch.pos = {int(k): int(n) for k, n in data["pos"].items()}
        sketch.neg = {int(k): int(n) for k, n in data["neg"].items()}
        return sketch

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuantileSketch):
            return NotImplemented
        return (self.alpha == other.alpha and self.count == other.count
                and self.zero == other.zero and self.pos == other.pos
                and self.neg == other.neg
                and round(self.total, 6) == round(other.total, 6))

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<QuantileSketch n={self.count} alpha={self.alpha}"
                f" buckets={len(self.pos) + len(self.neg)}>")


def merge_sketches(sketches: Iterable[QuantileSketch],
                   alpha: float = DEFAULT_ALPHA) -> QuantileSketch:
    """Merge many sketches into a fresh one (inputs untouched)."""
    out = QuantileSketch(alpha=alpha)
    for sketch in sketches:
        out.merge(sketch)
    return out
