"""Lightweight statistics counters shared by every simulated component.

Each component declares its event counters once, with :class:`Counters`;
designs merge their components' ``stats()`` into the flat dictionary a
run reports.  :class:`Histogram` is the bounded latency histogram.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from operator import add
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple


def counter_stats(obj, names: Iterable[str], prefix: str = "") -> Dict[str, float]:
    """Report the counters ``names`` of ``obj`` as floats under ``prefix``."""
    return {f"{prefix}{name}": float(getattr(obj, name)) for name in names}


class Counters:
    """Mixin: a class names its event counters once, in ``COUNTERS``.

    Counters are plain ``int``/``float`` instance attributes that the hot
    path increments directly.  ``COUNTERS`` lists the ones a class adds,
    in the order ``stats()`` reports them; a subclass lists only its own.
    Both reporting methods derive from these lists:

    - :meth:`stats` reports every declared counter, base class first;
    - :meth:`reset_stats` zeroes the same counters (``0`` or ``0.0``) at
      the warmup/measurement boundary.

    Anything that is not an event count -- gauges such as occupancy,
    learned state such as predictor history, child components -- is not
    declared: a class reports and resets it by extending these methods,
    and a parent calls its children's ``reset_stats()`` rather than
    zeroing their counters itself.
    """

    __slots__ = ()

    COUNTERS: Tuple[str, ...] = ()
    _all_counters: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._all_counters = tuple(
            name
            for klass in reversed(cls.__mro__)
            for name in vars(klass).get("COUNTERS", ())
        )

    def stats(self, prefix: str = "") -> Dict[str, float]:
        return counter_stats(self, self._all_counters, prefix)

    def reset_stats(self) -> None:
        for name in self._all_counters:
            zero = 0.0 if isinstance(getattr(self, name), float) else 0
            setattr(self, name, zero)


class Histogram:
    """A bounded histogram over power-of-two (log2) buckets.

    Bucket ``i`` holds values in ``[2**(i-1), 2**i)``; bucket 0 holds
    everything below 1 (including zero and negatives, which latency
    accounting never produces but a histogram must not crash on).  The
    last bucket is open-ended, so the structure is bounded regardless of
    the observed range -- ``num_buckets`` of 40 covers latencies up to
    ~half a second in nanoseconds.

    >>> h = Histogram("lat")
    >>> for v in (0.5, 1.0, 3.0, 900.0):
    ...     h.observe(v)
    >>> h.count
    4
    >>> h.buckets[0], h.buckets[1], h.buckets[2], h.buckets[10]
    (1, 1, 1, 1)
    """

    __slots__ = ("name", "num_buckets", "buckets", "count", "total",
                 "min", "max")

    def __init__(self, name: str, num_buckets: int = 40):
        if num_buckets < 2:
            raise ValueError("a histogram needs at least two buckets")
        self.name = name
        self.num_buckets = num_buckets
        self.buckets: List[int] = [0] * num_buckets
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one observation (hot-path cheap: int ops only)."""
        index = int(value)
        index = index.bit_length() if index > 0 else 0
        if index >= self.num_buckets:
            index = self.num_buckets - 1
        self.buckets[index] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def observe_all(self, values: Sequence[float]) -> None:
        """Record ``values`` as ``observe`` would, one after another.

        The buckets, count, minimum and maximum do not depend on the
        order; the total does (float addition rounds), so it is folded
        left to right from the running total, as repeated ``observe``
        calls add.  (``sum`` would not do: from Python 3.12 on it
        compensates the rounding and can return other bits.)
        """
        if not values:
            return
        last = self.num_buckets - 1
        buckets = self.buckets
        for whole, n in Counter(map(int, values)).items():
            index = whole.bit_length() if whole > 0 else 0
            buckets[index if index < last else last] += n
        self.count += len(values)
        self.total = reduce(add, values, self.total)
        low = min(values)
        if low < self.min:
            self.min = low
        high = max(values)
        if high > self.max:
            self.max = high

    def mean(self) -> float:
        if self.count == 0:
            return 0.0
        return self.total / self.count

    def percentile(self, fraction: float) -> float:
        """Upper bucket bound at the given cumulative fraction (0..1].

        A bucket-resolution estimate: returns ``2**i`` for the first
        bucket at which the cumulative count reaches the fraction (the
        value every observation in that bucket is strictly below, except
        in the open-ended last bucket).
        """
        if not (0.0 < fraction <= 1.0):
            raise ValueError("fraction must be in (0, 1]")
        if self.count == 0:
            return 0.0
        threshold = fraction * self.count
        seen = 0
        for index, bucket in enumerate(self.buckets):
            seen += bucket
            if seen >= threshold:
                return float(2 ** index)
        return float(2 ** (self.num_buckets - 1))  # pragma: no cover

    def merge(self, other: "Histogram") -> None:
        """Fold ``other``'s observations into this histogram.

        Requires identical bucket counts (merging differently bounded
        histograms would silently misplace the tail).
        """
        if other.num_buckets != self.num_buckets:
            raise ValueError(
                f"cannot merge histograms with {other.num_buckets} and "
                f"{self.num_buckets} buckets"
            )
        for index, bucket in enumerate(other.buckets):
            self.buckets[index] += bucket
        self.count += other.count
        self.total += other.total
        if other.count:
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready summary (empty histograms report zero min/max)."""
        empty = self.count == 0
        return {
            "name": self.name,
            "num_buckets": self.num_buckets,
            "buckets": list(self.buckets),
            "count": self.count,
            "total": self.total,
            "mean": self.mean(),
            "min": 0.0 if empty else self.min,
            "max": 0.0 if empty else self.max,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Histogram":
        hist = cls(str(data["name"]), int(data["num_buckets"]))
        buckets = list(data["buckets"])
        if len(buckets) != hist.num_buckets:
            raise ValueError("bucket list does not match num_buckets")
        hist.buckets = [int(b) for b in buckets]
        hist.count = int(data["count"])
        hist.total = float(data["total"])
        if hist.count:
            hist.min = float(data["min"])
            hist.max = float(data["max"])
        return hist

    def reset(self) -> None:
        self.buckets = [0] * self.num_buckets
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Histogram({self.name!r}: n={self.count}, "
                f"mean={self.mean():g})")


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean, the paper's aggregate for speedups and latencies.

    Returns 0.0 for an empty sequence and raises ``ValueError`` when any
    value is non-positive (a speedup of zero is a reporting bug upstream).
    """
    vals = list(values)
    if not vals:
        return 0.0
    product = 1.0
    for value in vals:
        if value <= 0:
            raise ValueError(f"geometric mean requires positive values, got {value}")
        product *= value
    return product ** (1.0 / len(vals))
