"""Lightweight statistics counters shared by every simulated component.

Each component declares its event counters once, with :class:`Counters`;
designs merge their components' ``stats()`` into the flat dictionary a
run reports.  :class:`StatGroup` is a free-standing bag of named
counters, and :class:`Histogram` the bounded latency histogram.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Mapping, Tuple


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


class StatGroup:
    """A named bag of additive counters.

    >>> stats = StatGroup("l1")
    >>> stats.add("hits")
    >>> stats.add("hits", 2)
    >>> stats["hits"]
    3.0
    >>> stats.ratio("hits", "hits")
    1.0
    """

    __slots__ = ("name", "_counters")

    def __init__(self, name: str):
        self.name = name
        self._counters: Dict[str, float] = defaultdict(float)

    def add(self, key: str, amount: float = 1.0) -> None:
        """Increment counter ``key`` by ``amount``."""
        self._counters[key] += amount

    def set(self, key: str, value: float) -> None:
        """Overwrite counter ``key`` (used for gauges like final sizes)."""
        self._counters[key] = value

    def __getitem__(self, key: str) -> float:
        return self._counters.get(key, 0.0)

    def __contains__(self, key: str) -> bool:
        return key in self._counters

    def keys(self) -> Iterable[str]:
        return self._counters.keys()

    def ratio(self, numerator: str, denominator: str) -> float:
        """Return counters[num] / counters[den], or 0.0 if the denominator
        is zero (a convention that keeps report code branch-free)."""
        den = self._counters.get(denominator, 0.0)
        if den == 0.0:
            return 0.0
        return self._counters.get(numerator, 0.0) / den

    def mean(self, total: str, count: str) -> float:
        """Alias of :meth:`ratio` that reads better for averages."""
        return self.ratio(total, count)

    def as_dict(self, prefix: str = "") -> Dict[str, float]:
        """Flatten to a plain dict, optionally prefixing every key."""
        if prefix:
            return {f"{prefix}{k}": v for k, v in self._counters.items()}
        return dict(self._counters)

    def merge(self, other: "StatGroup") -> None:
        """Add every counter of ``other`` into this group."""
        for key, value in other._counters.items():
            self._counters[key] += value

    def reset(self) -> None:
        self._counters.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(f"{k}={v:g}" for k, v in sorted(self._counters.items()))
        return f"StatGroup({self.name!r}: {body})"


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


def merge_stat_dicts(dicts: Iterable[Mapping[str, float]]) -> Dict[str, float]:
    """Sum a sequence of flat stat dictionaries key-wise."""
    merged: Dict[str, float] = defaultdict(float)
    for d in dicts:
        for key, value in d.items():
            merged[key] += value
    return dict(merged)


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
