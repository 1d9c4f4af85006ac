"""Unit and property tests for the statistics helpers."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.common.stats import (
    Counters,
    Histogram,
    geometric_mean,
)


class _Base(Counters):
    __slots__ = ("hits", "latency_ns", "occupancy")
    COUNTERS = ("hits", "latency_ns")

    def __init__(self):
        self.hits = 0
        self.latency_ns = 0.0
        self.occupancy = 0


class _Derived(_Base):
    __slots__ = ("fills",)
    COUNTERS = ("fills",)

    def __init__(self):
        super().__init__()
        self.fills = 0


class TestCounters:
    def test_stats_report_every_declared_counter_base_first(self):
        obj = _Derived()
        obj.hits, obj.latency_ns, obj.fills = 3, 1.5, 2
        assert obj.stats("x_") == {
            "x_hits": 3.0, "x_latency_ns": 1.5, "x_fills": 2.0,
        }
        assert all(type(v) is float for v in obj.stats().values())

    def test_reset_zeroes_declared_counters_only_keeping_type(self):
        obj = _Derived()
        obj.hits, obj.latency_ns, obj.fills, obj.occupancy = 3, 1.5, 2, 7
        obj.reset_stats()
        assert (obj.hits, obj.fills) == (0, 0)
        assert type(obj.hits) is int
        assert obj.latency_ns == 0.0 and type(obj.latency_ns) is float
        assert obj.occupancy == 7  # undeclared state survives

    def test_slotted_subclasses_stay_slotted(self):
        assert not hasattr(_Derived(), "__dict__")


class TestHistogram:
    def test_bucket_placement(self):
        # Bucket i holds [2^(i-1), 2^i): 0.5 -> 0, 1 -> 1, 3 -> 2,
        # 900 -> 10 (512 <= 900 < 1024).
        h = Histogram("lat")
        for value in (0.5, 1.0, 3.0, 900.0):
            h.observe(value)
        assert h.count == 4
        assert h.buckets[0] == 1
        assert h.buckets[1] == 1
        assert h.buckets[2] == 1
        assert h.buckets[10] == 1

    def test_zero_and_negative_go_to_bucket_zero(self):
        h = Histogram("lat")
        h.observe(0.0)
        h.observe(-5.0)
        assert h.buckets[0] == 2

    def test_last_bucket_is_open_ended(self):
        h = Histogram("lat", num_buckets=4)
        h.observe(1e18)
        assert h.buckets[3] == 1
        assert h.max == 1e18

    def test_mean_min_max(self):
        h = Histogram("lat")
        for value in (10.0, 20.0, 30.0):
            h.observe(value)
        assert h.mean() == pytest.approx(20.0)
        assert h.min == 10.0
        assert h.max == 30.0

    def test_empty_mean_is_zero(self):
        assert Histogram("lat").mean() == 0.0

    def test_percentile_bucket_resolution(self):
        h = Histogram("lat")
        for _ in range(99):
            h.observe(4.0)  # bucket 3
        h.observe(1000.0)  # bucket 10
        assert h.percentile(0.5) == 8.0  # 2^3
        assert h.percentile(1.0) == 2.0 ** 10

    def test_percentile_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            Histogram("lat").percentile(0.0)
        with pytest.raises(ValueError):
            Histogram("lat").percentile(1.5)
        with pytest.raises(ValueError):
            Histogram("lat").percentile(-0.1)

    def test_percentile_empty_is_zero(self):
        h = Histogram("lat")
        assert h.percentile(0.5) == 0.0
        assert h.percentile(1.0) == 0.0

    def test_percentile_fraction_one_is_top_occupied_bucket(self):
        h = Histogram("lat")
        h.observe(1.0)    # bucket 1
        h.observe(600.0)  # bucket 10
        assert h.percentile(1.0) == 2.0 ** 10

    def test_percentile_single_occupied_bucket(self):
        # Every fraction lands in the one occupied bucket.
        h = Histogram("lat")
        for _ in range(5):
            h.observe(5.0)  # bucket 3: [4, 8)
        for fraction in (1e-9, 0.25, 0.5, 0.99, 1.0):
            assert h.percentile(fraction) == 8.0

    def test_percentile_tiny_fraction_hits_first_occupied_bucket(self):
        h = Histogram("lat")
        h.observe(0.0)
        h.observe(1000.0)
        assert h.percentile(1e-9) == 1.0  # 2^0: the below-1 bucket

    def test_merge(self):
        a, b = Histogram("lat"), Histogram("lat")
        a.observe(2.0)
        b.observe(100.0)
        a.merge(b)
        assert a.count == 2
        assert a.min == 2.0
        assert a.max == 100.0
        assert a.mean() == pytest.approx(51.0)

    def test_merge_empty_keeps_extrema(self):
        a, b = Histogram("lat"), Histogram("lat")
        a.observe(7.0)
        a.merge(b)
        assert a.min == 7.0 and a.max == 7.0

    def test_merge_rejects_bucket_mismatch(self):
        with pytest.raises(ValueError):
            Histogram("a", num_buckets=8).merge(Histogram("b", num_buckets=9))

    def test_to_dict_roundtrip(self):
        h = Histogram("lat")
        for value in (1.0, 5.0, 900.0):
            h.observe(value)
        clone = Histogram.from_dict(h.to_dict())
        assert clone.to_dict() == h.to_dict()
        assert clone.buckets == h.buckets

    def test_to_dict_empty_reports_zero_extrema(self):
        data = Histogram("lat").to_dict()
        assert data["min"] == 0.0 and data["max"] == 0.0
        assert data["count"] == 0

    def test_reset(self):
        h = Histogram("lat")
        h.observe(3.0)
        h.reset()
        assert h.count == 0
        assert sum(h.buckets) == 0
        assert h.to_dict()["min"] == 0.0

    def test_rejects_too_few_buckets(self):
        with pytest.raises(ValueError):
            Histogram("lat", num_buckets=1)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e12), min_size=1,
                    max_size=50))
    def test_count_and_bounds_invariants(self, values):
        h = Histogram("lat")
        for value in values:
            h.observe(value)
        assert h.count == len(values)
        assert sum(h.buckets) == len(values)
        assert h.min == min(values)
        assert h.max == max(values)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e12), min_size=1,
                    max_size=30),
           st.lists(st.floats(min_value=0.0, max_value=1e12), min_size=0,
                    max_size=30),
           st.floats(min_value=0.001, max_value=1.0))
    def test_merge_then_percentile_matches_single_pass(self, left, right,
                                                       fraction):
        """Merging histograms then taking a percentile must equal
        observing the concatenated stream into one histogram."""
        a, b, combined = (Histogram("lat"), Histogram("lat"),
                          Histogram("lat"))
        for value in left:
            a.observe(value)
            combined.observe(value)
        for value in right:
            b.observe(value)
            combined.observe(value)
        a.merge(b)
        assert a.buckets == combined.buckets
        assert a.percentile(fraction) == combined.percentile(fraction)

    @staticmethod
    def _observed_one_by_one(values, before=()):
        h = Histogram("lat", num_buckets=8)
        for value in before:
            h.observe(value)
        for value in values:
            h.observe(value)
        return h

    @staticmethod
    def _numbers(h):
        return (h.buckets, h.count, h.total, h.min, h.max)

    def test_observe_all_equals_repeated_observe(self):
        """Zero, values below 1, values past the last bucket (8 buckets
        end at 64), from an empty and from a used histogram."""
        values = [0.0, 0.25, 0.999, 1.0, 3.5, 63.9, 64.0, 1e6, 1e16, 1.0,
                  1.0, 1.0, 0.5]
        for before in ((), (2.0, 1e16)):
            h = self._observed_one_by_one((), before)
            h.observe_all(values)
            expected = self._observed_one_by_one(values, before)
            assert self._numbers(h) == self._numbers(expected)
            assert h.buckets[0] == 4
            assert h.buckets[-1] == 3 + len(before) // 2

    def test_observe_all_total_is_the_left_fold(self):
        """1e16 + 1.0 rounds back to 1e16, so repeated observe leaves the
        total at 1e16; an exactly rounded sum would give 1e16 + 4."""
        values = [1e16, 1.0, 1.0, 1.0]
        h = Histogram("lat")
        h.observe_all(values)
        assert h.total == 1e16 == self._observed_one_by_one(values).total
        assert math.fsum(values) == 1e16 + 4

    def test_observe_all_of_nothing_changes_nothing(self):
        h = self._observed_one_by_one([5.0, 0.5])
        before = self._numbers(h)
        h.observe_all([])
        assert self._numbers(h) == before
        empty = Histogram("lat")
        empty.observe_all([])
        assert (empty.count, empty.total, empty.min, empty.max) == (
            0, 0.0, math.inf, -math.inf)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e12), max_size=50),
           st.lists(st.floats(min_value=0.0, max_value=1e12), max_size=5))
    def test_observe_all_matches_observe_on_drawn_values(self, values,
                                                         before):
        h = self._observed_one_by_one((), before)
        h.observe_all(values)
        expected = self._observed_one_by_one(values, before)
        assert self._numbers(h) == self._numbers(expected)


class TestGeometricMean:
    def test_known_value(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)

    def test_empty_returns_zero(self):
        assert geometric_mean([]) == 0.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    @given(st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1,
                    max_size=20))
    def test_between_min_and_max(self, values):
        gm = geometric_mean(values)
        assert min(values) - 1e-9 <= gm <= max(values) + 1e-9

    @given(st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1,
                    max_size=20),
           st.floats(min_value=0.1, max_value=10.0))
    def test_scale_equivariance(self, values, k):
        """gm(k * xs) == k * gm(xs): the property that makes geometric
        means the right aggregate for normalised speedups."""
        lhs = geometric_mean([k * v for v in values])
        rhs = k * geometric_mean(values)
        assert math.isclose(lhs, rhs, rel_tol=1e-9)
