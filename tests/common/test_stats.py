"""Unit and property tests for the statistics helpers."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.common.stats import (
    Counters,
    Histogram,
    StatGroup,
    geometric_mean,
    merge_stat_dicts,
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


class TestStatGroup:
    def test_add_and_get(self):
        g = StatGroup("x")
        g.add("hits")
        g.add("hits", 2.5)
        assert g["hits"] == pytest.approx(3.5)

    def test_missing_key_is_zero(self):
        assert StatGroup("x")["nothing"] == 0.0

    def test_set_overwrites(self):
        g = StatGroup("x")
        g.add("gauge", 5)
        g.set("gauge", 2)
        assert g["gauge"] == 2

    def test_ratio(self):
        g = StatGroup("x")
        g.add("hits", 3)
        g.add("total", 4)
        assert g.ratio("hits", "total") == pytest.approx(0.75)

    def test_ratio_zero_denominator(self):
        g = StatGroup("x")
        g.add("hits", 3)
        assert g.ratio("hits", "absent") == 0.0

    def test_as_dict_with_prefix(self):
        g = StatGroup("x")
        g.add("a", 1)
        assert g.as_dict("p_") == {"p_a": 1.0}

    def test_merge(self):
        a, b = StatGroup("a"), StatGroup("b")
        a.add("k", 1)
        b.add("k", 2)
        b.add("only_b", 5)
        a.merge(b)
        assert a["k"] == 3
        assert a["only_b"] == 5

    def test_reset(self):
        g = StatGroup("x")
        g.add("k", 9)
        g.reset()
        assert g["k"] == 0.0
        assert "k" not in g

    def test_add_after_set_accumulates(self):
        # set() establishes a gauge baseline; add() keeps counting on top
        # of it.  The two are the same counter namespace, not two kinds.
        g = StatGroup("x")
        g.set("gauge", 10)
        g.add("gauge", 2)
        assert g["gauge"] == 12

    def test_set_defines_membership(self):
        g = StatGroup("x")
        g.set("gauge", 0.0)
        assert "gauge" in g  # explicitly set, even to zero
        assert "other" not in g

    def test_merge_sums_gauges_too(self):
        # merge() is additive for *every* key: per-core groups merged at
        # report time sum their gauges (e.g. occupancy per device), so a
        # gauge meant to be machine-global must live in one group only.
        a, b = StatGroup("a"), StatGroup("b")
        a.set("occupancy", 3)
        b.set("occupancy", 4)
        a.merge(b)
        assert a["occupancy"] == 7

    def test_merge_does_not_alias_source(self):
        a, b = StatGroup("a"), StatGroup("b")
        b.add("k", 2)
        a.merge(b)
        b.add("k", 5)
        assert a["k"] == 2

    def test_as_dict_is_a_snapshot(self):
        g = StatGroup("x")
        g.add("k", 1)
        snapshot = g.as_dict()
        g.add("k", 1)
        assert snapshot == {"k": 1.0}


class TestMergeStatDicts:
    def test_merges_keywise(self):
        merged = merge_stat_dicts([{"a": 1.0, "b": 2.0}, {"a": 3.0}])
        assert merged == {"a": 4.0, "b": 2.0}

    def test_empty(self):
        assert merge_stat_dicts([]) == {}

    def test_single_dict_is_copied(self):
        source = {"a": 1.0}
        merged = merge_stat_dicts([source])
        merged["a"] = 9.0
        assert source == {"a": 1.0}

    def test_matches_statgroup_merge(self):
        # The flat-dict path and the StatGroup path are two routes to the
        # same aggregate; they must agree key-for-key.
        a, b = StatGroup("a"), StatGroup("b")
        a.add("hits", 1)
        a.set("occupancy", 3)
        b.add("hits", 2)
        b.set("occupancy", 4)
        flat = merge_stat_dicts([a.as_dict(), b.as_dict()])
        a.merge(b)
        assert flat == a.as_dict()


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
