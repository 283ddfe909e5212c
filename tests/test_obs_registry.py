"""Unit tests for the metrics registry (repro.obs.registry)."""

import pytest

from repro.obs.registry import (
    DEFAULT_TIME_BUCKETS_NS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.stages import (
    STAGE_DATAMGMT,
    STAGE_NETWORKING,
    STAGE_OTHER,
    STAGE_PERSISTENCE,
    classify,
    fold,
)
from repro.sim.engine import Simulator


class TestCounter:
    def test_inc_accumulates(self):
        counter = Counter("x")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            Counter("x").inc(-1)

    def test_reset(self):
        counter = Counter("x")
        counter.inc(7)
        counter.reset()
        assert counter.value == 0.0

    def test_describe(self):
        counter = Counter("x")
        counter.inc(4)
        assert counter.describe() == {"type": "counter", "value": 4.0}


class TestGauge:
    def test_set_and_read(self):
        gauge = Gauge("g")
        gauge.set(12.5)
        assert gauge.value == 12.5

    def test_callback_backed_reads_live_state(self):
        state = {"depth": 3}
        gauge = Gauge("g", fn=lambda: state["depth"])
        assert gauge.value == 3
        state["depth"] = 9
        assert gauge.value == 9

    def test_set_on_callback_gauge_rejected(self):
        gauge = Gauge("g", fn=lambda: 1)
        with pytest.raises(ValueError, match="callback-backed"):
            gauge.set(5)

    def test_reset_leaves_callback_gauges_alone(self):
        gauge = Gauge("g", fn=lambda: 42)
        gauge.reset()
        assert gauge.value == 42


class TestHistogram:
    def test_bucketing_boundaries_inclusive(self):
        # Bucket i counts observations <= bounds[i].  counts is a view
        # derived from the digest; exact while every sample is its own
        # centroid, as here.
        hist = Histogram("h", bounds=(10, 100, 1000))
        for value in (5, 10, 11, 100, 999, 1000, 1001):
            hist.observe(value)
        assert hist.counts == [2, 2, 2, 1]  # <=10, <=100, <=1000, overflow
        assert hist.count == 7
        assert hist.min == 5
        assert hist.max == 1001

    def test_mean(self):
        hist = Histogram("h", bounds=(10,))
        hist.observe(4)
        hist.observe(8)
        assert hist.mean == 6.0
        assert Histogram("empty", bounds=(10,)).mean == 0.0

    def test_quantile_is_digest_backed(self):
        # quantile() now answers from the t-digest: the median of 90
        # fives and 10 fifties is 5, not the bucket edge 10.
        hist = Histogram("h", bounds=(10, 100, 1000))
        for _ in range(90):
            hist.observe(5)
        for _ in range(10):
            hist.observe(50)
        assert hist.quantile(0.5) == 5
        assert hist.quantile(0.0) == 5
        assert hist.quantile(1.0) == 50

    def test_quantile_overflow_reports_max(self):
        hist = Histogram("h", bounds=(10,))
        hist.observe(123456)
        assert hist.quantile(0.99) == 123456

    def test_quantile_range_checked(self):
        hist = Histogram("h", bounds=(10,))
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_bounds_must_strictly_increase(self):
        with pytest.raises(ValueError, match="strictly increase"):
            Histogram("h", bounds=(10, 10, 20))
        with pytest.raises(ValueError, match="strictly increase"):
            Histogram("h", bounds=(20, 10))
        with pytest.raises(ValueError, match="no buckets"):
            Histogram("h", bounds=())

    def test_default_bounds_cover_one_us_to_16ms(self):
        assert DEFAULT_TIME_BUCKETS_NS[0] == 1_000.0
        assert DEFAULT_TIME_BUCKETS_NS[-1] == 16_384_000.0

    def test_describe_lists_sparse_buckets_with_overflow(self):
        # v2 snapshots elide zero-count buckets (the empty <=100 bucket
        # here) but always keep the terminal overflow entry.
        hist = Histogram("h", bounds=(10, 100))
        hist.observe(5)
        hist.observe(500)
        described = hist.describe()
        assert described["type"] == "histogram"
        assert described["count"] == 2
        assert described["buckets"] == [
            {"le": 10.0, "count": 1},
            {"le": None, "count": 1},
        ]
        assert set(described["quantiles"]) == {"p50", "p90", "p99", "p99.9"}
        assert described["quantiles"]["p99.9"] == 500

    def test_describe_bucket_counts_sum_to_count(self):
        # The invariant CI's schema check relies on, across compaction:
        # derived bucket weights always total the observation count.
        hist = Histogram("h", bounds=(10, 100, 1000, 10000))
        for i in range(5000):
            hist.observe(float((i * 37) % 20000))
        described = hist.describe()
        assert sum(b["count"] for b in described["buckets"]) == 5000
        assert described["buckets"][-1]["le"] is None
        assert all(b["count"] for b in described["buckets"][:-1])

    def test_empty_histogram_describes_lone_overflow(self):
        described = Histogram("h", bounds=(10, 100)).describe()
        assert described["buckets"] == [{"le": None, "count": 0}]

    def test_reset(self):
        hist = Histogram("h", bounds=(10,))
        hist.observe(5)
        hist.reset()
        assert hist.count == 0
        assert hist.counts == [0, 0]
        assert hist.min is None and hist.max is None


class TestMetricsRegistry:
    def test_get_or_create_idempotent(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")
        assert len(registry) == 3

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("a")
        with pytest.raises(TypeError, match="already registered"):
            registry.histogram("a")

    def test_value_helper(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(7)
        hist = registry.histogram("h", bounds=(100,))
        hist.observe(10)
        hist.observe(20)
        assert registry.value("c") == 3
        assert registry.value("g") == 7
        assert registry.value("h") == 15.0       # histograms report the mean
        assert registry.value("missing", default=-1) == -1

    def test_snapshot_uses_sim_clock(self):
        sim = Simulator()
        registry = MetricsRegistry(sim)
        registry.counter("c").inc()
        sim.run(until=5_000.0)
        snap = registry.snapshot()
        assert snap["schema"] == "repro-metrics/v2"
        assert snap["sim_now_ns"] == 5_000.0
        assert snap["window_ns"] == 5_000.0
        assert snap["metrics"]["c"] == {"type": "counter", "value": 1.0}

    def test_reset_zeroes_but_keeps_handles(self):
        sim = Simulator()
        registry = MetricsRegistry(sim)
        counter = registry.counter("c")
        counter.inc(9)
        sim.run(until=1_000.0)
        registry.reset()
        assert counter.value == 0.0             # cached handle still live
        assert registry.counter("c") is counter
        assert registry.window_ns == 0.0
        sim.run(until=1_500.0)
        assert registry.window_ns == 500.0

    def test_gauge_upgrade_to_callback(self):
        registry = MetricsRegistry()
        plain = registry.gauge("g")
        registry.gauge("g", fn=lambda: 11)
        assert plain.value == 11


class TestStageClassifier:
    def test_paper_stage_mapping(self):
        assert classify("net.rx") == STAGE_NETWORKING
        assert classify("app") == STAGE_NETWORKING
        assert classify("datamgmt.checksum") == STAGE_DATAMGMT
        assert classify("pm.alloc") == STAGE_DATAMGMT
        assert classify("mem.access") == STAGE_DATAMGMT
        assert classify("persist") == STAGE_PERSISTENCE
        assert classify("pm.flush") == STAGE_PERSISTENCE
        assert classify("blockdev.write") == STAGE_PERSISTENCE
        assert classify("something.else") == STAGE_OTHER

    def test_fold_sums_by_stage(self):
        folded = fold({"net.rx": 10.0, "net.tx": 5.0,
                       "datamgmt.copy": 3.0, "persist": 2.0})
        assert folded[STAGE_NETWORKING] == 15.0
        assert folded[STAGE_DATAMGMT] == 3.0
        assert folded[STAGE_PERSISTENCE] == 2.0

    def test_fold_into_accumulates(self):
        acc = fold({"net.rx": 1.0})
        fold({"net.rx": 2.0, "persist": 4.0}, into=acc)
        assert acc[STAGE_NETWORKING] == 3.0
        assert acc[STAGE_PERSISTENCE] == 4.0
