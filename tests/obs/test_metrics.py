"""MetricsRegistry behavior: instruments, families, windows."""

from __future__ import annotations

import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    LatencyHistogram,
    MetricsRegistry,
)


# -- instruments -------------------------------------------------------


def test_counter_accumulates_and_rejects_negative():
    counter = Counter()
    counter.inc()
    counter.inc(2.5)
    assert counter.value == 3.5
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_gauge_set_inc_dec():
    gauge = Gauge()
    gauge.set(4)
    gauge.inc()
    gauge.dec(2)
    assert gauge.value == 3.0


def test_histogram_buckets_are_inclusive_upper_bounds():
    hist = LatencyHistogram(buckets=(0.1, 1.0))
    hist.observe(0.1)   # == first bound -> first bucket (le semantics)
    hist.observe(0.5)
    hist.observe(99.0)  # overflow -> +Inf bucket
    assert hist.count == 3
    assert hist.cumulative() == [1, 2, 3]
    assert hist.total == pytest.approx(99.6)


def test_histogram_validates_bounds():
    with pytest.raises(ValueError):
        LatencyHistogram(buckets=())
    with pytest.raises(ValueError):
        LatencyHistogram(buckets=(1.0, 1.0))
    with pytest.raises(ValueError):
        LatencyHistogram(buckets=(1.0, float("inf")))


def test_histogram_quantile_interpolates():
    hist = LatencyHistogram(buckets=(1.0, 2.0))
    for _ in range(10):
        hist.observe(1.5)
    # all mass in (1, 2]: the median interpolates inside that bucket
    assert 1.0 < hist.quantile(0.5) <= 2.0
    assert hist.quantile(0.0) >= 0.0
    with pytest.raises(ValueError):
        hist.quantile(1.5)


def test_histogram_quantile_empty_is_zero():
    assert LatencyHistogram().quantile(0.9) == 0.0


# -- families + registry -----------------------------------------------


def test_family_children_keyed_by_label_values():
    registry = MetricsRegistry()
    family = registry.counter_family("reqs_total", "requests", ("route",))
    family.labels(route="/a").inc()
    family.labels(route="/a").inc()
    family.labels(route="/b").inc(3)
    assert family.labels(route="/a").value == 2.0
    assert family.labels(route="/b").value == 3.0
    assert family.total() == 5.0


def test_family_rejects_wrong_label_names():
    registry = MetricsRegistry()
    family = registry.counter_family("x_total", "", ("route",))
    with pytest.raises(ValueError):
        family.labels(method="GET")
    with pytest.raises(ValueError):
        family.labels()


def test_invalid_metric_and_label_names_rejected():
    registry = MetricsRegistry()
    with pytest.raises(ValueError):
        registry.counter("0bad")
    with pytest.raises(ValueError):
        registry.counter_family("ok_total", "", ("bad-label",))


def test_reregistration_same_shape_returns_same_family():
    registry = MetricsRegistry()
    a = registry.counter("hits_total")
    b = registry.counter("hits_total")
    a.inc()
    assert b.value == 1.0
    assert registry.family_count == 1


def test_reregistration_with_different_shape_fails():
    registry = MetricsRegistry()
    registry.counter("thing")
    with pytest.raises(ValueError):
        registry.gauge("thing")
    registry.histogram("lat", buckets=(1.0, 2.0))
    with pytest.raises(ValueError):
        registry.histogram("lat", buckets=(1.0, 3.0))
    registry.counter_family("fam", "", ("a",))
    with pytest.raises(ValueError):
        registry.counter_family("fam", "", ("b",))


def test_registry_rejects_tiny_ring():
    with pytest.raises(ValueError):
        MetricsRegistry(ring_size=1)


def test_concurrent_label_resolution_single_child():
    registry = MetricsRegistry()
    family = registry.counter_family("c_total", "", ("k",))
    barrier = threading.Barrier(8)

    def hammer():
        barrier.wait()
        for _ in range(100):
            family.labels(k="same").inc()

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(family.children) == 1
    assert family.labels(k="same").value == 800.0


# -- snapshot + windows ------------------------------------------------


def test_snapshot_partitions_by_kind():
    registry = MetricsRegistry()
    registry.counter("c_total").inc(2)
    registry.gauge("g").set(7)
    registry.histogram("h", buckets=(1.0,)).observe(0.5)
    registry.counter_family("f_total", "", ("k",)).labels(k="v").inc()
    snap = registry.snapshot()
    assert snap["counters"]["c_total"] == 2.0
    assert snap["counters"]['f_total{k="v"}'] == 1.0
    assert snap["gauges"]["g"] == 7.0
    hist = snap["histograms"]["h"]
    assert hist["count"] == 1 and hist["sum"] == 0.5
    assert hist["buckets"]["+Inf"] == 1


def test_window_rate_from_ring_samples():
    registry = MetricsRegistry()
    counter = registry.counter("ticks_total")
    registry.record_window(0.0)
    counter.inc(10)
    registry.record_window(2.0)
    assert registry.window("ticks_total") == [(0.0, 0.0), (2.0, 10.0)]
    assert registry.rate("ticks_total") == pytest.approx(5.0)
    assert registry.rate("unknown") == 0.0


def test_rate_respects_window_bound():
    registry = MetricsRegistry()
    counter = registry.counter("ticks_total")
    registry.record_window(0.0)
    counter.inc(1000)
    registry.record_window(100.0)
    counter.inc(10)
    registry.record_window(101.0)
    # only the trailing 60s participates: the jump at t=100 is the start
    assert registry.rate("ticks_total", window_s=60.0) == pytest.approx(10.0)


def test_ring_is_bounded():
    registry = MetricsRegistry(ring_size=4)
    registry.counter("c_total")
    for i in range(10):
        registry.record_window(float(i))
    assert len(registry.window("c_total")) == 4
    assert registry.window("c_total")[0][0] == 6.0


def test_default_buckets_are_strictly_increasing():
    assert all(
        b2 > b1 for b1, b2 in zip(DEFAULT_BUCKETS, DEFAULT_BUCKETS[1:])
    )
