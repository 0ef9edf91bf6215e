"""Metrics registry: counters, gauges, histograms, snapshots, diffs."""

import pytest

from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    diff_snapshots,
    render_diff,
)


def test_counter_accumulates_and_rejects_negative():
    registry = MetricsRegistry()
    counter = registry.counter("net.messages_sent")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    with pytest.raises(ValueError):
        counter.inc(-1)


def test_labeled_counters_are_distinct_series():
    registry = MetricsRegistry()
    registry.counter("crypto.ops", mechanism="idemix").inc()
    registry.counter("crypto.ops", mechanism="merkle-tear-off").inc(2)
    snap = registry.snapshot()
    assert snap["counters"]["crypto.ops{mechanism=idemix}"] == 1
    assert snap["counters"]["crypto.ops{mechanism=merkle-tear-off}"] == 2


def test_same_name_and_labels_return_same_instance():
    registry = MetricsRegistry()
    assert registry.counter("a", x="1") is registry.counter("a", x="1")
    assert registry.counter("a", x="1") is not registry.counter("a", x="2")
    assert registry.counter("a") is registry.counter("a")
    assert registry.counter("a") is not registry.counter("a", x="1")


def test_labelled_key_built_once_per_series_in_any_label_order(monkeypatch):
    import repro.telemetry.metrics as metrics_module

    built = []
    metric_key = metrics_module._metric_key
    monkeypatch.setattr(metrics_module, "_metric_key",
                        lambda name, labels: built.append(name) or metric_key(name, labels))
    registry = MetricsRegistry()
    for __ in range(3):
        registry.counter("a", x="1", y="2").inc()
        registry.gauge("g", x="1").inc()
        registry.histogram("h", x="1").observe(0.5)
    assert registry.counter("a", y="2", x="1") is registry.counter("a", x="1", y="2")
    assert registry.counter("a", x="1", z="2") is not registry.counter("a", x="1", y="2")
    assert built == ["a", "g", "h", "a", "a"]
    snap = registry.snapshot()
    assert snap["counters"] == {"a{x=1,y=2}": 3, "a{x=1,z=2}": 0}
    assert snap["gauges"] == {"g{x=1}": 3}
    assert snap["histograms"]["h{x=1}"]["count"] == 3


def test_gauge_moves_both_ways():
    registry = MetricsRegistry()
    gauge = registry.gauge("ordering.pending", channel="ch1")
    gauge.inc(3)
    gauge.dec()
    assert gauge.value == 2
    gauge.set(0)
    assert gauge.value == 0


def test_histogram_buckets_are_cumulative_style():
    registry = MetricsRegistry()
    hist = registry.histogram("latency", bounds=(0.01, 0.1, 1.0))
    for value in (0.005, 0.05, 0.5, 5.0):
        hist.observe(value)
    assert hist.count == 4
    assert hist.total == pytest.approx(5.555)
    assert hist.bucket_dict() == {
        "le=0.01": 1, "le=0.1": 1, "le=1": 1, "le=+Inf": 1,
    }
    assert hist.mean() == pytest.approx(5.555 / 4)


def test_histogram_bounds_are_inclusive_upper_edges():
    hist = MetricsRegistry().histogram("latency", bounds=(0.01, 0.1, 1.0))
    for value in (0.0, 0.01, 0.1, 1.0, 1.0000001):
        hist.observe(value)
    assert hist.bucket_dict() == {
        "le=0.01": 2, "le=0.1": 1, "le=1": 1, "le=+Inf": 1,
    }


def test_empty_histogram_reports_no_mean():
    """No observations means no mean: ``None`` in the snapshot, not 0."""
    registry = MetricsRegistry()
    hist = registry.histogram("latency")
    assert hist.mean() is None
    assert registry.snapshot()["histograms"]["latency"]["mean"] is None
    assert "count=0 sum=0.000000 mean=n/a" in registry.render_text()


def test_default_buckets_span_substrate_latencies():
    assert DEFAULT_BUCKETS[0] <= 0.001
    assert DEFAULT_BUCKETS[-1] >= 5.0


def test_registries_are_instance_scoped():
    one, two = MetricsRegistry(), MetricsRegistry()
    one.counter("n").inc()
    assert two.counter("n").value == 0


def test_snapshot_diff_and_render():
    registry = MetricsRegistry()
    registry.counter("c").inc(2)
    before = registry.snapshot()
    registry.counter("c").inc(3)
    registry.gauge("g").set(9)
    registry.histogram("h").observe(0.2)
    delta = diff_snapshots(before, registry.snapshot())
    assert delta["counters"]["c"] == 3
    assert delta["gauges"]["g"] == {"before": 0.0, "after": 9.0}
    assert delta["histograms"]["h"]["count"] == 1
    text = render_diff(delta)
    assert "+3" in text and "0 -> 9" in text


def test_snapshot_is_deterministic_and_json_safe():
    import json

    registry = MetricsRegistry()
    registry.counter("b").inc()
    registry.counter("a").inc()
    snap = registry.snapshot()
    assert list(snap["counters"]) == ["a", "b"]
    json.dumps(snap)  # must not raise
