"""Per-transaction bookkeeping is a field update, not a lookup or a check.

Hot-path metric series are handles bound on first use
(``MetricsRegistry.bind``), so a drive makes the same registry lookups
whatever its length; the ordering service checks its availability once
per handled submission; and reading the network's stats, or binding a
handle, creates no series.
"""

from __future__ import annotations

import cProfile
import pstats

import pytest

from repro.driver import Driver, DriverConfig, build_scenario
from repro.ledger.ordering import OrderingPrincipal
from repro.network.simnet import NetworkStats, SimNetwork
from repro.telemetry import Telemetry
from repro.telemetry.metrics import MetricsRegistry

LOOKUPS = (MetricsRegistry.counter, MetricsRegistry.gauge, MetricsRegistry.histogram)
BATCH = 10


def drive(platform: str, operations: int, functions) -> tuple[list[int], dict]:
    """Calls of each of *functions* while a seeded ``kv`` scenario is
    driven and delivered, and the platform's metrics snapshot."""
    scenario = build_scenario(
        platform, "kv", operations, skew=0.99, seed="bound-metrics"
    )
    driver = Driver(scenario.platform, DriverConfig(batch_size=BATCH))
    # Counted by code object, as a profile counts it, so a caller that
    # bound the function under another name is counted too.
    profile = cProfile.Profile()
    profile.enable()
    report = driver.run(scenario.requests)
    scenario.platform.network.run()
    profile.disable()
    stats = pstats.Stats(profile).stats
    counts = []
    for function in functions:
        code = function.__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        counts.append(stats[key][1] if key in stats else 0)
    assert report.failed == 0 and report.committed == operations
    return counts, scenario.platform.telemetry.metrics.snapshot()


@pytest.mark.parametrize("platform", ("fabric", "corda", "quorum"))
def test_registry_lookups_do_not_grow_with_transactions(platform):
    small, __ = drive(platform, 60, LOOKUPS)
    large, __ = drive(platform, 120, LOOKUPS)
    assert small == large


@pytest.mark.parametrize("operations", (60, 120))
def test_quorum_checks_availability_twice_per_transaction(operations):
    """The sender check, then consensus once as it orders the submit."""
    (checks,), __ = drive(
        "quorum", operations, (OrderingPrincipal.require_available,)
    )
    assert checks == 2 * operations


@pytest.mark.parametrize("operations", (60, 120))
def test_fabric_checks_availability_twice_per_batch(operations):
    """``submit_batch`` before anything is sent, then the orderer once as
    it orders the batch's submits; each driver batch is one cut."""
    (checks,), snapshot = drive(
        "fabric", operations, (OrderingPrincipal.require_available,)
    )
    batches = operations // BATCH
    assert snapshot["counters"]["ordering.batches_cut"] == batches
    assert checks == 2 * batches


def test_reading_network_stats_creates_no_series():
    network = SimNetwork()
    assert network.stats.as_dict() == dict.fromkeys(NetworkStats.FIELDS, 0)
    for field_name in NetworkStats.FIELDS:
        assert getattr(network.stats, field_name) == 0
    assert network.telemetry.metrics.snapshot() == {
        "counters": {}, "gauges": {}, "histograms": {},
    }


def test_bound_handles_are_made_on_first_use():
    metrics = MetricsRegistry()
    made = []

    def make(registry, kind):
        made.append(kind)
        return registry.counter("sent", kind=kind)

    sent = metrics.bind(make)
    assert metrics.snapshot()["counters"] == {}
    for kind in ("a", "b", "a"):
        sent[kind].inc()
    assert made == ["a", "b"]
    assert metrics.snapshot()["counters"] == {"sent{kind=a}": 2, "sent{kind=b}": 1}
    assert sent["a"] is metrics.counter("sent", kind="a")


def test_telemetry_span_is_the_current_tracers_method():
    telemetry = Telemetry()
    assert telemetry.span == telemetry.tracer.span
    tracer = telemetry.start_tracing()
    assert telemetry.span == tracer.span
    with telemetry.span("probe"):
        pass
    assert [span.name for span in tracer.spans] == ["probe"]
