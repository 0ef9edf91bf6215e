"""Tracing is opt-in, and turning it on changes nothing but the spans.

A :class:`~repro.telemetry.Telemetry` bundle starts with a
:class:`~repro.telemetry.tracing.NullTracer`; ``start_tracing()`` swaps in
a recording :class:`~repro.telemetry.tracing.Tracer`.  Spans are a view
of the run, never an input to it, so every platform must reach the same
state, receipts, metrics, event log and observer knowledge either way.
"""

from __future__ import annotations

import pytest

from repro.driver import Driver, DriverConfig, build_scenario
from repro.network.simnet import Observer
from repro.telemetry import Telemetry
from repro.telemetry.tracing import NullTracer, Tracer

PLATFORMS = ("fabric", "corda", "quorum")
WORKLOADS = ("kv", "loc")


class TraceTap(Observer):
    """Records the trace context of every delivered message."""

    def __init__(self) -> None:
        super().__init__("trace-tap")
        self.traces: list[tuple[str, str] | None] = []

    def observe(self, message) -> None:
        self.traces.append(message.trace)


def drive(platform_name: str, workload: str, traced: bool):
    scenario = build_scenario(platform_name, workload, 12, seed="modes")
    platform = scenario.platform
    if traced:
        platform.telemetry.start_tracing()
    report = Driver(platform, DriverConfig(batch_size=5)).run(scenario.requests)
    return platform, report


def outcome(platform, report) -> dict:
    """Everything a run produces except its spans."""
    network = platform.network
    return {
        "fingerprint": platform.state_fingerprint(),
        "receipts": [repr(receipt) for receipt in report.receipts],
        "metrics": platform.telemetry.metrics.snapshot(),
        "events": platform.telemetry.events.to_dicts(),
        "knowledge": {
            name: network.node(name).observer.knowledge()
            for name in network.nodes()
        },
    }


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("platform_name", PLATFORMS)
def test_tracing_on_and_off_give_identical_runs(platform_name, workload):
    null_platform, null_report = drive(platform_name, workload, traced=False)
    traced_platform, traced_report = drive(platform_name, workload, traced=True)
    assert null_report.committed == null_report.operations > 0
    assert outcome(null_platform, null_report) == outcome(
        traced_platform, traced_report
    )
    # Non-vacuous: the traced run did record the run it drove.
    assert traced_platform.telemetry.tracer.find_spans("driver.run")


@pytest.mark.parametrize("platform_name", PLATFORMS)
def test_default_run_keeps_no_span_and_sends_no_trace_context(platform_name):
    scenario = build_scenario(platform_name, "kv", 6, seed="modes-null")
    tap = scenario.platform.network.add_tap(TraceTap())
    Driver(scenario.platform).run(scenario.requests)
    tracer = scenario.platform.telemetry.tracer
    assert isinstance(tracer, NullTracer)
    assert len(tracer.spans) == 0
    assert tracer.trace_ids() == [] and tracer.to_dicts() == []
    assert tap.traces  # non-vacuous: messages were delivered
    assert all(trace is None for trace in tap.traces)


def test_start_tracing_is_idempotent():
    telemetry = Telemetry()
    assert isinstance(telemetry.tracer, NullTracer)
    tracer = telemetry.start_tracing()
    assert isinstance(tracer, Tracer)
    assert telemetry.tracer is tracer
    with telemetry.span("kept"):
        pass
    assert telemetry.start_tracing() is tracer
    assert [span.name for span in tracer.spans] == ["kept"]


def test_null_tracer_accepts_every_recording_call():
    """Instrumented code calls the tracer without checking its mode."""
    tracer = NullTracer()
    with tracer.span("a", parent=None, key="secret") as span:
        assert span is None
        tracer.set_attribute(span, "k", "v")
        tracer.add_event(span, "e", attempt=2)
        assert tracer.current_span() is None
        assert tracer.current_context() is None
    assert tracer.span("b") is tracer.span("c")  # one shared no-op
    tracer.end_span(tracer.start_span("d"))
    assert tracer.record_span("net.transit", 0.0, 1.0, kind="data") is None
    assert tracer.find_spans("a") == [] and tracer.spans_of("t0001") == []


def test_null_span_never_swallows_errors():
    with pytest.raises(ValueError):
        with NullTracer().span("boom"):
            raise ValueError("propagates")
