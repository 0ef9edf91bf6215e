"""Trace context propagation across the network substrate.

One trace must follow a message from the sender's span through the
simulated wire (transit spans) — and under fault plans the span must
stay honest: retries land as span events and an exhausted resilient
send closes the span in error status with the ``DeliveryTimeout``.
Every network here records spans (``start_tracing``); the null default
is pinned in ``test_tracing_modes.py``.
"""

import pytest

from repro.common.clock import SimClock
from repro.common.errors import DeliveryTimeout
from repro.common.rng import DeterministicRNG
from repro.faults.plan import FaultPlan
from repro.network.simnet import LatencyModel, SimNetwork


def fresh_net(seed: str, fault_plan: FaultPlan | None = None) -> SimNetwork:
    net = SimNetwork(
        clock=SimClock(),
        rng=DeterministicRNG(seed),
        latency=LatencyModel(base=0.005, jitter=0.002),
        fault_plan=fault_plan,
    )
    net.add_node("A")
    net.add_node("B")
    net.telemetry.start_tracing()
    return net


def test_transit_span_joins_the_senders_trace():
    net = fresh_net("prop-basic")
    with net.telemetry.span("submit") as root:
        message = net.send("A", "B", "data", {"n": 1})
    net.run()
    assert message.trace == (root.trace_id, root.span_id)
    (transit,) = net.telemetry.tracer.find_spans("net.transit")
    assert transit.trace_id == root.trace_id
    assert transit.parent_id == root.span_id
    assert transit.attributes["kind"] == "data"
    assert transit.start == message.sent_at
    assert transit.duration is not None and transit.duration > 0


def test_untraced_sends_carry_no_context_and_record_no_spans():
    net = fresh_net("prop-none")
    message = net.send("A", "B", "data", {"n": 1})
    net.run()
    assert message.trace is None
    assert net.telemetry.tracer.find_spans("net.transit") == []
    # Metrics still count the traffic.
    assert net.stats.messages_delivered == 1


def test_broadcast_fans_one_trace_across_recipients():
    net = fresh_net("prop-bcast")
    net.add_node("C")
    with net.telemetry.span("announce") as root:
        net.broadcast("A", "block", {"height": 1})
    net.run()
    transits = net.telemetry.tracer.find_spans("net.transit")
    assert len(transits) == 2
    assert {t.trace_id for t in transits} == {root.trace_id}
    assert {t.attributes["recipient"] for t in transits} == {"B", "C"}


def test_dropped_message_records_error_transit_span():
    plan = FaultPlan().set_link_loss("A", "B", 1.0)
    net = fresh_net("prop-drop", fault_plan=plan)
    with net.telemetry.span("submit"):
        net.send("A", "B", "data", {"n": 1})
    net.run()
    (transit,) = net.telemetry.tracer.find_spans("net.transit")
    assert transit.status == "error"
    assert transit.error == "dropped:loss"
    drops = net.telemetry.events.named("net.drop")
    assert [e.attributes["cause"] for e in drops] == ["loss"]


def test_retry_span_under_faults_records_attempts_and_timeout():
    """Satellite: the resilient-send span stays honest under a fault plan."""
    plan = FaultPlan().set_link_loss("A", "B", 1.0)
    net = fresh_net("prop-retry", fault_plan=plan)
    with pytest.raises(DeliveryTimeout):
        net.send_with_retry("A", "B", "data", {"n": 1}, max_attempts=3)

    (span,) = net.telemetry.tracer.find_spans("net.send_with_retry")
    # Every retry is a span event; the outcome is pinned in attributes.
    retry_events = [e for e in span.events if e.name == "retry"]
    assert [e.attributes["attempt"] for e in retry_events] == [2, 3]
    assert span.attributes["attempts"] == 3
    assert span.attributes["outcome"] == "DeliveryTimeout"
    # The exception propagated *and* closed the span in error status.
    assert span.status == "error"
    assert span.error == "DeliveryTimeout"
    assert span.end is not None
    # Metrics and the event log agree with the span.
    assert net.stats.retries == 2
    assert [e.attributes["attempt"]
            for e in net.telemetry.events.named("net.retry")] == [2, 3]
    # Each attempt's doomed wire hop is an error transit in the same trace.
    transits = net.telemetry.tracer.find_spans("net.transit")
    assert len(transits) == 3
    assert all(t.trace_id == span.trace_id for t in transits)
    assert all(t.error == "dropped:loss" for t in transits)


def test_successful_retry_span_reports_delivery():
    plan = FaultPlan().set_link_loss("A", "B", 0.7)
    net = fresh_net("prop-recover", fault_plan=plan)
    receipt = net.send_with_retry(
        "A", "B", "data", {"n": 1}, max_attempts=10
    )
    assert receipt.delivered_at > receipt.message.sent_at
    (span,) = net.telemetry.tracer.find_spans("net.send_with_retry")
    assert span.attributes["outcome"] == "delivered"
    assert span.attributes["attempts"] == receipt.attempts
    assert span.status == "ok"


def test_stats_are_instance_scoped():
    one = fresh_net("prop-reset-1")
    two = fresh_net("prop-reset-2")
    for n in range(3):
        one.send("A", "B", "data", {"n": n})
    one.run()
    # Traffic on `one` is invisible to `two`.
    assert one.stats.messages_delivered == 3
    assert two.stats.messages_delivered == 0
