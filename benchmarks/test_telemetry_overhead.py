"""Experiment O1 — telemetry overhead and span-volume accounting.

The tracing, metrics, and event-log hooks run on every send, endorse,
and commit, so — exactly like the fault-injection machinery (FI1) —
their cost must be a small constant factor or enabling observability
would distort the S1-S3 numbers it is meant to explain.

Two measurements:

1. **Untraced vs traced send loop**: wall-clock per delivered message
   with no active span (metrics only) vs inside a span (every delivery
   also records a transit span).
2. **Span volume of the letter-of-credit lifecycle**: how many spans,
   events, and metric series one traced end-to-end run produces — the
   storage-side cost of "one trace per transaction".
"""

from __future__ import annotations

import itertools
import time

from benchmarks.conftest import write_result
from repro.common.clock import SimClock
from repro.common.rng import DeterministicRNG
from repro.network.simnet import LatencyModel, SimNetwork
from repro.platforms.fabric import FabricNetwork
from repro.usecases.letter_of_credit import LetterOfCreditWorkflow

MESSAGES = 200


def run_sends(seed: str, traced: bool) -> SimNetwork:
    net = SimNetwork(
        clock=SimClock(),
        rng=DeterministicRNG(seed),
        latency=LatencyModel(base=0.005, jitter=0.002),
    )
    net.add_node("A")
    net.add_node("B")
    if traced:
        with net.telemetry.span("bench.batch"):
            for n in range(MESSAGES):
                net.send("A", "B", "data", {"n": n})
            net.run()
    else:
        for n in range(MESSAGES):
            net.send("A", "B", "data", {"n": n})
        net.run()
    return net


def test_traced_sends_record_one_transit_span_each(benchmark):
    counter = itertools.count()
    net = benchmark(lambda: run_sends(f"o1-traced-{next(counter)}", True))
    assert net.stats.messages_delivered == MESSAGES
    assert len(net.telemetry.tracer.find_spans("net.transit")) == MESSAGES


def test_untraced_sends_record_no_spans(benchmark):
    counter = itertools.count()
    net = benchmark(lambda: run_sends(f"o1-plain-{next(counter)}", False))
    assert net.stats.messages_delivered == MESSAGES
    assert net.telemetry.tracer.spans == []


def test_tracing_overhead_ratio_report():
    """Report the traced/untraced cost ratio; it must stay modest."""

    def time_runs(traced: bool, tag: str) -> float:
        run_sends(f"o1-warm-{tag}", traced)  # warm-up
        start = time.perf_counter()
        for n in range(5):
            run_sends(f"o1-ratio-{tag}-{n}", traced)
        return (time.perf_counter() - start) / 5

    untraced = time_runs(False, "plain")
    traced = time_runs(True, "traced")
    ratio = traced / untraced
    write_result(
        "o1_telemetry_overhead",
        "O1: tracing overhead on the send path\n"
        f"  {MESSAGES} messages per run, 5 runs each\n"
        f"  untraced (metrics only): {untraced * 1e3:8.2f} ms/run\n"
        f"  traced (transit spans):  {traced * 1e3:8.2f} ms/run\n"
        f"  overhead ratio:          {ratio:8.2f}x",
        data={
            "experiment": "o1_telemetry_overhead",
            "messages_per_run": MESSAGES,
            "runs": 5,
            "untraced_ms_per_run": untraced * 1e3,
            "traced_ms_per_run": traced * 1e3,
            "overhead_ratio": ratio,
        },
    )
    # Appending one span per delivery is a constant-factor cost.
    # Generous bound to stay robust on slow CI.
    assert ratio < 10.0


def test_letter_of_credit_span_volume(benchmark):
    """One traced lifecycle's telemetry footprint, reported for the record."""

    def lifecycle():
        workflow = LetterOfCreditWorkflow(
            network=FabricNetwork(seed="o1-loc")  # fresh per round
        )
        workflow.setup()
        workflow.run_full_lifecycle("LC-T1")
        return workflow

    workflow = benchmark(lifecycle)
    tracer = workflow.telemetry.tracer
    snapshot = workflow.telemetry.metrics.snapshot()
    span_count = len(tracer.spans)
    series_count = sum(len(snapshot[f]) for f in snapshot)
    # One trace, bounded volume: spans scale with pipeline stages times
    # transactions, not with payload size.
    assert len(tracer.trace_ids()) == 1
    assert 20 <= span_count <= 200
    write_result(
        "o1_loc_span_volume",
        "O1: letter-of-credit lifecycle telemetry footprint\n"
        f"  spans:          {span_count:5d}\n"
        f"  span events:    {sum(len(s.events) for s in tracer.spans):5d}\n"
        f"  log events:     {len(workflow.telemetry.events.entries):5d}\n"
        f"  metric series:  {series_count:5d}",
        data={
            "experiment": "o1_loc_span_volume",
            "spans": span_count,
            "span_events": sum(len(s.events) for s in tracer.spans),
            "log_events": len(workflow.telemetry.events.entries),
            "metric_series": series_count,
        },
    )
