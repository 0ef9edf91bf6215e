"""Experiment O1 — telemetry overhead and span-volume accounting.

The tracing, metrics, and event-log hooks run on every send, endorse,
and commit, so — exactly like the fault-injection machinery (FI1) —
their cost must be a small constant factor or enabling observability
would distort the S1-S3 numbers it is meant to explain.  Tracing is
opt-in (``Telemetry.start_tracing``); metrics and events are always on.

Two measurements:

1. **Send loop in three modes**: wall-clock per run of 200 delivered
   messages with the default null tracer (metrics only), with a
   recording tracer but no active span (no context rides the messages),
   and with a recording tracer inside a span (every delivery also
   records a transit span).
2. **Span volume of the letter-of-credit lifecycle**: how many spans,
   events, and metric series one traced end-to-end run produces — the
   storage-side cost of "one trace per transaction".
"""

from __future__ import annotations

import itertools
import timeit

from benchmarks.conftest import write_result
from repro.common.clock import SimClock
from repro.common.rng import DeterministicRNG
from repro.network.simnet import LatencyModel, SimNetwork
from repro.platforms.fabric import FabricNetwork
from repro.usecases.letter_of_credit import LetterOfCreditWorkflow

MESSAGES = 200
RUNS = 15
#: Tracer mode -> its row label in the O1 report.
MODES = {
    "null": "null tracer (default, metrics only)",
    "recording": "recording tracer, no span",
    "in-span": "recording tracer, in a span",
}


def run_sends(seed: str, mode: str) -> SimNetwork:
    net = SimNetwork(
        clock=SimClock(),
        rng=DeterministicRNG(seed),
        latency=LatencyModel(base=0.005, jitter=0.002),
    )
    net.add_node("A")
    net.add_node("B")
    if mode != "null":
        net.telemetry.start_tracing()
    if mode == "in-span":
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
    net = benchmark(lambda: run_sends(f"o1-traced-{next(counter)}", "in-span"))
    assert net.stats.messages_delivered == MESSAGES
    assert len(net.telemetry.tracer.find_spans("net.transit")) == MESSAGES


def test_untraced_sends_record_no_spans(benchmark):
    counter = itertools.count()
    net = benchmark(lambda: run_sends(f"o1-plain-{next(counter)}", "null"))
    assert net.stats.messages_delivered == MESSAGES
    assert len(net.telemetry.tracer.spans) == 0


def test_tracing_overhead_ratio_report():
    """Report each mode's cost against the null default; it must stay modest."""

    # Rounds interleave the modes, so a slow stretch of a shared host
    # does not land on one mode alone.
    for mode in MODES:
        run_sends(f"o1-warm-{mode}", mode)
    ms = dict.fromkeys(MODES, float("inf"))
    for __ in range(RUNS):
        for mode in MODES:
            seconds = timeit.timeit(
                lambda: run_sends(f"o1-ratio-{mode}", mode), number=1
            )
            ms[mode] = min(ms[mode], seconds * 1e3)
    ratios = {mode: ms[mode] / ms["null"] for mode in MODES}
    write_result(
        "o1_telemetry_overhead",
        "O1: tracing overhead on the send path\n"
        f"  {MESSAGES} messages per run, fastest of {RUNS} interleaved runs each\n"
        + "\n".join(
            f"  {label + ':':37s} {ms[mode]:8.2f} ms/run"
            f"  {ratios[mode]:5.2f}x"
            for mode, label in MODES.items()
        ),
        data={
            "experiment": "o1_telemetry_overhead",
            "messages_per_run": MESSAGES,
            "runs": RUNS,
            "ms_per_run": ms,
            "ratio_to_null": ratios,
        },
    )
    # Appending one span per delivery is a constant-factor cost.
    # Generous bound to stay robust on slow CI.
    assert ratios["in-span"] < 10.0


def test_letter_of_credit_span_volume(benchmark):
    """One traced lifecycle's telemetry footprint, reported for the record."""

    def lifecycle():
        workflow = LetterOfCreditWorkflow(
            network=FabricNetwork(seed="o1-loc")  # fresh per round
        )
        workflow.telemetry.start_tracing()
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
