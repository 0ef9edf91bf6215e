"""Acceptance: one trace follows a letter of credit across the platform.

The issue's bar: a traced LoC run on Fabric yields a span tree covering
endorse -> order -> validate -> commit with simulated-time durations,
renderable via ``repro trace``.
"""

from __future__ import annotations

import json

import pytest

from repro.platforms.fabric import FabricNetwork
from repro.telemetry.render import render_trace_tree, trace_json
from repro.usecases.letter_of_credit import LetterOfCreditWorkflow


@pytest.fixture(scope="module")
def traced_workflow() -> LetterOfCreditWorkflow:
    workflow = LetterOfCreditWorkflow(network=FabricNetwork(seed="trace-acc"))
    workflow.telemetry.start_tracing()
    workflow.setup()
    workflow.run_full_lifecycle("LC-ACC")
    return workflow


def lifecycle_spans(workflow):
    tracer = workflow.telemetry.tracer
    (lifecycle,) = tracer.find_spans("loc.lifecycle")
    return tracer, lifecycle, tracer.spans_of(lifecycle.trace_id)


def test_lifecycle_is_one_trace_covering_all_pipeline_stages(traced_workflow):
    __, lifecycle, spans = lifecycle_spans(traced_workflow)
    names = {s.name for s in spans}
    # The full Fabric pipeline, all under the single lifecycle trace.
    assert {"loc.apply", "loc.issue", "loc.ship", "loc.pay"} <= names
    assert {"fabric.invoke", "fabric.endorse", "fabric.order",
            "fabric.validate", "fabric.commit", "ordering.cut_batch",
            "net.transit"} <= names
    assert lifecycle.parent_id is None
    # Every other span in the trace is a descendant of the lifecycle root.
    by_id = {s.span_id: s for s in spans}
    for span in spans:
        if span is lifecycle:
            continue
        cursor = span
        while cursor.parent_id is not None:
            cursor = by_id[cursor.parent_id]
        assert cursor is lifecycle


def test_stage_ordering_and_simulated_durations(traced_workflow):
    __, __lc, spans = lifecycle_spans(traced_workflow)
    first_invoke = next(s for s in spans if s.name == "fabric.invoke")
    stages = {
        s.name: s for s in spans if s.parent_id == first_invoke.span_id
    }
    endorse = stages["fabric.endorse"]
    order = stages["fabric.order"]
    validates = [s for s in spans if s.name == "fabric.validate"
                 and s.parent_id == first_invoke.span_id]
    commits = [s for s in spans if s.name == "fabric.commit"
               and s.parent_id == first_invoke.span_id]
    # Pipeline order in simulated time: endorse, then order, then
    # validate, then commit.
    assert endorse.start <= order.start <= validates[0].start
    assert validates[0].start <= commits[0].start
    # Durations are modelled time: message transit takes nonzero simulated
    # seconds, and the whole lifecycle spans the modelled latency of every
    # hop it contains.
    transits = [s for s in spans if s.name == "net.transit"]
    assert all(t.duration > 0 for t in transits)
    (lifecycle,) = (s for s in spans if s.name == "loc.lifecycle")
    assert lifecycle.duration > 0
    assert endorse.end is not None and order.end is not None


def test_validation_outcome_is_recorded(traced_workflow):
    __, __lc, spans = lifecycle_spans(traced_workflow)
    codes = {s.attributes.get("validation_code")
             for s in spans if s.name == "fabric.validate"}
    assert codes == {"VALID"}
    registry = traced_workflow.telemetry.metrics
    assert registry.counter("fabric.validation", code="VALID").value >= 4


def test_transit_spans_cross_node_boundaries(traced_workflow):
    __, lifecycle, spans = lifecycle_spans(traced_workflow)
    transits = [s for s in spans if s.name == "net.transit"]
    assert transits
    # The trace crossed real principals: endorsers and the orderer.
    endpoints = {s.attributes["recipient"] for s in transits}
    assert "fabric-orderer" in endpoints
    assert all(s.trace_id == lifecycle.trace_id for s in transits)


def test_tree_renderer_shows_the_pipeline(traced_workflow):
    tracer, lifecycle, __ = lifecycle_spans(traced_workflow)
    text = render_trace_tree(tracer, lifecycle.trace_id)
    for needle in ("loc.lifecycle", "fabric.endorse", "fabric.order",
                   "fabric.validate", "fabric.commit"):
        assert needle in text
    assert "ms" in text or "s" in text  # durations are printed

    payload = json.loads(trace_json(tracer, lifecycle.trace_id))
    assert payload[0]["trace_id"] == lifecycle.trace_id


def test_cli_trace_and_metrics_subcommands(capsys):
    from repro.cli import main

    assert main(["trace", "--platform", "fabric"]) == 0
    out = capsys.readouterr().out
    assert "loc.lifecycle" in out and "fabric.commit" in out

    assert main(["metrics", "--platform", "fabric", "--json"]) == 0
    snapshot = json.loads(capsys.readouterr().out)
    assert snapshot["counters"]["net.messages_sent"] > 0


def test_same_seed_yields_identical_traces():
    """Replayability: the whole point of simulated-time tracing."""

    def run():
        workflow = LetterOfCreditWorkflow(
            network=FabricNetwork(seed="trace-replay")
        )
        workflow.telemetry.start_tracing()
        workflow.setup()
        workflow.run_full_lifecycle("LC-R")
        return workflow.telemetry.to_dict()

    assert json.dumps(run(), default=str) == json.dumps(run(), default=str)
