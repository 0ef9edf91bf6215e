"""End-to-end telemetry for the simulation substrate.

Three coordinated pieces, all deterministic and all keyed to simulated
time (never the wall clock):

- **tracing** (:mod:`repro.telemetry.tracing`): spans with parent/child
  propagation that rides on network messages, so one trace follows a
  transaction across endorsers, orderers, and notaries.  Opt-in: a
  bundle records spans only after :meth:`Telemetry.start_tracing`;
- **metrics** (:mod:`repro.telemetry.metrics`): instance-scoped
  counters/gauges/histograms that the substrate's traffic stats,
  ordering batch stats, fault drop counters, and per-mechanism crypto
  cost counters all live on;
- **privacy-aware event log** (:mod:`repro.telemetry.events` +
  :mod:`repro.telemetry.redaction`): structured events whose attributes
  are redacted at record time, pinned by test to leak nothing the L1
  leakage audit does not already account for.

A :class:`Telemetry` bundle ties one clock to one tracer, one registry,
and one event log; every :class:`~repro.platforms.base.Platform` owns a
bundle and shares it with its network, ordering principal, and
execution engine.  Metrics and events are always on; the tracer is a
:class:`~repro.telemetry.tracing.NullTracer` until ``start_tracing()``.
CLI: ``repro trace`` / ``repro metrics``.
"""

from repro.common.clock import SimClock
from repro.telemetry.events import EventLog, LogEvent
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    diff_snapshots,
    render_diff,
)
from repro.telemetry.redaction import RedactionFilter, redacted_digest
from repro.telemetry.render import render_trace_tree, trace_json
from repro.telemetry.tracing import (
    NullTracer,
    Span,
    SpanEvent,
    TraceContext,
    Tracer,
)


class Telemetry:
    """One scope's tracer + metrics + event log on a shared clock."""

    def __init__(
        self,
        clock: SimClock | None = None,
        redactor: RedactionFilter | None = None,
    ) -> None:
        self.clock = clock or SimClock()
        self.redactor = redactor or RedactionFilter()
        self.metrics = MetricsRegistry()
        self.tracer: Tracer | NullTracer = NullTracer()
        # The current tracer's own method, not a pass-through to it.
        self.span = self.tracer.span
        self.events = EventLog(clock=self.clock, redactor=self.redactor)

    def start_tracing(self) -> Tracer:
        """Record spans from now on; returns the recording tracer.

        Every instrumented component reads ``telemetry.tracer`` (or its
        ``span``, rebound here) at call time, so the swap reaches all of
        them.  Idempotent: a second call returns the same tracer, spans kept.
        """
        if not isinstance(self.tracer, Tracer):
            self.tracer = Tracer(clock=self.clock, redactor=self.redactor)
            self.span = self.tracer.span
        return self.tracer

    def to_dict(self) -> dict:
        """Everything this bundle recorded, JSON-serializable — the
        surface the leakage cross-check test sweeps for secrets."""
        return {
            "spans": self.tracer.to_dicts(),
            "events": self.events.to_dicts(),
            "metrics": self.metrics.snapshot(),
        }


__all__ = [
    "Telemetry",
    "Tracer",
    "Span",
    "SpanEvent",
    "TraceContext",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "diff_snapshots",
    "render_diff",
    "EventLog",
    "LogEvent",
    "RedactionFilter",
    "redacted_digest",
    "render_trace_tree",
    "trace_json",
]
