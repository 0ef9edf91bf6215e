"""Simulated-time tracing.

Spans are keyed to :class:`~repro.common.clock.SimClock` time, never the
wall clock, so a trace of a letter-of-credit transaction is exactly as
deterministic and replayable as the simulation that produced it: the same
seed yields byte-identical span trees, and durations mean *modelled*
latency (endorsement hops, batch service time, notary round-trips), not
host scheduling noise.

The API is context-manager based::

    with tracer.span("fabric.invoke", channel="trade-ab") as span:
        ...
        span.add_event("endorsed", endorsers=3)

Parent/child linkage follows the active-span stack within one logical
flow, and crosses node boundaries by riding on
:class:`~repro.network.messages.Message` envelopes: ``SimNetwork.send``
stamps the sender's current :class:`TraceContext` onto the message, and
delivery records a transit span under that parent — a single trace
follows a transaction through endorsement, ordering, validation, and
notarisation regardless of how many principals it touches.

Span and trace ids are sequence numbers, not random: randomness would
make traces differ run to run, defeating replayability (the same reason
the substrate bans wall clocks).  Every attribute and event recorded on
a span first passes the tracer's
:class:`~repro.telemetry.redaction.RedactionFilter`.

Recording is opt-in: a :class:`~repro.telemetry.Telemetry` bundle starts
with a :class:`NullTracer`, which has the same surface but keeps nothing
(no span objects, no redaction, no context on messages), and
``Telemetry.start_tracing()`` swaps in a recording :class:`Tracer`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

from repro.common.clock import SimClock
from repro.telemetry.redaction import RedactionFilter


@dataclass(frozen=True)
class TraceContext:
    """The propagatable coordinates of a span: what rides on messages."""

    trace_id: str
    span_id: str

    def as_tuple(self) -> tuple[str, str]:
        return (self.trace_id, self.span_id)

    @classmethod
    def from_tuple(cls, pair: tuple[str, str] | None) -> "TraceContext | None":
        if pair is None:
            return None
        return cls(trace_id=pair[0], span_id=pair[1])


@dataclass
class SpanEvent:
    """A point-in-time annotation inside a span."""

    time: float
    name: str
    attributes: dict[str, Any] = field(default_factory=dict)


@dataclass(eq=False)
class Span:
    """One timed operation in a trace; compared by identity, not value."""

    name: str
    trace_id: str
    span_id: str
    parent_id: str | None
    start: float
    end: float | None = None
    attributes: dict[str, Any] = field(default_factory=dict)
    events: list[SpanEvent] = field(default_factory=list)
    status: str = "ok"
    error: str | None = None

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    def context(self) -> TraceContext:
        return TraceContext(trace_id=self.trace_id, span_id=self.span_id)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "attributes": self.attributes,
            "events": [
                {"time": e.time, "name": e.name, "attributes": e.attributes}
                for e in self.events
            ],
            "status": self.status,
            "error": self.error,
        }


class _ActiveSpan:
    """Context manager wrapper handing the span back to the caller."""

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.span.status = "error"
            self.span.error = exc_type.__name__
        self._tracer.end_span(self.span)
        return False  # never swallow


class Tracer:
    """Produces spans against one simulated clock.

    Finished and in-flight spans all live in :attr:`spans` (in start
    order), so renderers and tests never have to collect from two places.
    """

    def __init__(
        self,
        clock: SimClock | None = None,
        redactor: RedactionFilter | None = None,
    ) -> None:
        self.clock = clock or SimClock()
        self.redactor = redactor or RedactionFilter()
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)

    # -- span lifecycle

    def span(
        self,
        name: str,
        parent: TraceContext | None = None,
        **attributes: Any,
    ) -> _ActiveSpan:
        """Open a span as a context manager.

        Parentage: an explicit *parent* context wins (cross-node
        continuation); otherwise the innermost active span; otherwise the
        span roots a fresh trace.
        """
        return _ActiveSpan(self, self.start_span(name, parent=parent, **attributes))

    def start_span(
        self,
        name: str,
        parent: TraceContext | None = None,
        start: float | None = None,
        **attributes: Any,
    ) -> Span:
        """Open a span explicitly; pair with :meth:`end_span`."""
        if parent is None and self._stack:
            parent = self._stack[-1].context()
        if parent is None:
            trace_id = f"t{next(self._trace_ids):04d}"
            parent_id = None
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        span = Span(
            name=name,
            trace_id=trace_id,
            span_id=f"s{next(self._span_ids):06d}",
            parent_id=parent_id,
            start=self.clock.now if start is None else start,
            attributes=self.redactor.redact_attributes(attributes),
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end_span(self, span: Span, end: float | None = None) -> None:
        span.end = self.clock.now if end is None else end
        if span.end < span.start:
            span.end = span.start
        if span in self._stack:
            self._stack.remove(span)

    def record_span(
        self,
        name: str,
        start: float,
        end: float,
        parent: TraceContext | None = None,
        status: str = "ok",
        error: str | None = None,
        **attributes: Any,
    ) -> Span:
        """Record an already-completed span (e.g. a message transit whose
        start and end times are both known at delivery)."""
        span = self.start_span(name, parent=parent, start=start, **attributes)
        span.status = status
        span.error = error
        self.end_span(span, end=end)
        return span

    # -- annotations (all redacted at record time)

    def set_attribute(self, span: Span, key: str, value: Any) -> None:
        span.attributes.update(self.redactor.redact_attributes({key: value}))

    def add_event(self, span: Span, name: str, **attributes: Any) -> None:
        span.events.append(
            SpanEvent(
                time=self.clock.now,
                name=name,
                attributes=self.redactor.redact_attributes(attributes),
            )
        )

    # -- context propagation

    def current_span(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    def current_context(self) -> TraceContext | None:
        span = self.current_span()
        return span.context() if span is not None else None

    # -- queries

    def trace_ids(self) -> list[str]:
        seen: dict[str, None] = {}
        for span in self.spans:
            seen.setdefault(span.trace_id, None)
        return list(seen)

    def spans_of(self, trace_id: str) -> list[Span]:
        return [s for s in self.spans if s.trace_id == trace_id]

    def find_spans(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def to_dicts(self) -> list[dict]:
        return [span.to_dict() for span in self.spans]


class _NullSpan:
    """The one no-op context manager every :meth:`NullTracer.span` hands out."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False  # never swallow


_NULL_SPAN = _NullSpan()


class NullTracer:
    """:class:`Tracer`'s surface, recording nothing: the default tracer.

    Nothing is recorded, so nothing is redacted and nothing can leak; the
    current context is always ``None``, so messages carry ``trace=None``
    and delivery records no transit span.
    """

    spans: tuple[Span, ...] = ()

    def span(
        self, name: str, parent: TraceContext | None = None, **attributes: Any
    ) -> _NullSpan:
        return _NULL_SPAN

    def start_span(self, name: str, *args: Any, **attributes: Any) -> None:
        return None

    def end_span(self, span: Span | None, end: float | None = None) -> None:
        pass

    def record_span(self, name: str, *args: Any, **attributes: Any) -> None:
        return None

    def set_attribute(self, span: Span | None, key: str, value: Any) -> None:
        pass

    def add_event(self, span: Span | None, name: str, **attributes: Any) -> None:
        pass

    def current_span(self) -> None:
        return None

    def current_context(self) -> None:
        return None

    def trace_ids(self) -> list[str]:
        return []

    def spans_of(self, trace_id: str) -> list[Span]:
        return []

    def find_spans(self, name: str) -> list[Span]:
        return []

    def to_dicts(self) -> list[dict]:
        return []
