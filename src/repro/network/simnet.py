"""Discrete-event network simulator.

The substrate every platform simulation runs on.  Provides:

- registered nodes with per-kind message handlers: a delivery handler is
  the only way a message changes a recipient's state, and a delivery
  that reaches no handler is counted (``net.unhandled``),
- causality: a message sent from a delivery handler (or a call acting on
  a delivered reply, :meth:`SimNetwork.acting_on`) is stamped with the id
  of the message that caused it, and a handler's decision reaches the
  call that sent the request as a recorded outcome
  (:meth:`SimNetwork.outcome`),
- point-to-point sends and broadcasts with configurable latency models;
  each link delivers in send order, like a TCP stream,
- message loss, network partitions, and scheduled fault plans
  (:class:`repro.faults.FaultPlan`) consulted at both send *and* delivery
  time, so a partition created after ``send()`` still cuts in-flight
  traffic; a network with no plan, no cut link and no node down skips
  those checks,
- a resilient-delivery layer (:meth:`SimNetwork.send_with_retry`) with
  ack tracking, timeouts, and exponential backoff that surfaces exhausted
  retries as typed :class:`DeliveryTimeout` errors instead of silence,
- **observer taps**: passive principals (a curious orderer, a wiretapping
  admin) that see traffic and whose accumulated knowledge the leakage
  auditor later inspects,
- cost accounting (messages, bytes, simulated time) for the S1-S3
  scalability benchmarks, where a message's bytes are the modelled size
  of the object it carries (:func:`payload_size`), kept on an instance-scoped
  :class:`~repro.telemetry.metrics.MetricsRegistry`,
- telemetry: sends stamp the sender's trace context onto the message
  envelope and deliveries record transit spans under it, so one trace
  follows a transaction across every principal it touches; drops and
  retries land in the privacy-aware event log.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Any, Callable

from repro.common.clock import SimClock
from repro.common.errors import DeliveryError, DeliveryTimeout
from repro.common.rng import DeterministicRNG
from repro.common.serialization import canonical_bytes
from repro.faults.plan import FaultPlan
from repro.network.messages import NO_EXPOSURE, Exposure, Message, Refusal, payload_exposure
from repro.telemetry import Telemetry
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracing import TraceContext


def payload_size(payload: Any) -> int:
    """Modelled wire size of *payload*, in bytes: an object's own
    ``wire_size()`` (from an encoding it already holds), the sum of a
    tuple's items, else the canonical JSON.  Raises ``TypeError`` or
    ``ValueError`` for a payload none of these can size."""
    wire_size = getattr(payload, "wire_size", None)
    if wire_size is not None:
        return wire_size()
    if isinstance(payload, tuple):
        return sum(payload_size(item) for item in payload)
    # A string, an integer or a flag encodes as the canonical encoder would.
    if type(payload) is str:
        return len(encode_basestring_ascii(payload))
    if type(payload) is int:
        return len(repr(payload))
    if payload is None or payload is True:
        return 4  # null, true
    if payload is False:
        return 5  # false
    return len(canonical_bytes(payload))


@dataclass
class LatencyModel:
    """Per-hop delay: base + uniform jitter, in simulated seconds."""

    base: float = 0.005
    jitter: float = 0.002

    def sample(self, rng: DeterministicRNG) -> float:
        if self.jitter <= 0:
            return self.base
        return self.base + rng.uniform(0.0, self.jitter)


class NetworkStats:
    """Aggregate traffic accounting for benchmarks and chaos tests.

    ``messages_dropped`` is the total; the ``dropped_by_*`` counters
    attribute each drop to its fault class (probabilistic loss, a
    partition that cut the link while the message was in flight, or a
    recipient that crashed before delivery).

    The numbers live on the owning network's telemetry
    :class:`~repro.telemetry.metrics.MetricsRegistry`; this class is a
    read-only view kept for API compatibility (``net.stats.retries``
    etc.), scoped to one :class:`SimNetwork` instance.  Reading a field
    creates no series: an absent counter reads 0.
    """

    FIELDS = {
        "messages_sent": "net.messages_sent",
        "messages_delivered": "net.messages_delivered",
        "messages_dropped": "net.messages_dropped",
        "dropped_by_loss": "net.dropped.loss",
        "dropped_by_partition": "net.dropped.partition",
        "dropped_by_crash": "net.dropped.crash",
        "retries": "net.retries",
        "deduplicated": "net.deduplicated",
        "unhandled": "net.unhandled",
        "bytes_transferred": "net.bytes_transferred",
    }

    def __init__(self, metrics: MetricsRegistry | None = None) -> None:
        self._metrics = metrics or MetricsRegistry()

    def __getattr__(self, name: str) -> int:
        try:
            metric = self.FIELDS[name]
        except KeyError:
            raise AttributeError(name) from None
        return int(self._metrics.counter_value(metric))

    def as_dict(self) -> dict[str, int]:
        return {field_name: getattr(self, field_name) for field_name in self.FIELDS}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NetworkStats):
            return NotImplemented
        return self.as_dict() == other.as_dict()


@dataclass(frozen=True)
class DeliveryReceipt:
    """Outcome of one acknowledged resilient send.

    A send that is never acknowledged raises :class:`DeliveryTimeout`
    instead, so a receipt always names the delivered copy and its time.
    """

    message: Message
    attempts: int
    delivered_at: float


class Observer:
    """A passive principal accumulating everything it could see.

    Observers model the paper's §3.4 concerns: the ordering service that
    "has visibility of all DLT events", or an infrastructure administrator
    hosting someone else's node.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.seen_identities: set[str] = set()
        self.seen_data_keys: set[str] = set()
        self.seen_code_ids: set[str] = set()
        self.messages_observed: int = 0

    def observe(self, message: Message) -> None:
        self.observe_exposure(message.exposure)

    def observe_exposure(self, exposure: Exposure) -> None:
        """Record knowledge gained from one observed event.  Most events
        expose nothing, or nothing of a kind, and union nothing."""
        self.messages_observed += 1
        if exposure is NO_EXPOSURE:
            return
        identities, data_keys, code_ids = exposure
        if identities:
            self.seen_identities |= identities
        if data_keys:
            self.seen_data_keys |= data_keys
        if code_ids:
            self.seen_code_ids |= code_ids

    def knowledge(self) -> dict:
        """Snapshot of accumulated knowledge (for audit reports)."""
        return {
            "identities": sorted(self.seen_identities),
            "data_keys": sorted(self.seen_data_keys),
            "code_ids": sorted(self.seen_code_ids),
            "messages_observed": self.messages_observed,
        }


class Node:
    """A network endpoint: per-kind delivery handlers and an observer.

    A delivered message is observed, then handed to every handler
    registered for its kind, in registration order; nothing else keeps
    it.  The node's :class:`Observer` makes
    "what did this peer learn" the same accounting as the passive taps.
    ``seen_dedup_keys`` is volatile: a crash wipes it, which is why
    recovery re-applies from a durable checkpoint.  So is ``answers``,
    the reply the node sent to each idempotent (dedup-keyed) request,
    which it sends again when a retransmitted copy of that request
    arrives.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.observer = Observer(name)
        self.seen_dedup_keys: set[str] = set()
        self.answers: dict[str, tuple] = {}
        self._handlers: dict[str, list[Callable[[Message], None]]] = {}

    def on(self, kind: str, handler: Callable[[Message], None]) -> None:
        """Add a handler invoked when a message of *kind* arrives (after
        those registered before it, so a probe can watch a kind the
        platform handles)."""
        self._handlers.setdefault(kind, []).append(handler)

    def deliver(self, message: Message) -> bool:
        """Observe *message*, then run its kind's handlers; returns
        whether any ran."""
        self.observer.observe(message)
        return self.handle(message)

    def handle(self, message: Message) -> bool:
        """Run *message*'s kind's handlers without observing it (an item
        of an answer the node already observed); returns whether any ran."""
        handlers = self._handlers.get(message.kind, ())
        for handler in handlers:
            handler(message)
        return bool(handlers)


class _ActingOn:
    """The block of :meth:`SimNetwork.acting_on`: sets the network's
    current cause on entry and restores the outer one on exit, also when
    the block raises.  A plain class, since it is entered on every Corda
    flow hop and every re-sent answer."""

    __slots__ = ("_network", "_cause", "_outer")

    def __init__(self, network: SimNetwork, cause: int | None) -> None:
        self._network = network
        self._cause = cause

    def __enter__(self) -> None:
        self._outer = self._network._cause
        self._network._cause = self._cause

    def __exit__(self, *exc_info) -> None:
        self._network._cause = self._outer


class SimNetwork:
    """The event loop: schedule sends, run until quiescent.

    Messages are delivered in timestamp order, and each directed link
    delivers in send order: a message never overtakes an earlier one on
    the same link, so a replica applies one sender's stream in the order
    it was sent.  Partitions are symmetric
    sets of node pairs that cannot communicate; sends across a partition
    raise immediately (TCP connection refusal analogue), while probabilistic
    drop models silent loss.
    """

    def __init__(
        self,
        clock: SimClock | None = None,
        rng: DeterministicRNG | None = None,
        latency: LatencyModel | None = None,
        fault_plan: FaultPlan | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.clock = clock or SimClock()
        self.rng = (rng or DeterministicRNG("simnet")).fork("net")
        self.latency = latency or LatencyModel()
        self._partitions: set[frozenset[str]] = set()
        self._down: set[str] = set()
        self.fault_plan = fault_plan
        self.telemetry = telemetry or Telemetry(clock=self.clock)
        self.stats = NetworkStats(self.telemetry.metrics)
        self._nodes: dict[str, Node] = {}
        self._taps: list[Observer] = []
        # Scheduled deliveries: (due time, send order, message).
        self._queue: list[tuple[float, int, Message]] = []
        self._order = itertools.count()
        self._message_ids = itertools.count(1)
        # Due time of the last message queued on each directed link.
        self._link_due: dict[tuple[str, str], float] = {}
        self._dedup_sequence = itertools.count(1)
        # The id of the message whose handler is running (or that a call
        # acts on): what each send is stamped ``caused_by`` with.
        self._cause: int | None = None
        # What handlers decided, by the id of the request they handled,
        # until the call that sent the request takes it.
        self._outcomes: dict[int, Any] = {}
        # Hot-path series, bound on first use (a network that never sent
        # adds no zero-valued series): per kind sent, one delivery record.
        metrics = self.telemetry.metrics
        self._sent = metrics.bind(lambda m, kind: (
            m.counter("net.messages_sent"), m.counter("net.sent_by_kind", kind=kind),
        ))
        self._delivered = metrics.bind(lambda m, __: (
            m.counter("net.messages_delivered"), m.counter("net.unhandled"),
            m.counter("net.bytes_transferred"), m.histogram("net.delivery_latency"),
        ))

    # -- topology

    def add_node(self, name: str) -> Node:
        if name in self._nodes:
            raise DeliveryError(f"node {name!r} already exists")
        node = Node(name)
        self._nodes[name] = node
        return node

    def node(self, name: str) -> Node:
        if name not in self._nodes:
            raise DeliveryError(f"unknown node {name!r}")
        return self._nodes[name]

    def nodes(self) -> list[str]:
        return sorted(self._nodes)

    def add_tap(self, observer: Observer) -> Observer:
        """Attach a passive wiretap that sees *all* traffic."""
        self._taps.append(observer)
        return observer

    # -- stats

    def _count(self, metric: str, amount: float = 1.0) -> None:
        self.telemetry.metrics.counter(metric).inc(amount)

    # -- health

    @property
    def fault_plan(self) -> FaultPlan | None:
        return self._fault_plan

    @fault_plan.setter
    def fault_plan(self, plan: FaultPlan | None) -> None:
        self._fault_plan = plan
        self._recheck_health()

    def _recheck_health(self) -> None:
        """``_healthy``: no plan, no cut link and no node down, so no link
        or node can fail and every per-message health check is skipped.
        Any plan, even an empty one, keeps the exact per-query path: its
        builders may add faults after it is attached."""
        self._healthy = (
            self._fault_plan is None and not self._partitions and not self._down
        )

    # -- partitions

    def partition(self, a: str, b: str) -> None:
        """Cut the link between nodes *a* and *b*."""
        self._partitions.add(frozenset((a, b)))
        self._recheck_health()

    def heal(self, a: str, b: str) -> None:
        self._partitions.discard(frozenset((a, b)))
        self._recheck_health()

    def is_partitioned(self, a: str, b: str, now: float | None = None) -> bool:
        """Whether the link is cut — static partition or fault-plan window."""
        if self._healthy:
            return False
        if frozenset((a, b)) in self._partitions:
            return True
        if self._fault_plan is None:
            return False
        when = self.clock.now if now is None else now
        return self._fault_plan.is_partitioned(a, b, when)

    def is_crashed(self, name: str, now: float | None = None) -> bool:
        """Whether *name* is down — manually crashed or in a fault window."""
        if self._healthy:
            return False
        if name in self._down:
            return True
        if self._fault_plan is None:
            return False
        when = self.clock.now if now is None else now
        return self._fault_plan.is_crashed(name, when)

    # -- manual crash / recovery

    def crash_node(self, name: str) -> None:
        """Take *name* down until :meth:`recover_node`.

        Unlike a fault-plan crash window this is explicit and open-ended:
        the recovery subsystem uses it to model a node that stays dead
        until someone brings it back.  Volatile per-node state — the
        dedup-key set — is lost, exactly like process memory on a real
        crash.
        """
        node = self.node(name)
        if name in self._down:
            return
        self._down.add(name)
        self._recheck_health()
        node.seen_dedup_keys.clear()
        node.answers.clear()
        self.telemetry.events.emit("net.node_crashed", node=name)

    def recover_node(self, name: str) -> bool:
        """Bring *name* back up; returns whether it was actually down.

        Only clears the manual down flag — a fault-plan crash window
        still applies until it closes (the plan is the environment, not
        the operator).
        """
        self.node(name)
        if name not in self._down:
            return False
        self._down.discard(name)
        self._recheck_health()
        self.telemetry.events.emit("net.node_recovered", node=name)
        return True

    # -- sending

    _payload_size = staticmethod(payload_size)

    def _check_link(self, sender: str, recipient: str) -> None:
        """Raise the TCP-refusal analogue if the link is unusable now."""
        if recipient not in self._nodes:
            raise DeliveryError(f"unknown recipient {recipient!r}")
        if self._healthy:
            return
        if self.is_partitioned(sender, recipient):
            raise DeliveryError(
                f"network partition between {sender!r} and {recipient!r}"
            )
        for endpoint in (sender, recipient):
            if self.is_crashed(endpoint):
                raise DeliveryError(f"node {endpoint!r} is down")

    def _record_drop(self, message: Message, cause: str, at: float) -> None:
        """Account one dropped message: counters, event log, trace span."""
        self._count("net.messages_dropped")
        self._count(f"net.dropped.{cause}")
        self.telemetry.events.emit(
            "net.drop",
            time=at,
            cause=cause,
            kind=message.kind,
            sender=message.sender,
            recipient=message.recipient,
            size_bytes=message.size_bytes,
        )
        if message.trace is not None:
            self.telemetry.tracer.record_span(
                "net.transit",
                start=message.sent_at,
                end=at,
                parent=TraceContext.from_tuple(message.trace),
                status="error",
                error=f"dropped:{cause}",
                kind=message.kind,
                sender=message.sender,
                recipient=message.recipient,
            )

    def send(
        self,
        sender: str,
        recipient: str,
        kind: str,
        payload: Any,
        dedup_key: str | None = None,
    ) -> Message:
        """Queue a point-to-point message; returns the message envelope.

        The sender's current trace context (if a span is active on this
        network's tracer) is stamped onto the envelope so the delivery
        side can attach its transit span to the same trace.  A
        *dedup_key* makes the message idempotent: the recipient applies
        at most one message per key (duplicates are acked but dropped
        before handlers run).  What the message exposes is derived from
        *payload* (:func:`~repro.network.messages.payload_exposure`).  A
        payload :func:`payload_size` cannot size raises before anything is
        queued or counted.
        """
        self._check_link(sender, recipient)
        return self._queue_copy(
            sender, recipient, kind, payload, payload_exposure(payload),
            dedup_key, self._payload_size(payload),
        )

    def _queue_copy(
        self,
        sender: str,
        recipient: str,
        kind: str,
        payload: Any,
        exposure: Exposure,
        dedup_key: str | None,
        size_bytes: int,
    ) -> Message:
        """Envelope one checked copy, then drop it or schedule its delivery."""
        now = self.clock.now
        context = self.telemetry.tracer.current_context()
        # Positional: a keyword-built named tuple costs twice as much.
        message = Message(
            sender, recipient, kind, payload, next(self._message_ids),
            exposure, size_bytes, now,
            None if context is None else context.as_tuple(),
            dedup_key, self._cause,
        )
        sent, by_kind = self._sent[kind]
        sent.inc()
        by_kind.inc()
        plan = self._fault_plan
        if plan is None:
            delay = self.latency.sample(self.rng)
        else:
            loss = plan.loss_probability(sender, recipient)
            if loss > 0 and self.rng.uniform(0, 1) < loss:
                self._record_drop(message, "loss", at=now)
                return message
            delay = self.latency.sample(self.rng) * plan.latency_multiplier(
                sender, recipient, now
            )
        link = (sender, recipient)
        due = max(now + delay, self._link_due.get(link, 0.0))
        self._link_due[link] = due
        heapq.heappush(self._queue, (due, next(self._order), message))
        return message

    def broadcast(
        self,
        sender: str,
        kind: str,
        payload: Any,
        recipients: list[str] | None = None,
    ) -> list[Message]:
        """Send to every node (or an explicit recipient list) except the sender.

        Atomic: every target is validated (known, reachable, up) before
        anything is queued, so a bad target mid-list cannot leave earlier
        recipients with a partial broadcast.  The payload is sized, and
        its exposure derived, once; every copy carries both.
        """
        targets = [
            target
            for target in (recipients if recipients is not None else self.nodes())
            if target != sender
        ]
        for target in targets:
            self._check_link(sender, target)
        size_bytes = self._payload_size(payload)
        exposure = payload_exposure(payload)
        return [
            self._queue_copy(sender, target, kind, payload, exposure, None, size_bytes)
            for target in targets
        ]

    # -- resilient delivery

    def send_with_retry(
        self,
        sender: str,
        recipient: str,
        kind: str,
        payload: Any,
        *,
        timeout: float = 0.25,
        max_attempts: int = 3,
        dedup_key: str | None = None,
    ) -> DeliveryReceipt:
        """Send until acknowledged, with timeout and exponential backoff
        (each attempt waits twice as long as the one before).

        Each attempt sends a fresh copy (same payload, so the same exposure:
        retransmission never widens what an observer can learn) and
        drives the event loop until either the copy's delivery ack arrives
        or *timeout* simulated seconds elapse.  Transient link failures
        (partition windows, crash windows) are retried; an unknown
        recipient is permanent and raises immediately.  When every attempt
        times out, raises :class:`DeliveryTimeout` — a typed error in
        place of the silent drop the fire-and-forget path models.

        Every attempt carries the same dedup key (caller-provided or
        allocated per logical exchange), so a slow first copy arriving
        after a retransmission is applied at most once.  The ack check
        spans *all* attempts: any copy landing acknowledges the exchange.

        The whole exchange runs inside one span: every retry lands as a
        span event, the final attempt count and outcome are attributes,
        and an exhausted send leaves the span in error status with the
        ``DeliveryTimeout`` recorded — which is how traces under fault
        plans stay honest about what the substrate actually did.
        """
        if max_attempts < 1:
            raise DeliveryError("max_attempts must be >= 1")
        if timeout <= 0:
            raise DeliveryError("timeout must be > 0")
        if recipient not in self._nodes:
            raise DeliveryError(f"unknown recipient {recipient!r}")
        if dedup_key is None:
            dedup_key = f"swr:{next(self._dedup_sequence)}"
        tracer = self.telemetry.tracer
        with tracer.span(
            "net.send_with_retry", kind=kind, sender=sender, recipient=recipient
        ) as span:
            wait = timeout
            last_refusal: DeliveryError | None = None
            copies: set[int] = set()
            for attempt in range(1, max_attempts + 1):
                if attempt > 1:
                    self._count("net.retries")
                    tracer.add_event(span, "retry", attempt=attempt)
                    self.telemetry.events.emit(
                        "net.retry",
                        kind=kind,
                        sender=sender,
                        recipient=recipient,
                        attempt=attempt,
                    )
                try:
                    copies.add(
                        self.send(
                            sender, recipient, kind, payload, dedup_key=dedup_key
                        ).message_id
                    )
                except DeliveryError as refusal:
                    last_refusal = refusal
                    tracer.add_event(span, "refused", attempt=attempt)
                deadline = self.clock.now + wait
                while copies and self._queue and self._queue[0][0] <= deadline:
                    due, __, message = heapq.heappop(self._queue)
                    if self._process(due, message) and message.message_id in copies:
                        tracer.set_attribute(span, "attempts", attempt)
                        tracer.set_attribute(span, "outcome", "delivered")
                        return DeliveryReceipt(
                            message=message, attempts=attempt, delivered_at=due
                        )
                # Wait out the ack timeout before the next attempt.
                self.clock.advance_to(deadline)
                wait *= 2
            tracer.set_attribute(span, "attempts", max_attempts)
            tracer.set_attribute(span, "outcome", "DeliveryTimeout")
            detail = f" (last refusal: {last_refusal})" if last_refusal else ""
            raise DeliveryTimeout(
                f"no acknowledgement from {recipient!r} after "
                f"{max_attempts} attempt(s){detail}"
            )

    # -- event loop

    def step(self) -> bool:
        """Process the next event; returns False when the queue is empty.

        Link and node health are re-checked at delivery time: a partition
        created (or a crash window opened) after ``send()`` drops the
        in-flight message instead of delivering across the cut.
        """
        if not self._queue:
            return False
        due, __, message = heapq.heappop(self._queue)
        self._process(due, message)
        return True

    def _process(self, due: float, message: Message) -> bool:
        """Deliver or drop one dequeued message; returns whether it arrived.

        A duplicate of an already-applied dedup key arrives (and so
        acknowledges its send) but reaches no handler.
        """
        self.clock.advance_to(due)
        if not self._healthy:
            if self.is_partitioned(message.sender, message.recipient, now=due):
                self._record_drop(message, "partition", at=due)
                return False
            if self.is_crashed(message.recipient, now=due):
                self._record_drop(message, "crash", at=due)
                return False
        for tap in self._taps:
            tap.observe(message)
        delivered, unhandled, transferred, latency = self._delivered[None]
        delivered.inc()
        transferred.inc(message.size_bytes)
        latency.observe(due - message.sent_at)
        if message.trace is not None:
            self.telemetry.tracer.record_span(
                "net.transit",
                start=message.sent_at,
                end=due,
                parent=TraceContext.from_tuple(message.trace),
                kind=message.kind,
                sender=message.sender,
                recipient=message.recipient,
                size_bytes=message.size_bytes,
            )
        node = self._nodes[message.recipient]
        if message.dedup_key is not None:
            if message.dedup_key in node.seen_dedup_keys:
                # Acked above (the wire did deliver it) but applied zero
                # times past the first copy: retransmissions are idempotent.
                self._count("net.deduplicated")
                self.telemetry.events.emit(
                    "net.dedup",
                    time=due,
                    kind=message.kind,
                    sender=message.sender,
                    recipient=message.recipient,
                )
                answer = node.answers.get(message.dedup_key)
                if answer is not None:
                    # The sender asks again: its answer was lost.
                    with self.acting_on(message):
                        self.reply(message, *answer)
                return True
            node.seen_dedup_keys.add(message.dedup_key)
        outer, self._cause = self._cause, message.message_id
        try:
            if not node.deliver(message):
                unhandled.inc()
        finally:
            self._cause = outer
        return True

    # -- causes and outcomes

    def acting_on(self, cause: Message | None) -> _ActingOn:
        """Send as the handler of *cause* would: every message sent inside
        the block is stamped ``caused_by`` with *cause*'s id (``None``
        marks a first hop).  A call uses it for the hop it sends from
        what a handler recorded."""
        return _ActingOn(self, None if cause is None else cause.message_id)

    def reply(self, request: Message, kind: str, payload: Any) -> None:
        """Answer *request* from its recipient, in the recipient's delivery
        handler.  A link that refuses the answer loses it, and the call
        waiting for it raises (:meth:`outcome`).  The answer to an
        idempotent request is kept, to send again if the request is."""
        if request.dedup_key is not None:
            self._nodes[request.recipient].answers[request.dedup_key] = (kind, payload)
        try:
            self.send(request.recipient, request.sender, kind, payload)
        except DeliveryError:
            pass

    def record(self, request: Message, outcome: Any) -> None:
        """Keep what the handler of *request* decided (a value, or a
        :class:`Refusal`) for the call that sent it."""
        self._outcomes[request.message_id] = outcome

    def record_reply(self, reply: Message) -> None:
        """Delivery handler for a reply kind: keep *reply* for the call
        that sent the request it answers."""
        self._outcomes[reply.caused_by] = reply

    def outcomes(self, requests: list[Message]) -> list[Any]:
        """Deliver everything in flight, then take what was recorded for
        each of *requests*: the reply to it (a :class:`Message`) or its
        handler's decision.  Raises the error of the first
        :class:`Refusal`, or :class:`DeliveryError` when a request has no
        outcome because it or its answer was lost.

        An idempotent request (one :meth:`send_with_retry` sent with a
        dedup key) that has no outcome is asked again, up to
        ``RESENDS`` times: its recipient applies it once and re-sends
        the answer it kept."""
        self.run()
        taken = [self._take(request) for request in requests]
        for request, outcome in zip(requests, taken):
            decided = outcome.payload if isinstance(outcome, Message) else outcome
            if isinstance(decided, Refusal):
                raise decided.error
            if outcome is None:
                raise DeliveryError(
                    f"no answer to {request.kind!r} from {request.recipient!r}"
                )
        return taken

    # How many times a call asks again for an idempotent request's answer.
    RESENDS = 3

    def _take(self, request: Message) -> Any:
        outcome = self._outcomes.pop(request.message_id, None)
        for __ in range(self.RESENDS if request.dedup_key is not None else 0):
            if outcome is not None:
                break
            self._count("net.retries")
            with _ActingOn(self, request.caused_by):
                request = self.send_with_retry(
                    request.sender, request.recipient, request.kind,
                    request.payload, dedup_key=request.dedup_key,
                ).message
            self.run()
            outcome = self._outcomes.pop(request.message_id, None)
        return outcome

    def outcome(self, request: Message) -> Any:
        """:meth:`outcomes` of one request."""
        return self.outcomes([request])[0]

    def run(self, max_steps: int = 1_000_000) -> int:
        """Process events until quiescent; returns the number processed."""
        queue, pop, process = self._queue, heapq.heappop, self._process
        steps = 0
        while steps < max_steps and queue:
            due, __, message = pop(queue)
            process(due, message)
            steps += 1
        if steps >= max_steps and queue:
            raise DeliveryError("network did not quiesce (message storm?)")
        return steps
