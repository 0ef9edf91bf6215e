"""Ordering services.

Section 3.4: "The service that provides ordering of transactions ... is an
integral part of any DLT platform.  For some of the platforms reviewed
(Fabric and Corda), this service has visibility of all DLT events,
including parties to transactions and transaction details.  When assessing
a DLT for suitability, architects must consider whether the ordering
service meets privacy and confidentiality requirements and if parties can
feasibly run their own service to mitigate leaks."

This module makes that analysis executable.  Every orderer carries an
:class:`Observer` recording exactly what it saw; orderers differ in

- **visibility**: FULL (sees parties and payloads, like a Fabric ordering
  node or a Corda validating notary) vs HASH_ONLY (sees only digests, like
  a Corda non-validating notary);
- **operator**: a third party, or one of the transacting organizations
  ("private sequencing service", Table 1's Misc row).

A simple service-time model (capacity in tx/s, batch cutting by size or
timeout) supports the S1-S3 scalability benchmarks: ordering is the shared
bottleneck whose saturation the benches demonstrate.

The service also models crash/recovery (mirroring ``RaftCluster.crash`` /
``recover``): a crashed orderer refuses submissions and batch cuts, and its
pending queues either survive the crash (``durable=True``, a write-ahead
log) or are lost with it.  Scheduled outages come from an attached
:class:`repro.faults.FaultPlan`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.common.clock import SimClock
from repro.common.errors import OrderingError
from repro.faults.plan import FaultPlan
from repro.ledger.transaction import Transaction
from repro.network.messages import Exposure
from repro.network.simnet import Observer
from repro.telemetry import Telemetry


class OrdererVisibility(enum.Enum):
    """How much of each transaction the ordering service can read."""

    FULL = "full"
    HASH_ONLY = "hash_only"


@dataclass
class OrdererProfile:
    """Performance envelope of one ordering service."""

    capacity_tps: float = 1000.0
    max_batch_size: int = 100
    batch_timeout: float = 0.5


@dataclass
class OrderedBatch:
    """A cut batch with the simulated time at which it was released."""

    channel: str
    transactions: list[Transaction]
    released_at: float
    sequence: int


class OrderingPrincipal:
    """The Section 3.4 principal that "sees all DLT events" it orders.

    Shared by the Fabric/Quorum :class:`OrderingService` and the Corda
    notary: an observer of what it saw, the operator who runs it, and
    availability (a crash, or an outage scheduled on the attached
    :class:`repro.faults.FaultPlan` under the principal's name).
    Subclasses set :attr:`kind`, the noun in the "is down" error, and
    own their crash/recover events and durability rule.
    """

    kind = "ordering service"

    def __init__(
        self,
        name: str,
        clock: SimClock,
        operator: str,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        self.name = name
        self.clock = clock
        self.operator = operator
        self.fault_plan = fault_plan
        self.crashed = False
        self.observer = Observer(name)

    def available(self, now: float | None = None) -> bool:
        """Whether the service accepts work at *now* (default: clock time)."""
        if self.crashed:
            return False
        if self.fault_plan is None:
            return True
        when = self.clock.now if now is None else now
        return not self.fault_plan.orderer_down(self.name, when)

    def require_available(self) -> None:
        if not self.available():
            raise OrderingError(f"{self.kind} {self.name!r} is down")

    def is_member_operated(self, members: set[str]) -> bool:
        """True if a transacting organization runs this service itself —
        the paper's mitigation for ordering-service visibility."""
        return self.operator in members

    def knowledge(self) -> dict:
        """What this principal has learned (for the L1 leakage audit)."""
        return self.observer.knowledge()


class OrderingService(OrderingPrincipal):
    """A single logical ordering service (possibly multi-channel).

    Fabric deployments share one ordering service across channels, which is
    why the orderer's observer accumulates knowledge across confidentiality
    boundaries — the exact §3.4 concern.
    """

    def __init__(
        self,
        name: str,
        clock: SimClock,
        visibility: OrdererVisibility = OrdererVisibility.FULL,
        operator: str = "third-party",
        profile: OrdererProfile | None = None,
        durable: bool = True,
        fault_plan: FaultPlan | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        super().__init__(name, clock, operator, fault_plan)
        self.visibility = visibility
        self.profile = profile or OrdererProfile()
        self.durable = durable
        self.telemetry = telemetry or Telemetry(clock=clock)
        self._pending: dict[str, list[tuple[Transaction, float]]] = {}
        self._sequence = 0
        self._busy_until = 0.0
        self.total_ordered = 0

    # -- crash / recovery

    def crash(self) -> None:
        """Take the service down.  Non-durable services lose their queues."""
        self.crashed = True
        if not self.durable:
            self._pending.clear()
        self.telemetry.events.emit(
            "ordering.crash", service=self.name, durable=self.durable
        )
        self.telemetry.metrics.counter("ordering.crashes").inc()

    def recover(self) -> None:
        """Bring the service back.  Durable queues resume where they were."""
        self.crashed = False
        self.telemetry.events.emit("ordering.recover", service=self.name)

    def _record_visibility(self, tx: Transaction) -> None:
        if self.visibility is OrdererVisibility.FULL:
            identities = {e.endorser for e in tx.endorsements}
            # A pseudonymous submitter (e.g. an Idemix client) is not an
            # identity observation — the orderer sees only the pseudonym.
            if not tx.metadata.get("anonymous"):
                identities.add(tx.submitter)
            if "participants" in tx.metadata:
                identities |= set(tx.metadata["participants"])
            data_keys = {w.key for w in tx.writes} | {r.key for r in tx.reads}
            exposure = Exposure.of(identities=identities, data_keys=data_keys)
        else:
            # Hash-only orderers learn that *a* transaction exists, nothing else.
            exposure = Exposure()
        self.observer.observe_exposure(exposure)

    def submit(self, tx: Transaction) -> None:
        """Accept a transaction for ordering on its channel."""
        self.require_available()
        self._record_visibility(tx)
        arrival = self.clock.now
        self._pending.setdefault(tx.channel, []).append((tx, arrival))
        self.telemetry.metrics.counter("ordering.submitted").inc()
        self.telemetry.metrics.gauge("ordering.pending", channel=tx.channel).inc()

    def pending_count(self, channel: str) -> int:
        return len(self._pending.get(channel, []))

    def oldest_wait(self, channel: str, now: float | None = None) -> float:
        """How long the oldest pending tx on *channel* has been waiting."""
        queue = self._pending.get(channel, [])
        if not queue:
            return 0.0
        when = self.clock.now if now is None else now
        return max(0.0, when - queue[0][1])

    def ready_to_cut(self, channel: str, now: float | None = None) -> bool:
        """Whether a batch would be cut at *now*: full, or timeout expired."""
        queue = self._pending.get(channel, [])
        if not queue:
            return False
        if len(queue) >= self.profile.max_batch_size:
            return True
        return self.oldest_wait(channel, now) >= self.profile.batch_timeout

    def cut_batch(self, channel: str, force: bool = False) -> OrderedBatch:
        """Order the pending transactions of *channel* into one batch.

        Models service time: the orderer processes transactions serially at
        ``capacity_tps``; the batch release time reflects queueing behind
        earlier work on *any* channel (shared-bottleneck semantics).

        Batch cutting honors ``profile.batch_timeout``: a partial batch
        (fewer than ``max_batch_size`` transactions) is not released until
        its oldest transaction has waited ``batch_timeout`` — the release
        time is pushed out to that expiry.  Pass ``force=True`` to cut
        immediately regardless (an explicit operator flush, used by the
        platform simulations' synchronous submit paths).
        """
        self.require_available()
        queue = self._pending.get(channel, [])
        if not queue:
            raise OrderingError(f"no pending transactions on channel {channel!r}")
        batch_items = queue[: self.profile.max_batch_size]
        self._pending[channel] = queue[self.profile.max_batch_size :]
        transactions = [tx for tx, __ in batch_items]
        latest_arrival = max(arrival for __, arrival in batch_items)
        service_time = len(transactions) / self.profile.capacity_tps
        start = max(self._busy_until, latest_arrival)
        if not force and len(batch_items) < self.profile.max_batch_size:
            # Partial batch: the timeout timer starts at the *oldest*
            # arrival, so the batch is released once that tx has waited
            # batch_timeout (or immediately if it already has).
            oldest_arrival = min(arrival for __, arrival in batch_items)
            start = max(start, oldest_arrival + self.profile.batch_timeout)
        released_at = start + service_time
        self._busy_until = released_at
        self._sequence += 1
        self.total_ordered += len(transactions)
        metrics = self.telemetry.metrics
        metrics.counter("ordering.batches_cut").inc()
        metrics.counter("ordering.txs_ordered").inc(len(transactions))
        metrics.gauge("ordering.pending", channel=channel).dec(len(transactions))
        metrics.histogram(
            "ordering.batch_size", bounds=(1, 2, 5, 10, 25, 50, 100, 250)
        ).observe(len(transactions))
        metrics.histogram("ordering.batch_latency").observe(
            released_at - latest_arrival
        )
        # The batch's lifetime as a span: cut decision now, release at the
        # modelled service-time end.  Parentage follows the caller's
        # active span (e.g. ``fabric.order``), so orderer batches appear
        # inside the transaction trace that triggered them.
        self.telemetry.tracer.record_span(
            "ordering.cut_batch",
            start=self.clock.now,
            end=released_at,
            channel=channel,
            batch_size=len(transactions),
            sequence=self._sequence,
            forced=force,
        )
        return OrderedBatch(
            channel=channel,
            transactions=transactions,
            released_at=released_at,
            sequence=self._sequence,
        )

    def drain_channel(self, channel: str, force: bool = False) -> list[OrderedBatch]:
        """Cut batches until the channel queue is empty."""
        batches = []
        while self.pending_count(channel):
            batches.append(self.cut_batch(channel, force=force))
        return batches


def make_private_orderer(
    operator: str,
    clock: SimClock,
    visibility: OrdererVisibility = OrdererVisibility.FULL,
    profile: OrdererProfile | None = None,
) -> OrderingService:
    """An ordering service run by one of the transacting organizations.

    Visibility is unchanged — the *operator* changes, which converts the
    leak from 'third party sees everything' to 'a member sees everything',
    the trade-off §3.4 describes.
    """
    return OrderingService(
        name=f"orderer@{operator}",
        clock=clock,
        visibility=visibility,
        operator=operator,
        profile=profile,
    )
