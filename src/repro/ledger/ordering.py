"""Ordering services.

Section 3.4: "The service that provides ordering of transactions ... is an
integral part of any DLT platform.  For some of the platforms reviewed
(Fabric and Corda), this service has visibility of all DLT events,
including parties to transactions and transaction details.  When assessing
a DLT for suitability, architects must consider whether the ordering
service meets privacy and confidentiality requirements and if parties can
feasibly run their own service to mitigate leaks."

This module makes that analysis executable.  An ordering principal (a
Fabric orderer, a Corda notary, Quorum's consensus) is a replica set of
network nodes, one per operator.  What it learned is what its nodes were
delivered, so the leakage audit reads the nodes' observers and nothing
else.  Operators may be a third party or the transacting organizations
themselves ("private sequencing service", Table 1's Misc row); running a
replica set contains the leak within its operators and multiplies who
holds it.

The leader, the first live replica by rank holding the committed log,
sends each ordered item to the other replicas as an ``append`` message,
and a replica changes its log only in its ``append`` handler, which
acknowledges with the length of its log (``append-ack``).  The acks tell
the leader what each follower holds, and so what to send it next.  The
committed log is everything the leader has released, acked or not: a
receipt may already be on its way, so a replica that lacks any of it
must not lead.  The principal refuses work unless a
majority of replicas is live and reachable from the leader, so a
minority crash or partition is tolerated and the lagging replica
catches up on a later append.

A simple service-time model (capacity in tx/s, batch cutting by size or
timeout) supports the S1-S3 scalability benchmarks: ordering is the shared
bottleneck whose saturation the benches demonstrate.  The service also
models crash/recovery of the principal as a whole: a crashed orderer
refuses submissions and batch cuts, and its pending queues either survive
the crash (``durable=True``, a write-ahead log) or are lost with it.
Scheduled outages come from an attached :class:`repro.faults.FaultPlan`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.common.clock import SimClock
from repro.common.errors import OrderingError
from repro.faults.plan import FaultPlan
from repro.ledger.transaction import Transaction
from repro.network.simnet import Observer, SimNetwork
from repro.telemetry import Telemetry


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


class LogEntry(NamedTuple):
    """One replicated log entry: the id of the ordered transaction and
    what was ordered (a transaction, or what a notarisation consumed).
    A follower learns what the item reveals."""

    tx_id: str
    item: object


class OrderingPrincipal:
    """The Section 3.4 principal that "sees all DLT events" it orders.

    Shared by the Fabric/Quorum :class:`OrderingService` and the Corda
    notary: a replica set of nodes on *network*, ranked by *operators*
    (one node named *name* by default, else ``name@operator`` each), and
    availability (a crash, or an outage scheduled on the attached
    :class:`repro.faults.FaultPlan` under the principal's name).  Without
    a network the principal is a bare service-time model with nodes
    nobody can reach.  Subclasses set :attr:`kind`, the noun in the
    errors, and own their crash/recover events and durability rule.
    """

    kind = "ordering service"

    def __init__(
        self,
        name: str,
        clock: SimClock,
        operators: tuple[str, ...] = ("third-party",),
        network: SimNetwork | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if len(operators) % 2 == 0 or len(set(operators)) != len(operators):
            raise OrderingError(
                f"{self.kind} {name!r} needs an odd number of distinct operators"
            )
        self.name = name
        self.clock = clock
        self.operators = tuple(operators)
        self.network = network
        self.fault_plan = fault_plan
        self.crashed = False
        self.replicas = (
            (name,) if len(operators) == 1
            else tuple(f"{name}@{operator}" for operator in operators)
        )
        self.logs: dict[str, list[LogEntry]] = {r: [] for r in self.replicas}
        # How many entries each follower holds as far as the leader
        # knows: its last ``append-ack``.
        self._match: dict[str, int] = dict.fromkeys(self.replicas, 0)
        # The length the leader released: the bar for leading.
        self._committed = 0
        if network is not None:
            for replica in self.replicas:
                node = network.add_node(replica)
                node.on("append", self._on_append)
                node.on("append-ack", self._on_append_ack)

    def available(self, now: float | None = None) -> bool:
        """Whether the service as a whole is up at *now* (default: clock
        time); replica liveness is :meth:`require_available`'s concern."""
        if self.crashed:
            return False
        if self.fault_plan is None:
            return True
        when = self.clock.now if now is None else now
        return not self.fault_plan.orderer_down(self.name, when)

    def _live(self, replica: str) -> bool:
        return self.network is None or not self.network.is_crashed(replica)

    def _reachable(self, leader: str, replica: str) -> bool:
        """Whether *leader* can send to *replica* now."""
        if replica == leader:
            return True
        network = self.network
        return (
            network is not None
            and not network.is_crashed(replica)
            and not network.is_partitioned(leader, replica)
        )

    def require_available(self) -> str:
        """Return the leader, or raise :class:`OrderingError` before
        anything is sent: the service is down, no live replica holds the
        committed log, or fewer than a majority of replicas are live and
        reachable from the leader."""
        if not self.available():
            raise OrderingError(f"{self.kind} {self.name!r} is down")
        for leader in self.replicas:
            if self._live(leader) and len(self.logs[leader]) >= self._committed:
                break
        else:
            raise OrderingError(
                f"{self.kind} {self.name!r}: no live replica holds the committed log"
            )
        reachable = sum(self._reachable(leader, r) for r in self.replicas)
        if reachable <= len(self.replicas) // 2:
            raise OrderingError(
                f"{self.kind} {self.name!r} lost its majority "
                f"({reachable} of {len(self.replicas)} replicas reachable)"
            )
        return leader

    def _replicate(self, leader: str, entries: list[LogEntry]) -> None:
        """Append *entries* to *leader*'s log, then send every live,
        reachable follower each entry past what it last acknowledged, one
        ``append`` per entry; a copy that arrives twice applies once.  A
        lone replica has nobody to ship to, so it keeps no log."""
        if len(self.replicas) == 1:
            for entry in entries:
                self._apply(leader, entry)
            return
        log = self.logs[leader]
        for entry in entries:
            log.append(entry)
            self._apply(leader, entry)
        self._committed = len(log)
        for follower in self.replicas:
            if follower == leader or not self._reachable(leader, follower):
                continue
            for index in range(self._match[follower], len(log)):
                self.network.send(leader, follower, "append", (index, log[index]))

    def _on_append(self, message) -> None:
        """Delivery handler for ``append``: the follower appends the entry
        it carries if that is the next index of its own log, then acks
        with its log's length."""
        replica = message.recipient
        log = self.logs[replica]
        index, entry = message.payload
        if index == len(log):
            log.append(entry)
            self._apply(replica, entry)
        self.network.reply(message, "append-ack", (replica, len(log)))

    def _on_append_ack(self, message) -> None:
        """Delivery handler for ``append-ack``, on the leader: the follower
        it names holds that many entries."""
        replica, length = message.payload
        self._match[replica] = length

    def _apply(self, replica: str, entry: LogEntry) -> None:
        """Subclass hook: what a replica derives from a new log entry."""

    def is_member_operated(self, members: set[str]) -> bool:
        """True if the transacting organizations run every replica
        themselves: the paper's mitigation for ordering-service
        visibility."""
        return set(self.operators) <= set(members)

    def observers(self) -> list[Observer]:
        """The replica nodes' observers: the principal's only account."""
        if self.network is None:
            return []
        return [self.network.node(r).observer for r in self.replicas]

    def knowledge(self) -> dict:
        """What the replicas learned, together (for the L1 leakage audit)."""
        observers = self.observers()
        return {
            "identities": sorted(set().union(*(o.seen_identities for o in observers))),
            "data_keys": sorted(set().union(*(o.seen_data_keys for o in observers))),
            "code_ids": sorted(set().union(*(o.seen_code_ids for o in observers))),
            "messages_observed": sum(o.messages_observed for o in observers),
        }


class OrderingService(OrderingPrincipal):
    """A single logical ordering service (possibly multi-channel).

    Fabric deployments share one ordering service across channels, which is
    why the orderer's nodes accumulate knowledge across confidentiality
    boundaries — the exact §3.4 concern.
    """

    def __init__(
        self,
        name: str,
        clock: SimClock,
        operators: tuple[str, ...] = ("third-party",),
        network: SimNetwork | None = None,
        profile: OrdererProfile | None = None,
        durable: bool = True,
        fault_plan: FaultPlan | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        super().__init__(name, clock, operators, network, fault_plan)
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

    def submit(self, tx: Transaction) -> None:
        """Accept a transaction for ordering on its channel."""
        self.require_available()
        arrival = self.clock.now
        self._pending.setdefault(tx.channel, []).append((tx, arrival))
        self.telemetry.metrics.counter("ordering.submitted").inc()
        self.telemetry.metrics.gauge("ordering.pending", channel=tx.channel).inc()

    def pending_count(self, channel: str) -> int:
        return len(self._pending.get(channel, []))

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
        leader = self.require_available()
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
        self._replicate(leader, [LogEntry(tx.tx_id, tx) for tx in transactions])
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

