"""Corda notaries.

The notary is Corda's ordering/uniqueness service: it prevents double
spends by tracking consumed state refs.  Two flavors matter for privacy
(paper Section 3.4 — the ordering service "has visibility of all DLT
events" *for validating notaries*):

- **validating**: receives the full transaction, re-runs contract
  verification — sees parties and data;
- **non-validating**: receives a :class:`FilteredTransaction` exposing only
  the input refs and notary component — sees almost nothing, which is the
  tear-off mechanism earning its keep.

What the notary learned is what its nodes were delivered: the
``notarise-*`` request to the leader and the ``append`` copies to the
other replicas (see :class:`~repro.ledger.ordering.OrderingPrincipal`),
each of which carries what the leader checked: the signed transaction it
validated, or the bare input refs of a tear-off.
The leader decides in its ``notarise-*`` handler and replies
``notarised`` with its signed receipt or its refusal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.common.clock import SimClock
from repro.common.errors import (
    DoubleSpendError,
    ProofError,
    ReproError,
    ValidationError,
)
from repro.crypto.signatures import Signature, SignatureScheme
from repro.ledger.ordering import LogEntry, OrderingPrincipal
from repro.network.messages import Refusal
from repro.network.simnet import SimNetwork
from repro.platforms.corda.states import StateRef
from repro.platforms.corda.transactions import FilteredTransaction, SignedTransaction
from repro.telemetry import Telemetry


@dataclass
class NotarisationReceipt:
    """The notary's signature over a transaction id it accepted."""

    tx_id: str
    notary: str
    signature: Signature

    def wire_size(self) -> int:
        return len(self.tx_id) + len(self.notary) + self.signature.wire_size()


class Notary(OrderingPrincipal):
    """A uniqueness service: a replica set with one spent-ref map each."""

    kind = "notary"

    def __init__(
        self,
        name: str,
        scheme: SignatureScheme,
        clock: SimClock,
        validating: bool,
        operators: tuple[str, ...] = ("third-party",),
        network: SimNetwork | None = None,
        contract_verifier: Callable | None = None,
        capacity_tps: float = 500.0,
        telemetry: Telemetry | None = None,
    ) -> None:
        super().__init__(name, clock, operators, network)
        self.scheme = scheme
        self.telemetry = telemetry or Telemetry(clock=clock)
        self._notarised = self.telemetry.metrics.bind(
            lambda m, mode: m.counter("notary.notarised", mode=mode)
        )
        self.validating = validating
        self.contract_verifier = contract_verifier
        self.capacity_tps = capacity_tps
        self.key = scheme.keygen_from_seed("notary:" + name)
        # Each replica's spent-ref map: input ref -> consuming tx id.
        self.spent: dict[str, dict[StateRef, str]] = {r: {} for r in self.replicas}
        self._busy_until = 0.0
        self.total_notarised = 0
        if network is not None:
            for replica in self.replicas:
                node = network.node(replica)
                node.on("notarise-full", self._on_notarise)
                node.on("notarise-filtered", self._on_notarise)

    def _on_notarise(self, message) -> None:
        """Delivery handler for ``notarise-full`` / ``notarise-filtered``,
        on the leader: check availability and uniqueness, sign, and reply
        ``notarised`` with the receipt or the refusal."""
        try:
            if message.kind == "notarise-full":
                answer = self.notarise_full(message.payload)
            else:
                answer = self.notarise_filtered(message.payload)
        except ReproError as error:
            answer = Refusal(error)
        self.network.reply(message, "notarised", answer)

    # -- crash / recovery

    def crash(self) -> None:
        """Take the notary down.  The spent-ref map is durable: losing it
        would let every consumed state be double-spent after recovery."""
        self.crashed = True
        self.telemetry.events.emit("notary.crash", notary=self.name)
        self.telemetry.metrics.counter("notary.crashes").inc()

    def recover(self) -> None:
        self.crashed = False
        self.telemetry.events.emit("notary.recover", notary=self.name)

    @staticmethod
    def _refs(item: SignedTransaction | tuple[StateRef, ...]) -> tuple[StateRef, ...]:
        """The refs a log entry's item consumes."""
        return item.wire.inputs if isinstance(item, SignedTransaction) else item

    def _consume(self, leader: str, entry: LogEntry) -> None:
        """Check the refs *entry* consumes against the leader's map, then
        replicate the spend."""
        spent = self.spent[leader]
        for ref in self._refs(entry.item):
            if ref in spent and spent[ref] != entry.tx_id:
                raise DoubleSpendError(
                    f"input {ref} already consumed by {spent[ref]}"
                )
        self._replicate(leader, [entry])

    def _apply(self, replica: str, entry: LogEntry) -> None:
        for ref in self._refs(entry.item):
            self.spent[replica][ref] = entry.tx_id

    def _release(
        self, mode: str, tx_id: str, inputs: int, payload: bytes
    ) -> NotarisationReceipt:
        """Count, charge service time and sign: the tail of both paths."""
        self.total_notarised += 1
        started = self.clock.now
        self._busy_until = max(self._busy_until, started) + 1.0 / self.capacity_tps
        self._notarised[mode].inc()
        self.telemetry.tracer.record_span(
            "notary.notarise", start=started, end=self._busy_until,
            mode=mode, inputs=inputs,
        )
        return NotarisationReceipt(
            tx_id=tx_id,
            notary=self.name,
            signature=self.scheme.sign(self.key, payload),
        )

    def notarise_full(self, stx: SignedTransaction) -> NotarisationReceipt:
        """Validating path: contract re-verification over the full
        transaction, which every replica's log entry carries."""
        leader = self.require_available()
        if not self.validating:
            raise ValidationError(
                f"notary {self.name!r} is non-validating; send a filtered tx"
            )
        wire = stx.wire
        if self.contract_verifier is not None:
            self.contract_verifier(wire)
        self._consume(leader, LogEntry(wire.tx_id, stx))
        return self._release(
            "full", wire.tx_id, len(wire.inputs), wire.signing_payload()
        )

    def notarise_filtered(self, ftx: FilteredTransaction) -> NotarisationReceipt:
        """Non-validating path: only input refs and notary name visible."""
        leader = self.require_available()
        if self.validating:
            raise ValidationError(
                f"notary {self.name!r} is validating; send the full tx"
            )
        if not ftx.verify():
            raise ProofError("filtered transaction does not match its root")
        visible_inputs = ftx.visible_of_group("inputs")
        refs = [StateRef(tx_id=c["tx_id"], index=c["index"]) for c in visible_inputs]
        # Opaque references only: no identities, no data.
        self._consume(leader, LogEntry(ftx.tx_id, tuple(refs)))
        return self._release(
            "filtered", ftx.tx_id, len(refs), ftx.signing_payload()
        )

    def is_spent(self, ref: StateRef) -> bool:
        return any(ref in spent for spent in self.spent.values())
