"""Corda notaries.

The notary is Corda's ordering/uniqueness service: it prevents double
spends by tracking consumed state refs.  Two flavors matter for privacy
(paper Section 3.4 — the ordering service "has visibility of all DLT
events" *for validating notaries*):

- **validating**: receives the full transaction, re-runs contract
  verification — sees parties and data (FULL visibility);
- **non-validating**: receives a :class:`FilteredTransaction` exposing only
  the input refs and notary component — sees almost nothing (HASH_ONLY
  visibility), which is the tear-off mechanism earning its keep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.common.clock import SimClock
from repro.common.errors import DoubleSpendError, ProofError, ValidationError
from repro.crypto.signatures import Signature, SignatureScheme
from repro.ledger.ordering import OrderingPrincipal
from repro.network.messages import Exposure
from repro.platforms.corda.states import StateRef
from repro.platforms.corda.transactions import (
    ComponentGroup,
    FilteredTransaction,
    SignedTransaction,
)
from repro.telemetry import Telemetry


@dataclass
class NotarisationReceipt:
    """The notary's signature over a transaction id it accepted."""

    tx_id: str
    notary: str
    signature: Signature


class Notary(OrderingPrincipal):
    """A (cluster of) uniqueness service(s) with a spent-ref map."""

    kind = "notary"

    def __init__(
        self,
        name: str,
        scheme: SignatureScheme,
        clock: SimClock,
        validating: bool,
        operator: str = "third-party",
        contract_verifier: Callable | None = None,
        capacity_tps: float = 500.0,
        telemetry: Telemetry | None = None,
    ) -> None:
        super().__init__(name, clock, operator)
        self.scheme = scheme
        self.telemetry = telemetry or Telemetry(clock=clock)
        self.validating = validating
        self.contract_verifier = contract_verifier
        self.capacity_tps = capacity_tps
        self.key = scheme.keygen_from_seed("notary:" + name)
        self._spent: dict[StateRef, str] = {}
        self._busy_until = 0.0
        self.total_notarised = 0

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

    def _consume(self, refs: list[StateRef], tx_id: str) -> None:
        for ref in refs:
            if ref in self._spent and self._spent[ref] != tx_id:
                raise DoubleSpendError(
                    f"input {ref} already consumed by {self._spent[ref]}"
                )
        for ref in refs:
            self._spent[ref] = tx_id

    def _release(
        self, mode: str, tx_id: str, inputs: int, payload: bytes
    ) -> NotarisationReceipt:
        """Count, charge service time and sign: the tail of both paths."""
        self.total_notarised += 1
        started = self.clock.now
        self._busy_until = max(self._busy_until, started) + 1.0 / self.capacity_tps
        self.telemetry.metrics.counter("notary.notarised", mode=mode).inc()
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
        """Validating path: full visibility, contract re-verification."""
        self.require_available()
        if not self.validating:
            raise ValidationError(
                f"notary {self.name!r} is non-validating; send a filtered tx"
            )
        wire = stx.wire
        # Full visibility: the notary learns parties and data.
        identities = set()
        data_keys = set()
        for state in wire.outputs:
            identities |= set(state.participants)
            data_keys |= set(state.data)
        self.observer.observe_exposure(
            Exposure.of(identities=identities, data_keys=data_keys)
        )
        if self.contract_verifier is not None:
            self.contract_verifier(wire)
        self._consume(list(wire.inputs), wire.tx_id)
        return self._release(
            "full", wire.tx_id, len(wire.inputs), wire.signing_payload()
        )

    def notarise_filtered(self, ftx: FilteredTransaction) -> NotarisationReceipt:
        """Non-validating path: only input refs and notary name visible."""
        self.require_available()
        if self.validating:
            raise ValidationError(
                f"notary {self.name!r} is validating; send the full tx"
            )
        if not ftx.verify():
            raise ProofError("filtered transaction does not match its root")
        visible_inputs = ftx.visible_of_group("inputs")
        refs = [StateRef(tx_id=c["tx_id"], index=c["index"]) for c in visible_inputs]
        # The notary learns only opaque references — no identities, no data.
        self.observer.observe_exposure(Exposure())
        self._consume(refs, ftx.tx_id)
        return self._release(
            "filtered", ftx.tx_id, len(refs), ftx.signing_payload()
        )

    def is_spent(self, ref: StateRef) -> bool:
        return ref in self._spent
