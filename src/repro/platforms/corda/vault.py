"""Per-node vaults.

Corda nodes store only the transactions they were party to — there is no
global ledger replica.  The vault is exactly that store; what a node does
NOT hold is as important to the privacy analysis as what it does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import StateError
from repro.platforms.corda.states import ContractState, StateRef
from repro.platforms.corda.transactions import SignedTransaction


@dataclass
class Vault:
    """One node's private store of relevant transactions and states."""

    owner: str
    transactions: dict[str, SignedTransaction] = field(default_factory=dict)
    unconsumed: dict[StateRef, ContractState] = field(default_factory=dict)

    def record(self, stx: SignedTransaction) -> None:
        """Store a finalized transaction and update unconsumed states."""
        wire = stx.wire
        self.transactions[wire.tx_id] = stx
        for ref in wire.inputs:
            self.unconsumed.pop(ref, None)
        for index, state in enumerate(wire.outputs):
            if self.owner in state.participants:
                self.unconsumed[StateRef(tx_id=wire.tx_id, index=index)] = state

    def checkpoint(self) -> dict:
        """Which transactions the vault holds, and how many."""
        tx_ids = sorted(self.transactions)
        return {"heights": {"vault": len(tx_ids)}, "snapshots": {"tx_ids": tx_ids}}

    def restore(self, checkpoint) -> None:
        """Restart empty: a checkpoint names the transactions, not their
        content, so entitled re-shipping repopulates the store."""
        self.transactions = {}
        self.unconsumed = {}

    def rebuild_unconsumed(self) -> None:
        """Recompute the unconsumed-state index from stored transactions.

        A recovering node's vault is repopulated transaction-by-transaction
        (catch-up ships only entitled chains); once the store is complete,
        the unconsumed view is a pure function of it: every output this
        owner participates in, minus every ref consumed by any known
        transaction.
        """
        consumed: set[StateRef] = set()
        for stx in self.transactions.values():
            consumed.update(stx.wire.inputs)
        self.unconsumed = {}
        for tx_id in sorted(self.transactions):
            wire = self.transactions[tx_id].wire
            for index, state in enumerate(wire.outputs):
                ref = StateRef(tx_id=wire.tx_id, index=index)
                if self.owner in state.participants and ref not in consumed:
                    self.unconsumed[ref] = state

    def state_at(self, ref: StateRef) -> ContractState:
        if ref not in self.unconsumed:
            raise StateError(f"{self.owner!r} holds no unconsumed state {ref}")
        return self.unconsumed[ref]

    def knows_transaction(self, tx_id: str) -> bool:
        return tx_id in self.transactions

    def __len__(self) -> int:
        return len(self.unconsumed)
