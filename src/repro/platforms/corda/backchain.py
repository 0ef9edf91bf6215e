"""Transaction backchain resolution.

When a Corda state moves to a new party, the recipient must verify the
entire chain of transactions that produced it ("transaction resolution").
That is a *privacy cost*: the new owner learns every historical
transaction in the state's lineage — prior holders, amounts, timestamps —
which is precisely the leak one-time public keys (Section 2.1) mitigate:
with pseudonymous owners the recipient verifies the same chain while
learning keys instead of identities.

This module implements the walk and quantifies the disclosure, feeding
the S2 backchain ablation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import StateError
from repro.platforms.corda.states import StateRef
from repro.platforms.corda.transactions import SignedTransaction
from repro.platforms.corda.vault import Vault


@dataclass
class BackchainDisclosure:
    """What a recipient learned by resolving one state's history."""

    transactions: list[SignedTransaction] = field(default_factory=list)
    identities: set[str] = field(default_factory=set)
    pseudonymous_keys: set[int] = field(default_factory=set)
    data_keys: set[str] = field(default_factory=set)

    @property
    def depth(self) -> int:
        return len(self.transactions)


def collect_backchain(vault: Vault, tx_id: str) -> list[SignedTransaction]:
    """All ancestors of *tx_id* (inclusive), oldest first.

    Walks input refs recursively through the provider's vault; raises
    :class:`StateError` if the lineage is incomplete (the provider cannot
    prove provenance).
    """
    seen: set[str] = set()
    ordered: list[SignedTransaction] = []

    def walk(current: str) -> None:
        if current in seen:
            return
        if current not in vault.transactions:
            raise StateError(
                f"{vault.owner!r} cannot resolve ancestor {current!r}"
            )
        seen.add(current)
        stx = vault.transactions[current]
        for ref in stx.wire.inputs:
            walk(ref.tx_id)
        ordered.append(stx)

    walk(tx_id)
    return ordered


def disclosure_of(backchain: list[SignedTransaction]) -> BackchainDisclosure:
    """Account for everything the backchain reveals to its recipient."""
    disclosure = BackchainDisclosure(transactions=list(backchain))
    for stx in backchain:
        disclosure.identities |= stx.exposure.identities
        disclosure.data_keys |= stx.exposure.data_keys
        disclosure.pseudonymous_keys.update(
            state.owner_key_y for state in stx.wire.outputs
            if state.owner_key_y is not None
        )
    return disclosure


def verify_backchain(backchain: list[SignedTransaction], tip_ref: StateRef) -> bool:
    """Structural verification a recipient runs before accepting a state.

    Checks that every input of every transaction in the chain is produced
    by an earlier transaction in the chain, and that the tip ref points at
    an output of the final transaction.
    """
    produced: set[str] = set()
    for stx in backchain:
        for ref in stx.wire.inputs:
            if ref.tx_id not in produced:
                return False
        produced.add(stx.wire.tx_id)
    if not backchain:
        return False
    tip = backchain[-1]
    return (
        tip.wire.tx_id == tip_ref.tx_id
        and 0 <= tip_ref.index < len(tip.wire.outputs)
    )
