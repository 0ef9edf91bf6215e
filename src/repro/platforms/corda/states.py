"""Corda state model.

Corda has no global key-value state: the ledger is a set of immutable
*states*, each owned by its participants, consumed and produced by
transactions.  A :class:`StateRef` points at an output of a previous
transaction; the notary tracks which refs are spent.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class StateRef:
    """Pointer to the *index*-th output of transaction *tx_id*."""

    tx_id: str
    index: int

    def __str__(self) -> str:
        return f"{self.tx_id}[{self.index}]"


@dataclass(frozen=True)
class ContractState:
    """An immutable fact on the ledger.

    ``participants`` are the parties (or one-time keys' holders) that must
    be informed of changes to this state; ``owner_key_y`` optionally records
    ownership against a (possibly one-time) public key, per Section 2.1.
    """

    contract_id: str
    participants: tuple[str, ...]
    data: dict = field(default_factory=dict)
    owner_key_y: int | None = None


@dataclass(frozen=True)
class Command:
    """An instruction with the keys required to sign for it."""

    name: str
    signers: tuple[str, ...]
    payload: dict = field(default_factory=dict)
