"""Fabric channels.

Section 5: "The primary mechanisms for privacy and confidentiality
preservation is through channels, which provide a separate ledger for a
subset of participants.  Identities of channel members are not revealed to
the wider network and transactions are only shared between channel
members."

A channel bundles: a member set, a hash-linked chain, each member's
validation code of every transaction it applied, an endorsement policy,
committed chaincode definitions, and any private data collections.  Each
member's world state of the channel, and how many ordered transactions
it has applied, live in that member's replica (one scope per channel).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.common.errors import ContractError, MembershipError
from repro.ledger.block import Chain
from repro.ledger.state import WorldState
from repro.ledger.transaction import Transaction
from repro.ledger.validation import EndorsementPolicy, apply_writes
from repro.platforms.fabric.pdc import PrivateDataCollection


class ValidationCode(enum.Enum):
    """Fabric-style per-transaction validation outcomes."""

    VALID = "VALID"
    MVCC_READ_CONFLICT = "MVCC_READ_CONFLICT"
    ENDORSEMENT_POLICY_FAILURE = "ENDORSEMENT_POLICY_FAILURE"


@dataclass
class ChaincodeDefinition:
    """A committed chaincode definition: id, version, endorsement policy."""

    contract_id: str
    version: int
    policy: EndorsementPolicy
    approvals: set[str] = field(default_factory=set)
    committed: bool = False


class BlockEntry(NamedTuple):
    """One ordered transaction in a ``block`` message (a tuple of entries:
    a whole cut from the orderer, or one entry in catch-up): the
    transaction, the chaincode whose endorsement policy it is validated
    against, and its position in commit order."""

    tx: Transaction
    contract_id: str
    position: int


class Channel:
    """One Fabric channel: membership boundary + ledger + lifecycle state."""

    def __init__(self, name: str, members: list[str], replicas: dict) -> None:
        if len(members) < 1:
            raise MembershipError("a channel needs at least one member")
        self.name = name
        self.members: frozenset[str] = frozenset(members)
        self.chain = Chain(name)
        # The platform's replicas: each member's has this channel as a scope.
        self.replicas = replicas
        # Each member's validation code of every transaction it applied
        # (keyed in member order): its ledger's record, durable like the
        # chain.
        self.codes: dict[str, dict[str, ValidationCode]] = {m: {} for m in members}
        self.definitions: dict[str, ChaincodeDefinition] = {}
        self.collections: dict[str, PrivateDataCollection] = {}
        # The block entry of every ordered transaction, by id: what the
        # orderer and catch-up providers send.
        self.outcomes: dict[str, BlockEntry] = {}

    def require_member(self, org: str) -> None:
        if org not in self.members:
            raise MembershipError(
                f"{org!r} is not a member of channel {self.name!r}"
            )

    # -- chaincode lifecycle (approve -> commit)

    def approve_definition(
        self, org: str, contract_id: str, version: int, policy: EndorsementPolicy
    ) -> None:
        """One org's approval of a chaincode definition."""
        self.require_member(org)
        definition = self.definitions.get(contract_id)
        if definition is None or definition.version != version:
            definition = ChaincodeDefinition(
                contract_id=contract_id, version=version, policy=policy
            )
            self.definitions[contract_id] = definition
        definition.approvals.add(org)

    def commit_definition(self, contract_id: str) -> ChaincodeDefinition:
        """Commit once a majority of members have approved."""
        definition = self.definitions.get(contract_id)
        if definition is None:
            raise ContractError(f"no approvals for chaincode {contract_id!r}")
        if len(definition.approvals) * 2 <= len(self.members):
            raise ContractError(
                f"chaincode {contract_id!r} lacks majority approval "
                f"({len(definition.approvals)}/{len(self.members)})"
            )
        definition.committed = True
        return definition

    def committed_definition(self, contract_id: str) -> ChaincodeDefinition:
        definition = self.definitions.get(contract_id)
        if definition is None or not definition.committed:
            raise ContractError(
                f"chaincode {contract_id!r} is not committed on channel {self.name!r}"
            )
        return definition

    # -- private data collections

    def create_collection(self, name: str, members: list[str]) -> PrivateDataCollection:
        for member in members:
            self.require_member(member)
        collection = PrivateDataCollection.create(name, members)
        self.collections[name] = collection
        return collection

    def collection(self, name: str) -> PrivateDataCollection:
        if name not in self.collections:
            raise MembershipError(f"no collection {name!r} on channel {self.name!r}")
        return self.collections[name]

    # -- state access

    def state_of(self, org: str) -> WorldState:
        """*org*'s world state of this channel, from its replica."""
        self.require_member(org)
        return self.replicas[org].states[self.name]

    def reference_state(self) -> WorldState:
        """The first member's state (for reads outside any flow)."""
        return self.state_of(next(iter(self.codes)))

    def replicas_consistent(self) -> bool:
        """True iff every member's replica holds the same snapshot."""
        snapshots = [self.state_of(member).snapshot() for member in self.codes]
        return all(s == snapshots[0] for s in snapshots[1:])

    def record_order(self, tx: Transaction, contract_id: str) -> BlockEntry:
        """Record one ordered transaction; returns its block entry."""
        entry = BlockEntry(tx, contract_id, len(self.outcomes))
        self.outcomes[tx.tx_id] = entry
        return entry

    def commit(self, member: str, replica, entry: BlockEntry, code: ValidationCode) -> None:
        """Commit the next block entry to *member*'s ledger and *replica*
        with the code it validated to, applying its writes iff it is
        valid."""
        self.codes[member][entry.tx.tx_id] = code
        if code is ValidationCode.VALID:
            apply_writes(entry.tx, replica.states[self.name])
        replica.heights[self.name] = entry.position + 1

    def code_of(self, tx_id: str) -> ValidationCode | None:
        """The code members validated *tx_id* to (``None`` if none did)."""
        for member in sorted(self.members):
            code = self.codes[member].get(tx_id)
            if code is not None:
                return code
        return None

    def _tx_ids(self, valid: bool) -> list[str]:
        codes: dict[str, ValidationCode] = {}
        for member in sorted(self.members):
            for tx_id, code in self.codes[member].items():
                codes.setdefault(tx_id, code)
        return [
            tx_id for tx_id, code in codes.items()
            if (code is ValidationCode.VALID) is valid
        ]

    @property
    def committed_tx_ids(self) -> list[str]:
        return self._tx_ids(valid=True)

    @property
    def invalid_tx_ids(self) -> list[str]:
        return self._tx_ids(valid=False)
