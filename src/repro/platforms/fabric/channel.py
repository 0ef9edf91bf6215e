"""Fabric channels.

Section 5: "The primary mechanisms for privacy and confidentiality
preservation is through channels, which provide a separate ledger for a
subset of participants.  Identities of channel members are not revealed to
the wider network and transactions are only shared between channel
members."

A channel bundles: a member set, a hash-linked chain, per-member world
state replicas (each applies blocks as they arrive), an endorsement
policy, committed chaincode definitions, and any private data collections.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.common.errors import (
    ContractError,
    MembershipError,
    ValidationError,
)
from repro.ledger.block import Chain
from repro.ledger.state import WorldState
from repro.ledger.transaction import Transaction
from repro.ledger.validation import EndorsementPolicy, apply_writes
from repro.platforms.fabric.pdc import PrivateDataCollection


@dataclass
class ChaincodeDefinition:
    """A committed chaincode definition: id, version, endorsement policy."""

    contract_id: str
    version: int
    policy: EndorsementPolicy
    approvals: set[str] = field(default_factory=set)
    committed: bool = False


class BlockEntry(NamedTuple):
    """One ordered transaction as a ``block`` message carries it: the
    transaction, whether it validated, and its position in commit order."""

    tx: Transaction
    valid: bool
    position: int


class Channel:
    """One Fabric channel: membership boundary + ledger + lifecycle state."""

    def __init__(self, name: str, members: list[str]) -> None:
        if len(members) < 1:
            raise MembershipError("a channel needs at least one member")
        self.name = name
        self.members: frozenset[str] = frozenset(members)
        self.chain = Chain(name)
        # Per-member state replicas, each with how many ordered
        # transactions it has applied; a member that misses a block lags.
        self.states: dict[str, WorldState] = {m: WorldState() for m in members}
        self.applied: dict[str, int] = {m: 0 for m in members}
        self.definitions: dict[str, ChaincodeDefinition] = {}
        self.collections: dict[str, PrivateDataCollection] = {}
        # The block entry of every ordered transaction, by id: what the
        # orderer and catch-up providers send.
        self.outcomes: dict[str, BlockEntry] = {}
        # The committed version of each key: what MVCC validation checks
        # reads against, since any one replica may lag.
        self.versions: dict[str, int] = {}

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
        self.require_member(org)
        return self.states[org]

    def reference_state(self, skip: frozenset[str] | set[str] = frozenset()) -> WorldState:
        """The first live member's replica; endorsement reads from it.

        *skip* excludes members whose replicas cannot be trusted right
        now — crashed peers whose state lags until they catch up.  A live
        member that lost a block in flight lags too; a read it serves is
        then stale, and validation against :attr:`versions` rejects it.
        """
        for member, state in self.states.items():
            if member not in skip:
                return state
        raise ValidationError(
            f"channel {self.name!r} has no live replica to validate against"
        )

    def replicas_consistent(self) -> bool:
        """True iff every member's replica holds the same snapshot."""
        snapshots = [state.snapshot() for state in self.states.values()]
        return all(s == snapshots[0] for s in snapshots[1:])

    def record_commit(self, tx: Transaction, valid: bool) -> BlockEntry:
        """Record one validated transaction; returns its block entry."""
        if valid:
            for write in tx.writes:
                self.versions[write.key] = (
                    0 if write.is_delete else self.versions.get(write.key, 0) + 1
                )
        entry = BlockEntry(tx, valid, len(self.outcomes))
        self.outcomes[tx.tx_id] = entry
        return entry

    def apply(self, member: str, entry: BlockEntry) -> None:
        """Apply one block entry to *member*'s replica, in commit order
        only: one past a gap (an earlier block lost in flight) or one
        already applied changes nothing, so the member stays behind until
        catch-up."""
        if entry.position != self.applied[member]:
            return
        if entry.valid:
            apply_writes(entry.tx, self.states[member])
        self.applied[member] = entry.position + 1

    @property
    def committed_tx_ids(self) -> list[str]:
        return [tx_id for tx_id, entry in self.outcomes.items() if entry.valid]

    @property
    def invalid_tx_ids(self) -> list[str]:
        return [tx_id for tx_id, entry in self.outcomes.items() if not entry.valid]
