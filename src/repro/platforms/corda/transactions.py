"""Corda wire transactions and filtered transactions (tear-offs).

A wire transaction is a list of component groups — inputs, outputs,
commands, attachments, notary, time window — Merkle-ized so that signers
sign the root and any subset of components can be *torn off* for a party
that must act on the transaction without seeing everything (Section 2.2's
Merkle tree tear-offs; Section 5's oracle scenario).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

from repro.crypto.merkle import MerkleTree, TearOff
from repro.crypto.signatures import Signature
from repro.network.messages import Exposure
from repro.platforms.corda.states import Command, ContractState, StateRef


def _revealed(leaves: list[dict]) -> tuple[set, set, set]:
    """The identities, data keys and contracts Merkle *leaves* reveal: an
    output's participants, data keys and contract, and a command's signers
    that name a party (not a ``key:`` one-time key).  Input refs, the
    notary's name, attachments and the time window reveal nothing."""
    identities, data_keys, code_ids = set(), set(), set()
    for leaf in leaves:
        if leaf["group"] == "outputs":
            identities.update(leaf["participants"])
            data_keys.update(leaf["data"])
            code_ids.add(leaf["contract_id"])
        elif leaf["group"] == "commands":
            identities.update(s for s in leaf["signers"] if not s.startswith("key:"))
    return identities, data_keys, code_ids


class ComponentGroup(enum.Enum):
    """Component group order is fixed so leaf indices are stable."""

    INPUTS = 0
    OUTPUTS = 1
    COMMANDS = 2
    ATTACHMENTS = 3
    NOTARY = 4
    TIME_WINDOW = 5


@dataclass(frozen=True)
class WireTransaction:
    """A full Corda transaction as built by the initiating flow.

    Immutable once built: nothing changes its components, or the dicts
    in its states and commands, after construction.  Its Merkle tree is
    therefore built once per object, and ``tx_id``, ``signing_payload()``
    and ``filtered()`` all read that one tree.
    """

    inputs: tuple[StateRef, ...]
    outputs: tuple[ContractState, ...]
    commands: tuple[Command, ...]
    attachments: tuple[str, ...]
    notary: str
    time_window: float

    def _components(self) -> list[Any]:
        """Flatten component groups into Merkle leaves with stable tags."""
        leaves: list[Any] = []
        for ref in self.inputs:
            leaves.append({"group": "inputs", "tx_id": ref.tx_id, "index": ref.index})
        for state in self.outputs:
            leaves.append({
                "group": "outputs",
                "contract_id": state.contract_id,
                "participants": list(state.participants),
                "data": state.data,
                "owner_key_y": state.owner_key_y,
            })
        for command in self.commands:
            leaves.append({
                "group": "commands",
                "name": command.name,
                "signers": list(command.signers),
                "payload": command.payload,
            })
        for attachment in self.attachments:
            leaves.append({"group": "attachments", "id": attachment})
        leaves.append({"group": "notary", "name": self.notary})
        leaves.append({"group": "time_window", "at": self.time_window})
        return leaves

    @cached_property
    def _tree(self) -> MerkleTree:
        return MerkleTree(self._components())

    @cached_property
    def tx_id(self) -> str:
        """The transaction id IS the Merkle root (as in Corda)."""
        return "corda:" + self._tree.root.hex()[:32]

    def component_indices(self, group: ComponentGroup) -> list[int]:
        """Leaf indices belonging to one component group."""
        sizes = [
            len(self.inputs),
            len(self.outputs),
            len(self.commands),
            len(self.attachments),
            1,  # notary
            1,  # time window
        ]
        start = sum(sizes[: group.value])
        return list(range(start, start + sizes[group.value]))

    def filtered(self, reveal_groups: list[ComponentGroup]) -> "FilteredTransaction":
        """Produce a tear-off revealing only the named component groups."""
        reveal: set[int] = set()
        for group in reveal_groups:
            reveal |= set(self.component_indices(group))
        return FilteredTransaction(
            tx_id=self.tx_id,
            root=self._tree.root,
            tear_off=self._tree.tear_off(reveal),
            revealed_groups=tuple(g.name for g in reveal_groups),
        )

    def signing_payload(self) -> bytes:
        """What every signer signs: the Merkle root."""
        return self._tree.root

    @cached_property
    def exposure(self) -> Exposure:
        """What reading the transaction reveals: its participants and
        legal signers, its output data keys and its contracts."""
        return Exposure.of(*_revealed(self._components()))

    def wire_size(self) -> int:
        """The component encodings the Merkle tree was built from."""
        return self._tree.wire_size()


@dataclass(frozen=True)
class FilteredTransaction:
    """A torn-off view: verifiable against the root, partial visibility."""

    tx_id: str
    root: bytes
    tear_off: TearOff
    revealed_groups: tuple[str, ...]

    def verify(self) -> bool:
        """Check the visible components really belong under the root."""
        return self.tear_off.verify(self.root)

    def visible_components(self) -> list[Any]:
        return [self.tear_off.visible[i] for i in sorted(self.tear_off.visible)]

    def visible_of_group(self, group: str) -> list[Any]:
        return [
            c for c in self.visible_components()
            if isinstance(c, dict) and c.get("group") == group
        ]

    def signing_payload(self) -> bytes:
        """Signing over a tear-off commits to the same root as the full tx."""
        return self.root

    @cached_property
    def exposure(self) -> Exposure:
        """Only what the visible leaves reveal."""
        return Exposure.of(*_revealed(self.visible_components()))

    def wire_size(self) -> int:
        """The tear-off plus the root it verifies against (the id is the
        root's prefix)."""
        return self.tear_off.wire_size() + len(self.root)


@dataclass(frozen=True)
class SignedTransaction:
    """A wire transaction plus the signatures collected over its root.

    Built once, after every signature is in: nothing changes it after.
    """

    wire: WireTransaction
    signatures: dict[str, Signature] = field(default_factory=dict)

    @property
    def exposure(self) -> Exposure:
        """What its wire transaction reveals (the signatures are keyed by
        the same signers)."""
        return self.wire.exposure

    def wire_size(self) -> int:
        return self.wire.wire_size() + sum(
            len(signer) + signature.wire_size()
            for signer, signature in self.signatures.items()
        )
