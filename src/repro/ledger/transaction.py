"""Transactions.

The neutral transaction model shared by every platform simulation.  A
transaction carries a read set, a write set, signer endorsements, and
optional privacy annotations (hash anchors for off-chain data, encrypted
payloads, torn-off component digests).  Platform modules wrap or extend
this with their own semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any

from repro.common.ids import encoded_id
from repro.common.serialization import canonical_bytes
from repro.crypto.hashing import tagged_hash
from repro.crypto.signatures import Signature
from repro.network.messages import Exposure


@dataclass(frozen=True)
class ReadEntry:
    """A key read at a specific committed version (for MVCC validation)."""

    key: str
    version: int


@dataclass(frozen=True)
class WriteEntry:
    """A key/value write.  ``is_delete`` tombstones the key."""

    key: str
    value: Any = None
    is_delete: bool = False


@dataclass(frozen=True)
class Endorsement:
    """One signer's approval of the transaction's canonical content."""

    endorser: str
    signature: Signature

    @property
    def exposure(self) -> Exposure:
        """An endorsement names its endorser (read once, by its reply)."""
        return Exposure.of(identities={self.endorser})

    def wire_size(self) -> int:
        return len(self.endorser) + self.signature.wire_size()


@dataclass(frozen=True)
class Transaction:
    """A proposed ledger update.

    ``channel`` scopes the transaction to a ledger (platform-dependent
    meaning: Fabric channel, Corda transaction universe, Quorum chain).
    ``private_hashes`` maps labels to hex digests anchoring off-chain or
    torn-off data.  ``metadata`` carries platform extensions (e.g. the
    Quorum participant list — which is itself a privacy leak the paper
    calls out, so it lives in plain sight here deliberately).

    A transaction is immutable once built: nothing changes its fields, or
    the dicts they hold, after construction.  Its canonical core bytes
    are therefore encoded once per object, and ``signing_bytes()``,
    ``tx_id`` and ``content_hash()`` all derive from them.  Derived
    copies go through :func:`dataclasses.replace` (which encodes afresh)
    or :meth:`with_endorsements` (which reuses the bytes, because
    endorsements are not part of the core content).
    """

    channel: str
    submitter: str
    reads: tuple[ReadEntry, ...] = ()
    writes: tuple[WriteEntry, ...] = ()
    endorsements: tuple[Endorsement, ...] = ()
    private_hashes: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)
    timestamp: float = 0.0

    def core_content(self) -> dict:
        """The signed/endorsed portion (everything except endorsements)."""
        return {
            "channel": self.channel,
            "submitter": self.submitter,
            "reads": [r.__dict__ for r in self.reads],
            "writes": [w.__dict__ for w in self.writes],
            "private_hashes": self.private_hashes,
            "metadata": self.metadata,
            "timestamp": self.timestamp,
        }

    @cached_property
    def _core_bytes(self) -> bytes:
        return canonical_bytes(self.core_content())

    def signing_bytes(self) -> bytes:
        """Canonical bytes an endorser signs."""
        return self._core_bytes

    @cached_property
    def tx_id(self) -> str:
        return encoded_id("tx", self._core_bytes)

    def with_endorsements(self, endorsements: list[Endorsement]) -> "Transaction":
        """Return a copy carrying the given endorsements."""
        endorsed = replace(
            self,
            endorsements=tuple(endorsements),
            private_hashes=dict(self.private_hashes),
            metadata=dict(self.metadata),
        )
        vars(endorsed)["_core_bytes"] = self._core_bytes
        return endorsed

    @cached_property
    def exposure(self) -> Exposure:
        """What carrying the transaction reveals: its participants (the
        metadata list every reader sees) and the keys it reads and writes."""
        return Exposure.of(
            identities=self.metadata.get("participants", ()),
            data_keys={entry.key for entry in (*self.writes, *self.reads)},
        )

    def wire_size(self) -> int:
        """The signing bytes plus each endorsement."""
        return len(self._core_bytes) + sum(
            endorsement.wire_size() for endorsement in self.endorsements
        )

    def content_hash(self) -> str:
        """Hex digest of the endorsed content (used for hash-only records)."""
        return tagged_hash("repro/tx", self._core_bytes).hex()
