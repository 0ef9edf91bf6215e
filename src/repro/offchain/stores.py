"""Off-chain data stores.

Section 2.2: "private data can be kept in an off-chain database.  This can
either be natively integrated and hosted on a peer (peer off-chain), or be
kept separate from the DLT layer entirely.  Transactions on the ledger can
contain a hash of the off-chain data to provide authoritative evidence...
Storing data off-chain has the additional property of enabling data to be
deleted, for example, if required by law."

Two store flavors (peer-hosted vs external) share one implementation with a
``hosting`` tag; the anchoring helpers connect stored records to on-chain
hash references, and deletion leaves an auditable tombstone so the
"contradiction with an immutable record" the paper notes is visible in the
API: the anchor remains, the data is gone.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any

from repro.common.errors import (
    AnchorMismatchError,
    DataDeletedError,
    OffChainError,
)
from repro.crypto.hashing import hash_hex


class Hosting(enum.Enum):
    """Where the off-chain store physically lives."""

    PEER = "peer"          # natively integrated, hosted on a ledger peer
    EXTERNAL = "external"  # entirely separate from the DLT layer


@dataclass
class Tombstone:
    """Audit record left behind by a deletion (e.g. a GDPR erasure)."""

    key: str
    anchor: str
    deleted_at: float
    reason: str


@dataclass
class StoredRecord:
    """A private record plus the hash that may be anchored on-chain."""

    key: str
    value: Any
    anchor: str
    stored_at: float


class OffChainStore:
    """Hash-anchored private data store with true deletion.

    Access control: ``authorized`` is the set of party names allowed to
    read.  (Enforcement is cooperative in the simulation, but platforms
    route all reads through :meth:`get` with a caller name, so the leakage
    auditor sees attempted violations.)
    """

    def __init__(
        self,
        name: str,
        hosting: Hosting = Hosting.PEER,
        authorized: set[str] | None = None,
    ) -> None:
        self.name = name
        self.hosting = hosting
        self.authorized = set(authorized or set())
        self._records: dict[str, StoredRecord] = {}
        self._tombstones: dict[str, Tombstone] = {}
        self.denied_reads: list[tuple[str, str]] = []

    def _check_access(self, caller: str) -> None:
        if self.authorized and caller not in self.authorized:
            self.denied_reads.append((caller, self.name))
            raise OffChainError(
                f"{caller!r} is not authorized to read store {self.name!r}"
            )

    def put(self, key: str, value: Any, now: float = 0.0) -> str:
        """Store a record; returns the hash anchor to embed on-chain."""
        anchor = hash_hex("repro/offchain", {"key": key, "value": value})
        self._records[key] = StoredRecord(
            key=key, value=value, anchor=anchor, stored_at=now
        )
        self._tombstones.pop(key, None)
        return anchor

    def get(self, key: str, caller: str) -> Any:
        """Read a record as *caller*; raises if deleted or unauthorized."""
        self._check_access(caller)
        if key in self._tombstones:
            raise DataDeletedError(
                f"record {key!r} was deleted "
                f"({self._tombstones[key].reason})"
            )
        record = self._records.get(key)
        if record is None:
            raise OffChainError(f"no record {key!r} in store {self.name!r}")
        return record.value

    def verify_anchor(self, key: str, anchor: str, caller: str) -> bool:
        """Check stored data still matches an on-chain anchor.

        This is the 'authoritative evidence and accompanying audit trail'
        property: involved parties verify provenance of private data.
        """
        value = self.get(key, caller)
        expected = hash_hex("repro/offchain", {"key": key, "value": value})
        if expected != anchor:
            raise AnchorMismatchError(
                f"off-chain record {key!r} no longer matches its anchor"
            )
        return True

    def delete(self, key: str, reason: str, now: float = 0.0) -> Tombstone:
        """Erase a record (GDPR right-to-be-forgotten), leaving a tombstone."""
        record = self._records.pop(key, None)
        if record is None:
            raise OffChainError(f"no record {key!r} to delete")
        tombstone = Tombstone(
            key=key, anchor=record.anchor, deleted_at=now, reason=reason
        )
        self._tombstones[key] = tombstone
        return tombstone

    def is_deleted(self, key: str) -> bool:
        return key in self._tombstones

    def keys(self) -> list[str]:
        return sorted(self._records)

    def tombstones(self) -> list[Tombstone]:
        return [self._tombstones[k] for k in sorted(self._tombstones)]
