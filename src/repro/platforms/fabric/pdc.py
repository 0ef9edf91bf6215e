"""Private data collections (PDCs).

Section 5 (Fabric): "Confidential data is also possible between sub-groups
of channel participants through Private Data Collections, which allow for
data to be kept off the channel ledger (off-chain) and referenced in
transactions by hash only.  However, members of PDCs are listed in
associated transactions, so this method of confidentiality preservation is
useful only if privacy of interaction is not required within the channel."

A PDC is therefore: a member subset, per-member peer-hosted off-chain
stores, and hash-only ledger references that *do* name the collection
members — the leakage auditor checks that last property explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.common.errors import MembershipError
from repro.offchain.stores import Hosting, OffChainStore, record_anchor


@dataclass
class PrivateDataCollection:
    """A named collection over a subset of channel members."""

    name: str
    members: frozenset[str]
    stores: dict[str, OffChainStore] = field(default_factory=dict)

    @classmethod
    def create(cls, name: str, members: list[str]) -> "PrivateDataCollection":
        member_set = frozenset(members)
        stores = {
            member: OffChainStore(
                name=f"pdc:{name}@{member}",
                hosting=Hosting.PEER,
                authorized=set(member_set),
            )
            for member in member_set
        }
        return cls(name=name, members=member_set, stores=stores)

    def put(self, writer: str, key: str, value: Any, now: float = 0.0) -> str:
        """Store private data on every member peer; returns the hash anchor."""
        if writer not in self.members:
            raise MembershipError(
                f"{writer!r} is not a member of collection {self.name!r}"
            )
        anchor = record_anchor(key, value)
        for store in self.stores.values():
            store.put_anchored(key, value, anchor, now=now)
        return anchor

    def get(self, reader: str, key: str) -> Any:
        """Read private data from the reader's own peer store."""
        if reader not in self.members:
            raise MembershipError(
                f"{reader!r} is not a member of collection {self.name!r}"
            )
        return self.stores[reader].get(key, caller=reader)

    def purge(self, key: str, reason: str, now: float = 0.0) -> None:
        """Delete private data from all member peers (Fabric's purge).

        The on-chain hash anchor remains — the paper's note that deletion
        coexists uneasily with an immutable record is visible here.
        """
        for store in self.stores.values():
            if not store.is_deleted(key):
                store.delete(key, reason=reason, now=now)

    def disclosure(self) -> dict:
        """What a transaction referencing this PDC reveals on-chain:
        the collection name and its member list (paper's caveat)."""
        return {"collection": self.name, "members": sorted(self.members)}
