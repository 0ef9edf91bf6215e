"""Quorum's private transaction manager (Tessera/Constellation stand-in).

Section 5: "Private state and smart contracts are updated through private
transactions that are distributed to all nodes in the network.  However
only a hash of the submitted data is included in the transaction itself.
The parties involved in the transaction receive encrypted data, which
means decryption is required before a party can update their private
state."

Each node runs a manager holding encrypted payloads keyed by hash.  The
sender's manager encrypts the payload once per recipient (pairwise keys
derived from PKI), and each copy travels in that recipient's payload
message; everyone else only ever sees the hash.  Because private *state*
is reconstructed by replaying these payloads, deleting one breaks the
node — the executable reason Quorum's Table 1 off-chain-data cell is '—'.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass

from repro.common.errors import OffChainError, PrivacyError
from repro.common.rng import DeterministicRNG
from repro.common.serialization import from_canonical_json
from repro.crypto.hashing import hkdf, tagged_hash
from repro.crypto.symmetric import Ciphertext, SymmetricKey
from repro.network.messages import Exposure


@dataclass(frozen=True)
class StoredPayload:
    """One encrypted private payload held by a node's manager."""

    payload_hash: str
    ciphertext: Ciphertext
    sender: str
    participants: tuple[str, ...]

    @property
    def exposure(self) -> Exposure:
        """The envelope names the sender and the participants in the
        clear (as a real manager's recipient boxes do); the ciphertext
        reveals nothing."""
        return Exposure.of(identities={self.sender, *self.participants})

    def wire_size(self) -> int:
        """The ciphertext plus the hash it is filed under."""
        return self.ciphertext.wire_size() + len(self.payload_hash)


class PrivateTransactionManager:
    """Per-node encrypted payload store and distribution endpoint."""

    def __init__(self, owner: str, rng: DeterministicRNG | None = None) -> None:
        self.owner = owner
        self._rng = rng or DeterministicRNG("txmanager:" + owner)
        self._payloads: dict[str, StoredPayload] = {}
        # Every pairwise key this manager uses has its owner on one side,
        # so one key per peer, derived on first use, covers them all.
        self._pair_keys: dict[str, SymmetricKey] = {}

    def _pair_key(self, peer: str) -> SymmetricKey:
        """Key shared with *peer* (stand-in for the ECDH-derived key)."""
        key = self._pair_keys.get(peer)
        if key is None:
            first, second = sorted((self.owner, peer))
            key = SymmetricKey(
                hkdf(f"{first}|{second}".encode(), "repro/quorum/pair")
            )
            self._pair_keys[peer] = key
        return key

    def distribute(
        self,
        raw: bytes,
        participants: list[str],
        nodes: Collection[str],
        skip: tuple[str, ...] = (),
    ) -> tuple[str, dict[str, StoredPayload]]:
        """Encrypt the canonically encoded payload *raw* for each participant.

        Every participant must be one of *nodes*, those that run a
        manager.  Returns the payload hash that goes into the public
        transaction, and each other participant's copy, by participant,
        for its payload message to carry.  This manager keeps its own copy.
        Those in *skip* (currently unreachable) are recorded in the
        participant list but get nothing now; :meth:`redeliver` serves
        them later.
        """
        copies: dict[str, StoredPayload] = {}
        payload_hash = tagged_hash("repro/quorum/payload", raw).hex()
        for participant in participants:
            if participant in skip:
                continue
            if participant not in nodes:
                raise PrivacyError(f"no transaction manager for {participant!r}")
            stored = StoredPayload(
                payload_hash=payload_hash,
                ciphertext=self._pair_key(participant).encrypt(raw, self._rng),
                sender=self.owner,
                participants=tuple(participants),
            )
            if participant == self.owner:
                self.receive(stored)
            else:
                copies[participant] = stored
        return payload_hash, copies

    def redeliver(self, payload_hash: str, recipient: str) -> StoredPayload:
        """A fresh copy of a held payload for the entitled peer *recipient*.

        The entitlement gate is the payload's own participant list — a
        manager will never serve a payload to a node that was not a
        party to the original transaction, which is what keeps catch-up
        privacy-preserving.
        """
        stored = self._payloads.get(payload_hash)
        if stored is None:
            raise OffChainError(
                f"{self.owner!r} holds no payload {payload_hash!r}"
            )
        if recipient not in stored.participants:
            raise PrivacyError(
                f"{recipient!r} was not a party to payload "
                f"{payload_hash!r}; refusing redelivery"
            )
        # Decrypt with the original pairwise key, re-encrypt under the
        # redeliverer<->recipient pair so the recipient can resolve it
        # (resolve derives the key from the stored sender, which for a
        # redelivered copy is this manager's owner).
        raw = self._pair_key(stored.sender).decrypt(stored.ciphertext)
        return StoredPayload(
            payload_hash=payload_hash,
            ciphertext=self._pair_key(recipient).encrypt(raw, self._rng),
            sender=self.owner,
            participants=stored.participants,
        )

    def receive(self, stored: StoredPayload) -> None:
        self._payloads[stored.payload_hash] = stored

    def has_payload(self, payload_hash: str) -> bool:
        return payload_hash in self._payloads

    def resolve(self, payload_hash: str) -> dict:
        """Decrypt a payload this node was party to."""
        stored = self._payloads.get(payload_hash)
        if stored is None:
            raise PrivacyError(
                f"{self.owner!r} was not a party to payload {payload_hash!r}"
            )
        key = self._pair_key(stored.sender)
        return from_canonical_json(key.decrypt(stored.ciphertext).decode("utf-8"))

    def delete(self, payload_hash: str) -> None:
        """Remove a payload — and break replayability (see module doc)."""
        if payload_hash not in self._payloads:
            raise OffChainError(f"no payload {payload_hash!r} to delete")
        del self._payloads[payload_hash]

    def payload_hashes(self) -> list[str]:
        return sorted(self._payloads)
