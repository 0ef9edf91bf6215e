"""Quorum's private transaction manager (Tessera/Constellation stand-in).

Section 5: "Private state and smart contracts are updated through private
transactions that are distributed to all nodes in the network.  However
only a hash of the submitted data is included in the transaction itself.
The parties involved in the transaction receive encrypted data, which
means decryption is required before a party can update their private
state."

Each node runs a manager holding encrypted payloads keyed by hash.  The
sender's manager encrypts the payload once per recipient (pairwise keys
derived from PKI) and serves each one when its payload message is
delivered; everyone else only ever sees the hash.  Because private *state*
is reconstructed by replaying these payloads, deleting one breaks the
node — the executable reason Quorum's Table 1 off-chain-data cell is '—'.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import OffChainError, PrivacyError
from repro.common.rng import DeterministicRNG
from repro.common.serialization import canonical_bytes, from_canonical_json
from repro.crypto.hashing import hkdf, tagged_hash
from repro.crypto.symmetric import Ciphertext, SymmetricKey


@dataclass
class StoredPayload:
    """One encrypted private payload held by a node's manager."""

    payload_hash: str
    ciphertext: Ciphertext
    sender: str
    participants: tuple[str, ...]


class PrivateTransactionManager:
    """Per-node encrypted payload store and distribution endpoint."""

    def __init__(self, owner: str, rng: DeterministicRNG | None = None) -> None:
        self.owner = owner
        self._rng = rng or DeterministicRNG("txmanager:" + owner)
        self._payloads: dict[str, StoredPayload] = {}
        # Every pairwise key this manager uses has its owner on one side,
        # so one key per peer, derived on first use, covers them all.
        self._pair_keys: dict[str, SymmetricKey] = {}
        # Ciphertexts encrypted for a participant whose payload message
        # is still in flight, keyed by (payload hash, participant).
        self._outbox: dict[tuple[str, str], StoredPayload] = {}

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
        payload: dict,
        participants: list[str],
        managers: dict[str, "PrivateTransactionManager"],
        skip: tuple[str, ...] = (),
    ) -> str:
        """Encrypt *payload* for each participant.

        Returns the payload hash that goes into the public transaction.
        This manager keeps its own copy; another participant's waits in
        the outbox until its payload message arrives (:meth:`redeliver`).
        Those in *skip* (currently unreachable) are recorded in the
        participant list but get nothing now; :meth:`redeliver` serves
        them later.  The outbox holds one distribution: each send delivers
        its traffic before the next starts, so an older entry is one whose
        message was dropped.
        """
        self._outbox = {}
        raw = canonical_bytes(payload)
        payload_hash = tagged_hash("repro/quorum/payload", raw).hex()
        for participant in participants:
            if participant in skip:
                continue
            if participant not in managers:
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
                self._outbox[(payload_hash, participant)] = stored
        return payload_hash

    def redeliver(
        self, payload_hash: str, recipient: "PrivateTransactionManager"
    ) -> bool:
        """Serve a held payload to an entitled peer.

        The entitlement gate is the payload's own participant list — a
        manager will never serve a payload to a node that was not a
        party to the original transaction, which is what keeps catch-up
        privacy-preserving.  The copy encrypted for *recipient* at
        distribution is handed over if it is still in the outbox; else
        the payload is re-encrypted for it.  Idempotent: returns False if
        the recipient already holds the payload.
        """
        stored = self._payloads.get(payload_hash)
        if stored is None:
            raise OffChainError(
                f"{self.owner!r} holds no payload {payload_hash!r}"
            )
        if recipient.owner not in stored.participants:
            raise PrivacyError(
                f"{recipient.owner!r} was not a party to payload "
                f"{payload_hash!r}; refusing redelivery"
            )
        if recipient.has_payload(payload_hash):
            return False
        fresh = self._outbox.pop((payload_hash, recipient.owner), None)
        if fresh is None:
            # Decrypt with the original pairwise key, re-encrypt under the
            # redeliverer<->recipient pair so the recipient can resolve it
            # (resolve derives the key from the stored sender, which for a
            # redelivered copy is this manager's owner).
            raw = self._pair_key(stored.sender).decrypt(stored.ciphertext)
            fresh = StoredPayload(
                payload_hash=payload_hash,
                ciphertext=self._pair_key(recipient.owner).encrypt(raw, self._rng),
                sender=self.owner,
                participants=stored.participants,
            )
        recipient.receive(fresh)
        return True

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
