"""ElGamal asymmetric encryption and PKI key transport.

Section 2.2: symmetric keys "commonly get shared over the network using
PKI"; Section 3.2: "transaction data can be encrypted through symmetric or
asymmetric cryptography".  This module combines the two in hybrid **key
wrapping**: a fresh symmetric key is encapsulated to a recipient's public
key (hashed-ElGamal KEM over the shared Schnorr group) so bulk data rides
the symmetric cipher while only the key travels asymmetrically — exactly
the sharing pattern the paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.rng import DeterministicRNG
from repro.crypto.groups import SchnorrGroup, cached_test_group
from repro.crypto.hashing import hkdf
from repro.crypto.signatures import PrivateKey, PublicKey
from repro.crypto.symmetric import Ciphertext, SymmetricKey


@dataclass(frozen=True)
class WrappedKey:
    """A symmetric key encapsulated to a recipient's public key."""

    ephemeral: int          # g^k
    wrapped: Ciphertext     # the key bytes under the KEM-derived key


class ElGamal:
    """Asymmetric encryption over a :class:`SchnorrGroup`.

    Reuses the library's Schnorr key pairs: any onboarded identity's
    signing key doubles as a decryption key (as Corda's confidential
    identities do in practice), so PKI certificates authenticate the very
    keys data is wrapped to.
    """

    def __init__(self, group: SchnorrGroup | None = None) -> None:
        self.group = group or cached_test_group()

    # -- hybrid key transport (hashed-ElGamal KEM + the symmetric cipher)

    def _kem_key(self, ephemeral: int, shared: int) -> SymmetricKey:
        width = (self.group.p.bit_length() + 7) // 8
        material = ephemeral.to_bytes(width, "big") + shared.to_bytes(width, "big")
        return SymmetricKey(hkdf(material, "repro/elgamal/kem"))

    def wrap_key(
        self,
        recipient: PublicKey,
        key: SymmetricKey,
        rng: DeterministicRNG,
    ) -> WrappedKey:
        """Encapsulate a symmetric key to *recipient* (PKI key sharing)."""
        k = self.group.random_scalar(rng)
        ephemeral = self.group.exp(self.group.g, k)
        shared = self.group.exp(recipient.y, k)
        kem = self._kem_key(ephemeral, shared)
        return WrappedKey(
            ephemeral=ephemeral, wrapped=kem.encrypt(key.raw, rng)
        )

    def unwrap_key(self, recipient: PrivateKey, wrapped: WrappedKey) -> SymmetricKey:
        """Recover the transported symmetric key."""
        shared = self.group.exp(wrapped.ephemeral, recipient.x)
        kem = self._kem_key(wrapped.ephemeral, shared)
        return SymmetricKey(kem.decrypt(wrapped.wrapped))


def share_encrypted(
    payload: bytes,
    recipients: dict[str, PublicKey],
    rng: DeterministicRNG,
    group: SchnorrGroup | None = None,
) -> tuple[Ciphertext, dict[str, WrappedKey]]:
    """The paper's full sharing pattern in one call.

    Encrypt *payload* once under a fresh symmetric key, then wrap that key
    to every recipient's certified public key.  Returns the ciphertext
    (broadcastable) and the per-recipient key wraps (point-to-point).
    """
    elgamal = ElGamal(group)
    data_key = SymmetricKey.generate(rng)
    ciphertext = data_key.encrypt(payload, rng)
    wraps = {
        name: elgamal.wrap_key(public, data_key, rng)
        for name, public in sorted(recipients.items())
    }
    return ciphertext, wraps


def receive_encrypted(
    ciphertext: Ciphertext,
    wrapped: WrappedKey,
    key: PrivateKey,
    group: SchnorrGroup | None = None,
) -> bytes:
    """Recipient side of :func:`share_encrypted`."""
    elgamal = ElGamal(group)
    data_key = elgamal.unwrap_key(key, wrapped)
    return data_key.decrypt(ciphertext)
