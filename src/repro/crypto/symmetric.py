"""Authenticated symmetric encryption.

Stand-in for AES-GCM (the paper's Section 2.2 "symmetric key encryption"
mechanism).  The construction is encrypt-then-MAC over an HMAC-SHA-256
keystream: honest in its security goals (confidentiality + integrity under a
shared key), pure Python, and deterministic given the caller-supplied nonce.
The tag is HMAC over ``nonce || len(ad) || ad || body`` with an 8-byte
length.

The design guide only relies on the *trust model* of symmetric encryption —
holders of the key can read, everyone else sees ciphertext — which this
construction provides.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import DecryptionError
from repro.common.rng import DeterministicRNG
from repro.crypto.hashing import DIGEST_SIZE, constant_time_equal, hkdf, hmac_sha256

KEY_SIZE = 32
NONCE_SIZE = 16
TAG_SIZE = 32


@dataclass(frozen=True)
class Ciphertext:
    """Nonce, encrypted payload, and authentication tag."""

    nonce: bytes
    body: bytes
    tag: bytes

    def size(self) -> int:
        """Total wire size in bytes."""
        return len(self.nonce) + len(self.body) + len(self.tag)


class SymmetricKey:
    """A 256-bit shared key with encrypt/decrypt operations."""

    def __init__(self, key: bytes) -> None:
        if len(key) != KEY_SIZE:
            raise ValueError(f"key must be {KEY_SIZE} bytes")
        self._enc_key = hkdf(key, "repro/sym/enc")
        self._mac_key = hkdf(key, "repro/sym/mac")
        self._raw = key

    @classmethod
    def generate(cls, rng: DeterministicRNG) -> "SymmetricKey":
        """Draw a fresh key from the randomness source."""
        return cls(rng.randbytes(KEY_SIZE))

    @classmethod
    def from_seed(cls, seed: str) -> "SymmetricKey":
        """Derive a key deterministically from a string seed."""
        return cls(hkdf(seed.encode("utf-8"), "repro/sym/seed"))

    @property
    def raw(self) -> bytes:
        """Raw key bytes (needed to wrap/share the key over PKI)."""
        return self._raw

    def _keystream_xor(self, nonce: bytes, data: bytes) -> bytes:
        blocks = -(-len(data) // DIGEST_SIZE)
        stream = b"".join(
            hmac_sha256(self._enc_key, nonce + counter.to_bytes(8, "big"))
            for counter in range(blocks)
        )[: len(data)]
        mixed = int.from_bytes(data, "big") ^ int.from_bytes(stream, "big")
        return mixed.to_bytes(len(data), "big")

    def _tag(self, nonce: bytes, body: bytes, associated_data: bytes) -> bytes:
        # The associated data is length-prefixed: unframed, the last bytes
        # of a body could be re-read as associated data, so a truncated
        # ciphertext would authenticate under a different split.  The
        # framing is unambiguous only for NONCE_SIZE nonces, which decrypt
        # enforces.
        framed = len(associated_data).to_bytes(8, "big") + associated_data
        return hmac_sha256(self._mac_key, nonce + framed + body)

    def encrypt(
        self,
        plaintext: bytes,
        rng: DeterministicRNG,
        associated_data: bytes = b"",
    ) -> Ciphertext:
        """Encrypt and authenticate *plaintext* (and bind associated data)."""
        nonce = rng.randbytes(NONCE_SIZE)
        body = self._keystream_xor(nonce, plaintext)
        return Ciphertext(
            nonce=nonce, body=body, tag=self._tag(nonce, body, associated_data)
        )

    def decrypt(self, ct: Ciphertext, associated_data: bytes = b"") -> bytes:
        """Authenticate and decrypt; raises :class:`DecryptionError` on tamper."""
        if len(ct.nonce) != NONCE_SIZE or not constant_time_equal(
            self._tag(ct.nonce, ct.body, associated_data), ct.tag
        ):
            raise DecryptionError("authentication tag mismatch")
        return self._keystream_xor(ct.nonce, ct.body)
