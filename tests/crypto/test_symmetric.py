"""Authenticated symmetric cipher: round trips, tamper detection."""

from __future__ import annotations

import hashlib
import hmac

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import DecryptionError
from repro.common.rng import DeterministicRNG
from repro.crypto.hashing import hkdf
from repro.crypto.symmetric import Ciphertext, SymmetricKey


def reference_body(raw_key: bytes, nonce: bytes, plaintext: bytes) -> bytes:
    """The cipher body computed block by block and byte by byte."""
    enc_key = hkdf(raw_key, "repro/sym/enc")
    stream = bytearray()
    counter = 0
    while len(stream) < len(plaintext):
        block = nonce + counter.to_bytes(8, "big")
        stream.extend(hmac.new(enc_key, block, hashlib.sha256).digest())
        counter += 1
    return bytes(p ^ s for p, s in zip(plaintext, stream))


@pytest.fixture
def key():
    return SymmetricKey.from_seed("test-key")


class TestRoundTrip:
    def test_encrypt_decrypt(self, key, rng):
        ct = key.encrypt(b"hello world", rng)
        assert key.decrypt(ct) == b"hello world"

    def test_empty_plaintext(self, key, rng):
        ct = key.encrypt(b"", rng)
        assert key.decrypt(ct) == b""

    def test_ciphertext_differs_from_plaintext(self, key, rng):
        ct = key.encrypt(b"secret-content", rng)
        assert ct.body != b"secret-content"

    def test_fresh_nonce_per_encryption(self, key, rng):
        a = key.encrypt(b"same", rng)
        b = key.encrypt(b"same", rng)
        assert a.nonce != b.nonce
        assert a.body != b.body

    def test_associated_data_binds(self, key, rng):
        ct = key.encrypt(b"payload", rng, associated_data=b"header-1")
        assert key.decrypt(ct, associated_data=b"header-1") == b"payload"
        with pytest.raises(DecryptionError):
            key.decrypt(ct, associated_data=b"header-2")


class TestTamperDetection:
    def test_flipped_body_bit(self, key, rng):
        ct = key.encrypt(b"payload", rng)
        tampered = Ciphertext(
            nonce=ct.nonce,
            body=bytes([ct.body[0] ^ 1]) + ct.body[1:],
            tag=ct.tag,
        )
        with pytest.raises(DecryptionError):
            key.decrypt(tampered)

    def test_flipped_nonce(self, key, rng):
        ct = key.encrypt(b"payload", rng)
        tampered = Ciphertext(
            nonce=bytes([ct.nonce[0] ^ 1]) + ct.nonce[1:],
            body=ct.body, tag=ct.tag,
        )
        with pytest.raises(DecryptionError):
            key.decrypt(tampered)

    def test_wrong_key(self, key, rng):
        other = SymmetricKey.from_seed("other-key")
        ct = key.encrypt(b"payload", rng)
        with pytest.raises(DecryptionError):
            other.decrypt(ct)


class TestAssociatedDataFraming:
    """The tag must fix where the body ends and the associated data begins."""

    def test_body_suffix_cannot_pass_as_associated_data(self, key, rng):
        ct = key.encrypt(b"pay 100 to bob", rng)
        truncated = Ciphertext(nonce=ct.nonce, body=ct.body[:-4], tag=ct.tag)
        with pytest.raises(DecryptionError):
            key.decrypt(truncated, associated_data=ct.body[-4:])

    def test_associated_data_cannot_pass_as_body(self, key, rng):
        ct = key.encrypt(b"payload", rng, associated_data=b"hdr")
        extended = Ciphertext(nonce=ct.nonce, body=ct.body + b"hdr", tag=ct.tag)
        with pytest.raises(DecryptionError):
            key.decrypt(extended)

    def test_nonce_of_wrong_length_rejected(self, key, rng):
        ct = key.encrypt(b"payload", rng)
        shifted = Ciphertext(nonce=ct.nonce + ct.body[:1], body=ct.body[1:], tag=ct.tag)
        with pytest.raises(DecryptionError):
            key.decrypt(shifted)


class TestKeyManagement:
    def test_key_size_enforced(self):
        with pytest.raises(ValueError):
            SymmetricKey(b"short")

    def test_from_seed_deterministic(self):
        assert SymmetricKey.from_seed("s").raw == SymmetricKey.from_seed("s").raw

    def test_generate_uses_rng(self):
        a = SymmetricKey.generate(DeterministicRNG("k"))
        b = SymmetricKey.generate(DeterministicRNG("k"))
        assert a.raw == b.raw

    def test_raw_exposes_shareable_key(self, key, rng):
        # Wrapping workflow: share raw key, reconstruct, decrypt.
        reconstructed = SymmetricKey(key.raw)
        ct = key.encrypt(b"shared", rng)
        assert reconstructed.decrypt(ct) == b"shared"

    def test_size_accounting(self, key, rng):
        ct = key.encrypt(b"x" * 100, rng)
        assert ct.size() == len(ct.nonce) + 100 + len(ct.tag)


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.binary(max_size=512))
    def test_round_trip_property(self, plaintext):
        key = SymmetricKey.from_seed("prop")
        rng = DeterministicRNG("prop-rng")
        assert key.decrypt(key.encrypt(plaintext, rng)) == plaintext

    @settings(max_examples=50, deadline=None)
    @given(st.binary(max_size=512))
    def test_body_matches_reference(self, plaintext):
        key = SymmetricKey.from_seed("prop")
        ct = key.encrypt(plaintext, DeterministicRNG("prop-rng"))
        assert ct.body == reference_body(key.raw, ct.nonce, plaintext)
