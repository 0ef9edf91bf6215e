"""ElGamal: element encryption, re-randomization, hybrid key transport."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import DecryptionError
from repro.common.rng import DeterministicRNG
from repro.crypto.elgamal import (
    ElGamal,
    receive_encrypted,
    share_encrypted,
)
from repro.crypto.symmetric import SymmetricKey


@pytest.fixture
def elgamal(group):
    return ElGamal(group)


@pytest.fixture
def alice(scheme):
    return scheme.keygen_from_seed("elgamal-alice")


@pytest.fixture
def bob(scheme):
    return scheme.keygen_from_seed("elgamal-bob")


class TestElementEncryption:
    def test_round_trip(self, elgamal, alice, rng):
        element = elgamal.group.exp(elgamal.group.g, 777)
        ct = elgamal.encrypt_element(alice.public, element, rng)
        assert elgamal.decrypt_element(alice, ct) == element

    def test_wrong_key_garbles(self, elgamal, alice, bob, rng):
        element = elgamal.group.exp(elgamal.group.g, 777)
        ct = elgamal.encrypt_element(alice.public, element, rng)
        assert elgamal.decrypt_element(bob, ct) != element

    def test_probabilistic(self, elgamal, alice, rng):
        element = elgamal.group.exp(elgamal.group.g, 777)
        a = elgamal.encrypt_element(alice.public, element, rng)
        b = elgamal.encrypt_element(alice.public, element, rng)
        assert (a.c1, a.c2) != (b.c1, b.c2)

    def test_non_element_rejected(self, elgamal, alice, rng):
        with pytest.raises(DecryptionError, match="subgroup"):
            elgamal.encrypt_element(alice.public, 0, rng)

    def test_rerandomize_unlinkable_same_plaintext(self, elgamal, alice, rng):
        element = elgamal.group.exp(elgamal.group.g, 42)
        ct = elgamal.encrypt_element(alice.public, element, rng)
        fresh = elgamal.rerandomize(alice.public, ct, rng)
        assert (fresh.c1, fresh.c2) != (ct.c1, ct.c2)
        assert elgamal.decrypt_element(alice, fresh) == element


class TestKeyTransport:
    def test_wrap_unwrap(self, elgamal, alice, rng):
        key = SymmetricKey.from_seed("transport")
        wrapped = elgamal.wrap_key(alice.public, key, rng)
        assert elgamal.unwrap_key(alice, wrapped).raw == key.raw

    def test_wrong_recipient_cannot_unwrap(self, elgamal, alice, bob, rng):
        key = SymmetricKey.from_seed("transport")
        wrapped = elgamal.wrap_key(alice.public, key, rng)
        with pytest.raises(DecryptionError):
            elgamal.unwrap_key(bob, wrapped)

    def test_key_bytes_not_visible_in_wrap(self, elgamal, alice, rng):
        key = SymmetricKey.from_seed("transport")
        wrapped = elgamal.wrap_key(alice.public, key, rng)
        assert key.raw not in wrapped.wrapped.body


class TestSharingPattern:
    def test_multi_recipient_sharing(self, alice, bob, rng, group):
        payload = b"confidential agreement"
        ct, wraps = share_encrypted(
            payload,
            {"alice": alice.public, "bob": bob.public},
            rng,
            group=group,
        )
        assert receive_encrypted(ct, wraps["alice"], alice, group=group) == payload
        assert receive_encrypted(ct, wraps["bob"], bob, group=group) == payload

    def test_non_recipient_locked_out(self, alice, bob, scheme, rng, group):
        mallory = scheme.keygen_from_seed("elgamal-mallory")
        ct, wraps = share_encrypted(
            b"secret", {"alice": alice.public}, rng, group=group
        )
        with pytest.raises(DecryptionError):
            receive_encrypted(ct, wraps["alice"], mallory, group=group)

    def test_single_ciphertext_many_wraps(self, scheme, rng, group):
        recipients = {
            f"org{i}": scheme.keygen_from_seed(f"share-{i}").public
            for i in range(5)
        }
        ct, wraps = share_encrypted(b"x" * 1000, recipients, rng, group=group)
        assert len(wraps) == 5
        # One payload ciphertext regardless of recipient count.
        assert ct.wire_size() < 1100

    @settings(max_examples=15, deadline=None)
    @given(st.binary(min_size=1, max_size=256))
    def test_round_trip_property(self, payload):
        from repro.crypto.signatures import SignatureScheme

        scheme = SignatureScheme()
        key = scheme.keygen_from_seed("prop")
        rng = DeterministicRNG(payload)
        ct, wraps = share_encrypted(payload, {"p": key.public}, rng)
        assert receive_encrypted(ct, wraps["p"], key) == payload
