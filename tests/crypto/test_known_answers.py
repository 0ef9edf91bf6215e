"""Known-answer vectors for the Schnorr group and signatures.

Every platform id, signature and commitment in the library is derived from
these primitives over ``cached_test_group()``.  The values below were
produced by plain ``pow`` arithmetic; any fast path that changes a single
byte fails here by name before it can shift a ledger fingerprint.
"""

from __future__ import annotations

import pytest

from repro.crypto.groups import cached_test_group
from repro.crypto.signatures import SignatureScheme

TEST_GROUP_P = 0x1A4789ADE4DD9BD3B5E64E7D0E3995EC615870D07

KEYGEN_PUBLIC_KEYS = {
    "alice": 0xEA8514A52D966499AE368B608FD759DC5F1FAC14,
    "bob": 0xEC81A640B0D80DC70F619CBF4D56411B1DBA3A1F,
    "orderer": 0x710E096FAF043CFFC22921769A3BD1DCDAB24586,
}

SIGN_ALICE_MESSAGE = b"known-answer message"
SIGN_ALICE_CHALLENGE = 0x2AF3AAEF09380B9724D119478744CA1DBFA119AB
SIGN_ALICE_RESPONSE = 0x51B2C3EC5CCF393C886785E778B8138370F18F3

COMMIT_42_1234567890123 = 0x775DE1E0F13476D8BAF516242CC5F472131C2E99

HASH_TO_SCALAR_PAYLOAD = 0x69E855C5DD83B88C7CC804F9255D6F658FECF8CA


@pytest.fixture(scope="module")
def scheme() -> SignatureScheme:
    return SignatureScheme()


def test_platform_group_is_the_160_bit_test_group(scheme):
    assert scheme.group is cached_test_group()
    assert scheme.group.p == TEST_GROUP_P
    assert scheme.group.q.bit_length() == 160


@pytest.mark.parametrize("seed", sorted(KEYGEN_PUBLIC_KEYS))
def test_keygen_from_seed_public_key(scheme, seed):
    assert scheme.keygen_from_seed(seed).public.y == KEYGEN_PUBLIC_KEYS[seed]


def test_sign_challenge_and_response(scheme):
    sig = scheme.sign(scheme.keygen_from_seed("alice"), SIGN_ALICE_MESSAGE)
    assert (sig.challenge, sig.response) == (SIGN_ALICE_CHALLENGE, SIGN_ALICE_RESPONSE)


def test_known_signature_verifies_from_a_cold_scheme():
    scheme = SignatureScheme()
    key = scheme.keygen_from_seed("alice")
    sig = scheme.sign(key, SIGN_ALICE_MESSAGE)
    assert scheme.verify(key.public, SIGN_ALICE_MESSAGE, sig)
    assert not scheme.verify(key.public, SIGN_ALICE_MESSAGE + b"!", sig)


def test_pedersen_commit():
    assert cached_test_group().commit(42, 1234567890123) == COMMIT_42_1234567890123


def test_hash_to_scalar():
    group = cached_test_group()
    assert group.hash_to_scalar("repro/test/known-answer", b"payload") == HASH_TO_SCALAR_PAYLOAD
