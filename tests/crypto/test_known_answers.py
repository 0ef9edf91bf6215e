"""Known-answer vectors for the library's crypto primitives.

Every platform id, signature and commitment in the library is derived from
the Schnorr primitives over ``cached_test_group()``; every private payload
is encrypted by :class:`SymmetricKey` under HKDF-derived keys.  The group
and signature values below were produced by plain ``pow`` arithmetic, the
cipher nonces and bodies by the per-byte reference cipher; any fast path
that changes a single byte fails here by name before it can shift a ledger
fingerprint or a ciphertext.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.common.rng import DeterministicRNG
from repro.common.serialization import canonical_bytes
from repro.crypto import groups
from repro.crypto.groups import cached_test_group, small_group
from repro.crypto.hashing import hash_hex, hkdf
from repro.crypto.signatures import SignatureScheme
from repro.crypto.symmetric import SymmetricKey
from repro.platforms.quorum.txmanager import PrivateTransactionManager

TEST_GROUP_P = 0x1A4789ADE4DD9BD3B5E64E7D0E3995EC615870D07
TEST_GROUP_Q = 0xD23C4D6F26ECDE9DAF3273E871CCAF630AC38683
TEST_GROUP_G = 0xCA961959396C33B3EFE90BD27283B69179267929
TEST_GROUP_H = 0x4CECE4522FA3EB975FE5270AFA908990728ECEDD
PINNED = ("TEST_GROUP_P", "TEST_GROUP_Q", "TEST_GROUP_G", "TEST_GROUP_H")

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


def test_small_group_derives_the_pinned_group():
    group = small_group()
    vector = (TEST_GROUP_P, TEST_GROUP_Q, TEST_GROUP_G, TEST_GROUP_H)
    assert (group.p, group.q, group.g, group.h) == vector
    assert tuple(getattr(groups, name) for name in PINNED) == vector
    assert cached_test_group() == group


def test_cached_group_loads_without_a_prime_search(monkeypatch):
    def search(*args, **kwargs):
        raise AssertionError("cached_test_group() searched for a prime")

    monkeypatch.setattr(groups, "small_group", search)
    monkeypatch.setattr(groups, "_CACHED_TEST", None)
    group = cached_test_group()
    assert (group.p, group.q, group.g, group.h) == (
        TEST_GROUP_P, TEST_GROUP_Q, TEST_GROUP_G, TEST_GROUP_H,
    )


@pytest.mark.parametrize("bit", [0, 1, 80])
@pytest.mark.parametrize("name", PINNED)
def test_pinned_constant_with_a_flipped_bit_is_refused(monkeypatch, name, bit):
    monkeypatch.setattr(groups, name, getattr(groups, name) ^ (1 << bit))
    monkeypatch.setattr(groups, "_CACHED_TEST", None)
    with pytest.raises(ValueError):
        cached_test_group()


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


# RFC 5869 Appendix A.3: SHA-256, empty salt, empty info.
RFC5869_A3_IKM = b"\x0b" * 22
RFC5869_A3_OKM = bytes.fromhex(
    "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
    "9d201395faa4b61a96c8"
)

#: Plaintext length -> (nonce, SHA-256 of body, tag) for
#: ``SymmetricKey.from_seed("known-answer")`` encrypting
#: ``bytes(i % 251 for i in range(length))`` with nonce source
#: ``DeterministicRNG(f"known-answer/{length}")``.  The lengths straddle
#: the 32-byte keystream block.  Tags bind length-prefixed (empty)
#: associated data.
SYMMETRIC_VECTORS = {
    0: (
        "53259388caa2ab6fac450ed869a8135b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "0df11cb8df74396bad2bc8402c873420883a98745b0d148cd438051afe07255a",
    ),
    1: (
        "59c64c3adac3831901c43c4399dd4ba7",
        "6d90fbacc073ee0b4c43f3a3291cecda33764f6d66d14224ad60f471f2c8334b",
        "30a32d4db033ab91406a6fb5ce5bf7c23341c18c47dcc51643476b4387a76021",
    ),
    31: (
        "329be48f3e760558f5d1c9287188c6fb",
        "f57947537dcc8ef5f321f76bec7590df2b9b68183ed229b7ea89f6f548afda42",
        "43b447f7c29187b27e7e6faafe62cf99f2c7ba74c16c2d889946ca32292ff6cb",
    ),
    32: (
        "49b7dd1375886d9e0de26f4e23eda33c",
        "b268fe0f623ded5442e21c06890bf654e54747fe41765ab7af06c091238d7e30",
        "d94b45dd8a5fc674460ea454e29df2bdbba8d3c44abfb55e31651918bb9801c4",
    ),
    33: (
        "927f8e8f2847203cf49afbe4e9725397",
        "894e2de92a281e0d88bf267f384515e67a0fed4e5b2e30641de96fbe5bcd6530",
        "618413e72db0ba9de052c7972f465960521abc2b01af27fcb2abfe10272bd84d",
    ),
    800: (
        "15251531c1c37406237b0226cfaa94aa",
        "43790a03f44457c4075708a029faf3ac01fe9373651222c6355357cad5d9c232",
        "876015b9f36f54458b4809a399fa5bcfbcfaf2957a689c380d893d22cf2d4fac",
    ),
    4097: (
        "dbe0135344c79a564ebffc059b829085",
        "539f24f800823c15f23ca233f6e312e90f5a6ce2604ba355319405a20a3b60f8",
        "3a031a2b818828f691015485559cd3c8d0c8ccfb574a70154da8c04520b32b49",
    ),
}

#: ``b"pay 100 to bob"`` under associated data ``b"header"``.
SYMMETRIC_AD_VECTOR = (
    "34584ec7bf5d2e396dd6d8b9274e4a8b",
    "9dd800b1bf179cd66412aa57b035",
    "c5297fb790413079025b73f49c2af796eda8721acd3e4aa632ddfa1e358438a3",
)

QUORUM_PAYLOAD = {"amount": 100, "currency": "USD", "to": "bob"}
QUORUM_PAYLOAD_HASH = "e1eaa0c2c56f6e678f5f782ccc4aa9d4d11784ad84af2e2c9c486682656de08a"
#: Nonce and body of the copy ``alice``'s manager encrypts for ``bob``.
QUORUM_BOB_CIPHERTEXT = (
    "0f8de4f11637f9e66dbc10762b40246d",
    "60ba8d2a8d8f434ae5034f1212cabb5336b025117537dd50e474ad6098ce58fd8933e8920a6d906a1a9e",
)


def test_hkdf_rfc5869_case_a3():
    assert hkdf(RFC5869_A3_IKM, "", len(RFC5869_A3_OKM)) == RFC5869_A3_OKM


def _known_answer_ciphertext(length):
    key = SymmetricKey.from_seed("known-answer")
    plaintext = bytes(i % 251 for i in range(length))
    ct = key.encrypt(plaintext, DeterministicRNG(f"known-answer/{length}"))
    assert key.decrypt(ct) == plaintext
    return ct


@pytest.mark.parametrize("length", sorted(SYMMETRIC_VECTORS))
def test_symmetric_nonce_and_body(length):
    ct = _known_answer_ciphertext(length)
    nonce, body_digest, _ = SYMMETRIC_VECTORS[length]
    assert ct.nonce.hex() == nonce
    assert hashlib.sha256(ct.body).hexdigest() == body_digest


@pytest.mark.parametrize("length", sorted(SYMMETRIC_VECTORS))
def test_symmetric_tag(length):
    assert _known_answer_ciphertext(length).tag.hex() == SYMMETRIC_VECTORS[length][2]


def test_symmetric_with_associated_data():
    key = SymmetricKey.from_seed("known-answer")
    ct = key.encrypt(
        b"pay 100 to bob",
        DeterministicRNG("known-answer/ad"),
        associated_data=b"header",
    )
    assert (ct.nonce.hex(), ct.body.hex(), ct.tag.hex()) == SYMMETRIC_AD_VECTOR
    assert key.decrypt(ct, associated_data=b"header") == b"pay 100 to bob"


def test_quorum_payload_hash_and_pair_ciphertext():
    assert hash_hex("repro/quorum/payload", QUORUM_PAYLOAD) == QUORUM_PAYLOAD_HASH
    managers = {
        owner: PrivateTransactionManager(owner) for owner in ("alice", "bob")
    }
    payload_hash, copies = managers["alice"].distribute(
        canonical_bytes(QUORUM_PAYLOAD), ["alice", "bob"], managers
    )
    assert payload_hash == QUORUM_PAYLOAD_HASH
    managers["bob"].receive(copies["bob"])
    stored = managers["bob"]._payloads[payload_hash]
    assert (
        stored.ciphertext.nonce.hex(), stored.ciphertext.body.hex()
    ) == QUORUM_BOB_CIPHERTEXT
    assert managers["bob"].resolve(payload_hash) == QUORUM_PAYLOAD
