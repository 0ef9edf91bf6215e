"""Schnorr signatures: correctness, tamper resistance, determinism."""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.crypto.signatures as signatures_module
from repro.common.rng import DeterministicRNG
from repro.crypto.signatures import PublicKey, Signature, SignatureScheme


@pytest.fixture
def keypair(scheme, rng):
    return scheme.keygen(rng)


class TestSignVerify:
    def test_valid_signature_verifies(self, scheme, keypair):
        sig = scheme.sign(keypair, b"message")
        assert scheme.verify(keypair.public, b"message", sig)

    def test_wrong_message_fails(self, scheme, keypair):
        sig = scheme.sign(keypair, b"message")
        assert not scheme.verify(keypair.public, b"other", sig)

    def test_wrong_key_fails(self, scheme, keypair, rng):
        other = scheme.keygen(rng)
        sig = scheme.sign(keypair, b"message")
        assert not scheme.verify(other.public, b"message", sig)

    def test_tampered_challenge_fails(self, scheme, keypair):
        sig = scheme.sign(keypair, b"message")
        bad = Signature(challenge=(sig.challenge + 1) % scheme.group.q,
                        response=sig.response)
        assert not scheme.verify(keypair.public, b"message", bad)

    def test_tampered_response_fails(self, scheme, keypair):
        sig = scheme.sign(keypair, b"message")
        bad = Signature(challenge=sig.challenge,
                        response=(sig.response + 1) % scheme.group.q)
        assert not scheme.verify(keypair.public, b"message", bad)

    def test_out_of_range_signature_rejected(self, scheme, keypair):
        bad = Signature(challenge=scheme.group.q, response=0)
        assert not scheme.verify(keypair.public, b"m", bad)

    def test_key_outside_subgroup_rejected(self, scheme, keypair):
        sig = scheme.sign(keypair, b"m")
        # p-1 has order 2, not q: never a valid public key.
        assert not scheme.verify(PublicKey(y=scheme.group.p - 1), b"m", sig)

    def test_empty_message(self, scheme, keypair):
        sig = scheme.sign(keypair, b"")
        assert scheme.verify(keypair.public, b"", sig)


class TestDeterminism:
    def test_signing_is_deterministic(self, scheme, keypair):
        assert scheme.sign(keypair, b"m") == scheme.sign(keypair, b"m")

    def test_nonce_differs_per_message(self, scheme, keypair):
        a = scheme.sign(keypair, b"m1")
        b = scheme.sign(keypair, b"m2")
        assert a != b

    def test_keygen_from_seed_stable(self, scheme):
        assert scheme.keygen_from_seed("alice").x == scheme.keygen_from_seed("alice").x

    def test_keygen_from_seed_distinct(self, scheme):
        assert scheme.keygen_from_seed("alice").x != scheme.keygen_from_seed("bob").x

    def test_fingerprint_stable_and_short(self, scheme, keypair):
        assert keypair.public.fingerprint() == keypair.public.fingerprint()
        assert len(keypair.public.fingerprint()) == 16


class TestProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.binary(max_size=128))
    def test_sign_verify_round_trip(self, message):
        scheme = SignatureScheme()
        key = scheme.keygen_from_seed("prop")
        assert scheme.verify(key.public, message, scheme.sign(key, message))

    @settings(max_examples=20, deadline=None)
    @given(st.binary(min_size=1, max_size=64), st.binary(min_size=1, max_size=64))
    def test_cross_message_rejection(self, m1, m2):
        if m1 == m2:
            return
        scheme = SignatureScheme()
        key = scheme.keygen_from_seed("prop")
        assert not scheme.verify(key.public, m2, scheme.sign(key, m1))


class TestVerifyCache:
    def test_repeat_verification_hits_cache(self, scheme, keypair):
        sig = scheme.sign(keypair, b"message")
        assert scheme.verify(keypair.public, b"message", sig)
        before = scheme.cache_info()
        assert scheme.verify(keypair.public, b"message", sig)
        after = scheme.cache_info()
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]

    def test_negative_results_are_cached_too(self, scheme, keypair):
        sig = scheme.sign(keypair, b"message")
        assert not scheme.verify(keypair.public, b"other", sig)
        hits = scheme.cache_info()["hits"]
        assert not scheme.verify(keypair.public, b"other", sig)
        assert scheme.cache_info()["hits"] == hits + 1

    def test_forged_signature_cannot_alias_cached_true(self, scheme, keypair):
        """The full signature is in the cache key: warming the cache with
        the genuine signature must not make a tampered one pass."""
        sig = scheme.sign(keypair, b"message")
        assert scheme.verify(keypair.public, b"message", sig)
        forged = Signature(challenge=sig.challenge,
                           response=(sig.response + 1) % scheme.group.q)
        assert not scheme.verify(keypair.public, b"message", forged)

    def test_other_message_misses_the_cache(self, scheme, keypair):
        """The message is in the cache key: the same key and signature
        over different bytes is verified afresh, and fails."""
        sig = scheme.sign(keypair, b"message")
        assert scheme.verify(keypair.public, b"message", sig)
        misses = scheme.cache_info()["misses"]
        assert not scheme.verify(keypair.public, b"messagf", sig)
        assert scheme.cache_info()["misses"] == misses + 1

    def test_other_key_cannot_alias_cached_true(self, scheme, keypair, rng):
        sig = scheme.sign(keypair, b"message")
        assert scheme.verify(keypair.public, b"message", sig)
        other = scheme.keygen(rng)
        assert not scheme.verify(other.public, b"message", sig)

    def test_reset_cache_zeroes_counters(self, scheme, keypair):
        sig = scheme.sign(keypair, b"message")
        scheme.verify(keypair.public, b"message", sig)
        scheme.verify(keypair.public, b"message", sig)
        scheme.reset_cache()
        assert scheme.cache_info() == {"hits": 0, "misses": 0, "size": 0}
        # Next verification is a miss again, and still correct.
        assert scheme.verify(keypair.public, b"message", sig)
        assert scheme.cache_info()["misses"] == 1

    def test_eviction_keeps_cache_bounded(self, scheme, keypair, monkeypatch):
        monkeypatch.setattr(signatures_module, "VERIFY_CACHE_MAX", 8)
        for n in range(25):
            message = f"m{n}".encode()
            scheme.verify(keypair.public, message, scheme.sign(keypair, message))
        assert scheme.cache_info()["size"] <= 8
        # Entries that survived (or are re-inserted) still verify correctly.
        sig = scheme.sign(keypair, b"m24")
        assert scheme.verify(keypair.public, b"m24", sig)


def _forge_for_identity_key(scheme, message, k=12345):
    """A 'signature' under y = 1: with y^-e = 1, R = g^s, so s = k works."""
    commitment = scheme.group.exp(scheme.group.g, k)
    challenge = scheme._challenge(commitment, PublicKey(y=1), message)
    return Signature(challenge=challenge, response=k)


class TestIdentityKeyForgery:
    def test_identity_key_signature_rejected(self):
        scheme = SignatureScheme()
        message = b"pay 1000 to mallory"
        forged = _forge_for_identity_key(scheme, message)
        assert not scheme.verify(PublicKey(y=1), message, forged)

    def test_identity_key_rejected_on_every_message(self):
        scheme = SignatureScheme()
        for n in range(3):
            message = f"forged {n}".encode()
            forged = _forge_for_identity_key(scheme, message, k=n + 1)
            assert not scheme.verify(PublicKey(y=1), message, forged)
        assert 1 not in scheme._key_tables


class TestSubgroupMemo:
    """Each key pays the subgroup check once; failures are never remembered."""

    def test_member_key_checked_once(self, keypair, monkeypatch):
        scheme = SignatureScheme()
        calls = []
        contains = type(scheme.group).contains
        monkeypatch.setattr(type(scheme.group), "contains",
                            lambda group, y: calls.append(y) or contains(group, y))
        for n in range(4):
            message = f"m{n}".encode()
            assert scheme.verify(keypair.public, message, scheme.sign(keypair, message))
        assert calls == [keypair.public.y]
        assert list(scheme._key_tables) == [keypair.public.y]

    def test_non_member_rejected_every_time_and_never_memoized(self, keypair):
        scheme = SignatureScheme()
        outsider = PublicKey(y=scheme.group.p - 1)  # order 2, not q
        for n in range(4):
            message = f"m{n}".encode()
            sig = scheme.sign(keypair, message)
            assert not scheme.verify(outsider, message, sig)
            assert not scheme.verify(outsider, message, sig)  # cached False
            assert outsider.y not in scheme._key_tables
        assert scheme._key_tables == {}

    def test_reset_cache_empties_memo(self, keypair):
        scheme = SignatureScheme()
        scheme.verify(keypair.public, b"m", scheme.sign(keypair, b"m"))
        assert scheme._key_tables
        scheme.reset_cache()
        assert scheme._key_tables == {}
        assert scheme.verify(keypair.public, b"m", scheme.sign(keypair, b"m"))


class TestKeyTables:
    """A checked key's 4-bit comb table replaces pow for y^-e, exactly."""

    def test_table_exponent_matches_pow(self, keypair):
        group = SignatureScheme().group
        q, p, y = group.q, group.p, keypair.public.y
        table = group.comb(y, signatures_module.KEY_TABLE_WIDTH)
        exponents = [0, 1, 2, 15, 16, 17, q - 1, q, q + 1, 2 * q + 7,
                     -1, -2, -(q - 1), -q, -(q + 1)]
        draws = DeterministicRNG("key-table-exponents")
        exponents += [draws.randint_below(1 << 200) - (1 << 199) for __ in range(40)]
        for exponent in exponents:
            assert group.comb_exp(table, exponent) == pow(y, exponent % q, p)

    def test_table_shape_and_size(self, keypair):
        group = SignatureScheme().group
        table = group.comb(keypair.public.y, signatures_module.KEY_TABLE_WIDTH)
        assert len(table) == 40 and {len(row) for row in table} == {16}
        size = sys.getsizeof(table) + sum(
            sys.getsizeof(row) + sum(sys.getsizeof(v) for v in row[1:]) for row in table
        )
        assert size <= 36 * 1024

    def test_comb_rejects_other_widths(self, keypair):
        group = SignatureScheme().group
        for width in (0, 3, 5, 16):
            with pytest.raises(ValueError):
                group.comb(keypair.public.y, width)

    def test_table_only_after_subgroup_check(self, keypair):
        scheme = SignatureScheme()
        group = scheme.group
        sig = scheme.sign(keypair, b"m")
        identity_forgery = _forge_for_identity_key(scheme, b"m")
        assert not scheme.verify(PublicKey(y=1), b"m", identity_forgery)
        assert not scheme.verify(PublicKey(y=group.p - 1), b"m", sig)
        assert scheme._key_tables == {}
        assert scheme.verify(keypair.public, b"m", sig)
        assert scheme._key_tables == {
            keypair.public.y: group.comb(keypair.public.y, signatures_module.KEY_TABLE_WIDTH)
        }

    def test_table_built_once_per_key(self, keypair, monkeypatch):
        scheme = SignatureScheme()
        builds = []
        comb = type(scheme.group).comb
        monkeypatch.setattr(type(scheme.group), "comb",
                            lambda group, base, width: builds.append(base) or comb(group, base, width))
        for n in range(4):
            message = f"m{n}".encode()
            assert scheme.verify(keypair.public, message, scheme.sign(keypair, message))
        assert builds == [keypair.public.y]

    def test_memo_bounded_by_key_table_max(self, monkeypatch):
        monkeypatch.setattr(signatures_module, "KEY_TABLE_MAX", 4)
        scheme = SignatureScheme()
        for n in range(11):
            key = scheme.keygen_from_seed(f"memo-{n}")
            assert scheme.verify(key.public, b"m", scheme.sign(key, b"m"))
            assert len(scheme._key_tables) <= 4
        assert key.public.y in scheme._key_tables
        # The verify cache keeps its own, larger bound.
        assert scheme.cache_info()["size"] == 11

    def test_tampered_signature_rejected_on_tabled_key(self, keypair):
        scheme = SignatureScheme()
        q = scheme.group.q
        sig = scheme.sign(keypair, b"message")
        assert scheme.verify(keypair.public, b"message", sig)
        assert keypair.public.y in scheme._key_tables
        for forged in (
            Signature(challenge=(sig.challenge + 1) % q, response=sig.response),
            Signature(challenge=sig.challenge, response=(sig.response + 1) % q),
            Signature(challenge=sig.response, response=sig.challenge),
        ):
            assert not scheme.verify(keypair.public, b"message", forged)
        assert not scheme.verify(keypair.public, b"other", sig)
