"""Hashing, HKDF, domain separation."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.crypto.hashing import (
    constant_time_equal,
    hash_hex,
    hash_value,
    hkdf,
    hmac_sha256,
    sha256,
    tagged_hash,
)


class TestTaggedHash:
    def test_deterministic(self):
        assert tagged_hash("t", b"data") == tagged_hash("t", b"data")

    def test_domain_separation(self):
        assert tagged_hash("a", b"data") != tagged_hash("b", b"data")

    def test_differs_from_plain_sha256(self):
        assert tagged_hash("t", b"data") != sha256(b"data")

    def test_digest_size(self):
        assert len(tagged_hash("t", b"")) == 32

    @pytest.mark.parametrize(
        "tag", ["t", "repro/tx", "repro/merkle/leaf", "", "tag/\u00e9"]
    )
    def test_known_answer(self, tag):
        tag_digest = hashlib.sha256(tag.encode("utf-8")).digest()
        # Repeated calls under one tag must not share hash state.
        for data in (b"", b"data", b"data", b"x" * 200):
            expected = hashlib.sha256(tag_digest * 2 + data).digest()
            assert tagged_hash(tag, data) == expected

    @given(st.binary(max_size=256), st.binary(max_size=256))
    def test_no_cross_tag_collisions_observed(self, a, b):
        # Different tags never produce the same digest for the same data.
        assert tagged_hash("tag1", a) != tagged_hash("tag2", a)
        if a != b:
            assert tagged_hash("tag1", a) != tagged_hash("tag1", b)


class TestHashValue:
    def test_structured_values(self):
        assert hash_value("t", {"a": [1, 2]}) == hash_value("t", {"a": [1, 2]})

    def test_dict_order_irrelevant(self):
        assert hash_value("t", {"a": 1, "b": 2}) == hash_value("t", {"b": 2, "a": 1})

    def test_hash_hex_matches_hash_value(self):
        assert hash_hex("t", 42) == hash_value("t", 42).hex()


class TestHkdf:
    def test_deterministic(self):
        assert hkdf(b"ikm", "info") == hkdf(b"ikm", "info")

    def test_info_separates(self):
        assert hkdf(b"ikm", "enc") != hkdf(b"ikm", "mac")

    def test_length(self):
        for length in (16, 32, 33, 64, 100):
            assert len(hkdf(b"ikm", "info", length)) == length

    def test_long_output_prefix_consistent(self):
        assert hkdf(b"ikm", "info", 64)[:32] == hkdf(b"ikm", "info", 32)

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            hkdf(b"ikm", "info", 0)
        with pytest.raises(ValueError):
            hkdf(b"ikm", "info", 255 * 32 + 1)


class TestHmacAndComparison:
    def test_hmac_deterministic(self):
        assert hmac_sha256(b"k", b"m") == hmac_sha256(b"k", b"m")

    def test_hmac_key_matters(self):
        assert hmac_sha256(b"k1", b"m") != hmac_sha256(b"k2", b"m")

    def test_constant_time_equal(self):
        assert constant_time_equal(b"abc", b"abc")
        assert not constant_time_equal(b"abc", b"abd")
        assert not constant_time_equal(b"abc", b"abcd")
