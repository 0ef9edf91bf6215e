"""Schnorr group arithmetic and generation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import DeterministicRNG
from repro.crypto.groups import (
    SchnorrGroup,
    _is_probable_prime,
    cached_test_group,
    small_group,
)


class TestPrimality:
    def test_small_primes(self):
        for p in (2, 3, 5, 7, 11, 13, 97, 7919):
            assert _is_probable_prime(p)

    def test_small_composites(self):
        for n in (0, 1, 4, 9, 15, 91, 561, 7917):
            assert not _is_probable_prime(n)

    def test_carmichael_numbers_rejected(self):
        for n in (561, 1105, 1729, 2465, 2821, 6601):
            assert not _is_probable_prime(n)


class TestGroupStructure:
    def test_safe_prime_relation(self, group):
        assert group.p == 2 * group.q + 1

    def test_generators_in_subgroup(self, group):
        assert group.contains(group.g)
        assert group.contains(group.h)

    def test_generators_independent(self, group):
        assert group.g != group.h

    def test_contains_rejects_outside(self, group):
        assert not group.contains(0)
        assert not group.contains(group.p)

    def test_identity_is_member(self, group):
        assert group.contains(1)

    def test_bad_group_rejected(self):
        with pytest.raises(ValueError):
            SchnorrGroup(p=23, q=7, g=2, h=3)  # p != 2q+1


class TestGroupOps:
    def test_exp_reduces_exponent(self, group):
        assert group.exp(group.g, group.q + 5) == group.exp(group.g, 5)

    def test_exp_of_q_is_identity(self, group):
        assert group.exp(group.g, group.q) == 1

    def test_mul_inv(self, group, rng):
        a = group.exp(group.g, group.random_scalar(rng))
        assert group.mul(a, group.inv(a)) == 1

    def test_commit_structure(self, group):
        assert group.commit(0, 0) == 1
        assert group.commit(1, 0) == group.g
        assert group.commit(0, 1) == group.h

    def test_random_scalar_range(self, group, rng):
        for __ in range(50):
            scalar = group.random_scalar(rng)
            assert 1 <= scalar < group.q

    def test_hash_to_scalar_range_and_determinism(self, group):
        s1 = group.hash_to_scalar("t", b"data")
        s2 = group.hash_to_scalar("t", b"data")
        assert s1 == s2
        assert 0 <= s1 < group.q
        assert group.hash_to_scalar("t", b"other") != s1

    def test_hash_to_element_in_subgroup(self, group):
        element = group.hash_to_element("t", b"data")
        assert group.contains(element)
        assert element != 1


_SMALL_GROUP = small_group(bits=64)


class TestFixedBaseTables:
    """exp(g|h, e) comes from a table; it must equal plain pow for every e."""

    @staticmethod
    def _edge_exponents(group):
        q = group.q
        return [0, 1, 2, 255, 256, q - 1, q, q + 1, 2 * q + 7, -1, -q, -(q + 1)]

    @pytest.mark.parametrize("group", [cached_test_group(), _SMALL_GROUP],
                             ids=["test-group-160", "small-group-64"])
    def test_edge_exponents_match_pow(self, group):
        for base in (group.g, group.h):
            for exponent in self._edge_exponents(group):
                assert group.exp(base, exponent) == pow(base, exponent % group.q, group.p)

    @settings(max_examples=60, deadline=None)
    @given(exponent=st.integers(min_value=-(1 << 200), max_value=1 << 200),
           use_small=st.booleans(), use_h=st.booleans())
    def test_random_exponents_match_pow(self, exponent, use_small, use_h):
        group = _SMALL_GROUP if use_small else cached_test_group()
        base = group.h if use_h else group.g
        assert group.exp(base, exponent) == pow(base, exponent % group.q, group.p)

    @pytest.mark.parametrize("width", [4, 8])
    @pytest.mark.parametrize("bits", [160, 64, 62])
    def test_comb_tables_match_pow_for_any_base(self, bits, width):
        group = cached_test_group() if bits == 160 else small_group(bits=bits)
        base = group.hash_to_element("t", b"comb base")
        table = group.comb(base, width)
        assert len(table) == -(-group.q.bit_length() // width)
        for exponent in self._edge_exponents(group) + [15, 16, 17]:
            assert group.comb_exp(table, exponent) == pow(base, exponent % group.q, group.p)

    def test_other_bases_match_pow(self, group, rng):
        base = group.hash_to_element("t", b"not a generator")
        exponent = group.random_scalar(rng)
        assert group.exp(base, exponent) == pow(base, exponent, group.p)

    def test_tables_do_not_affect_equality(self):
        a = small_group(bits=64, seed="x")
        b = small_group(bits=64, seed="x")
        a.exp(a.g, 5)
        assert a == b and hash(a) == hash(b)


class TestGroupGeneration:
    def test_small_group_deterministic(self):
        a = small_group(bits=64, seed="x")
        b = small_group(bits=64, seed="x")
        assert (a.p, a.q, a.g, a.h) == (b.p, b.q, b.g, b.h)

    def test_small_group_seed_matters(self):
        assert small_group(bits=64, seed="x").p != small_group(bits=64, seed="y").p

    def test_small_group_too_small_rejected(self):
        with pytest.raises(ValueError):
            small_group(bits=16)

    def test_cached_test_group_is_memoized(self):
        assert cached_test_group() is cached_test_group()

    def test_test_group_size(self):
        assert cached_test_group().q.bit_length() >= 159
