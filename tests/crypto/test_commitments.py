"""Pedersen commitments: hiding, binding (computational), homomorphism."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import DeterministicRNG
from repro.crypto.commitments import Opening, PedersenScheme


@pytest.fixture
def pedersen(group):
    return PedersenScheme(group)


class TestCommitOpen:
    def test_commit_verifies_with_opening(self, pedersen, rng):
        commitment, opening = pedersen.commit(42, rng)
        assert pedersen.verify(commitment, opening)

    def test_wrong_value_fails(self, pedersen, rng):
        commitment, opening = pedersen.commit(42, rng)
        bad = Opening(value=43, blinding=opening.blinding)
        assert not pedersen.verify(commitment, bad)

    def test_wrong_blinding_fails(self, pedersen, rng):
        commitment, opening = pedersen.commit(42, rng)
        bad = Opening(value=42, blinding=opening.blinding + 1)
        assert not pedersen.verify(commitment, bad)

    def test_hiding_same_value_distinct_commitments(self, pedersen, rng):
        c1, __ = pedersen.commit(42, rng)
        c2, __ = pedersen.commit(42, rng)
        assert c1.element != c2.element

    def test_zero_value(self, pedersen, rng):
        commitment, opening = pedersen.commit(0, rng)
        assert pedersen.verify(commitment, opening)

    def test_value_reduced_mod_q(self, pedersen, rng):
        commitment, opening = pedersen.commit_with(pedersen.group.q + 5, 7)
        assert opening.value == 5
        assert pedersen.verify(commitment, opening)


class TestHomomorphism:
    def test_addition(self, pedersen, rng):
        c1, o1 = pedersen.commit(10, rng)
        c2, o2 = pedersen.commit(32, rng)
        combined = pedersen.add(c1, c2)
        opening = Opening(
            value=(o1.value + o2.value) % pedersen.group.q,
            blinding=(o1.blinding + o2.blinding) % pedersen.group.q,
        )
        assert opening.value == 42
        assert pedersen.verify(combined, opening)

    def test_scaling(self, pedersen, rng):
        commitment, opening = pedersen.commit(7, rng)
        scaled = pedersen.scale(commitment, 3)
        scaled_opening = Opening(
            value=(opening.value * 3) % pedersen.group.q,
            blinding=(opening.blinding * 3) % pedersen.group.q,
        )
        assert pedersen.verify(scaled, scaled_opening)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6),
           st.integers(min_value=0, max_value=10**6))
    def test_addition_property(self, a, b):
        pedersen = PedersenScheme()
        rng = DeterministicRNG(f"hom-{a}-{b}")
        ca, oa = pedersen.commit(a, rng)
        cb, ob = pedersen.commit(b, rng)
        q = pedersen.group.q
        opening = Opening((oa.value + ob.value) % q, (oa.blinding + ob.blinding) % q)
        assert pedersen.verify(pedersen.add(ca, cb), opening)
