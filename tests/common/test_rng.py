"""DeterministicRNG: reproducibility, uniformity bounds, forking."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.rng import DeterministicRNG


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a = DeterministicRNG("seed")
        b = DeterministicRNG("seed")
        assert a.randbytes(64) == b.randbytes(64)

    def test_different_seeds_differ(self):
        assert DeterministicRNG("x").randbytes(32) != DeterministicRNG("y").randbytes(32)

    def test_int_seed_accepted(self):
        assert DeterministicRNG(42).randbytes(8) == DeterministicRNG(42).randbytes(8)

    def test_bytes_seed_accepted(self):
        assert DeterministicRNG(b"s").randbytes(8) == DeterministicRNG(b"s").randbytes(8)

    def test_stream_advances(self):
        rng = DeterministicRNG("s")
        assert rng.randbytes(16) != rng.randbytes(16)

    def test_fork_independent_of_parent_consumption(self):
        a = DeterministicRNG("seed")
        fork_early = a.fork("child").randbytes(16)
        a.randbytes(100)
        fork_late = a.fork("child").randbytes(16)
        assert fork_early == fork_late

    def test_forks_with_different_labels_differ(self):
        rng = DeterministicRNG("seed")
        assert rng.fork("a").randbytes(16) != rng.fork("b").randbytes(16)


class TestDistributions:
    def test_randbytes_length(self):
        rng = DeterministicRNG("s")
        for n in (0, 1, 31, 32, 33, 100):
            assert len(rng.randbytes(n)) == n

    def test_randbytes_negative_rejected(self):
        with pytest.raises(ValueError):
            DeterministicRNG("s").randbytes(-1)

    def test_randint_below_in_range(self):
        rng = DeterministicRNG("s")
        for __ in range(200):
            assert 0 <= rng.randint_below(7) < 7

    def test_randint_below_covers_all_values(self):
        rng = DeterministicRNG("s")
        seen = {rng.randint_below(4) for __ in range(200)}
        assert seen == {0, 1, 2, 3}

    def test_randint_below_invalid_bound(self):
        with pytest.raises(ValueError):
            DeterministicRNG("s").randint_below(0)

    def test_uniform_in_range(self):
        rng = DeterministicRNG("s")
        for __ in range(100):
            value = rng.uniform(1.5, 2.5)
            assert 1.5 <= value < 2.5

    def test_choice_from_sequence(self):
        rng = DeterministicRNG("s")
        items = ["a", "b", "c"]
        assert {rng.choice(items) for __ in range(100)} == set(items)

    def test_choice_empty_rejected(self):
        with pytest.raises(ValueError):
            DeterministicRNG("s").choice([])

    @given(st.integers(min_value=1, max_value=10**9))
    def test_randint_below_bound_property(self, bound):
        rng = DeterministicRNG(f"prop-{bound}")
        assert 0 <= rng.randint_below(bound) < bound
