"""Workload generators: determinism, distributions, validation."""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import DeterministicRNG
from repro.workloads import (
    LOC_STAGES,
    ZipfianKeys,
    kv_update_stream,
    loc_stream,
    trade_stream,
)


def key_counts(operations):
    """How often each key is written."""
    return Counter(op.key for op in operations)


class TestKVStream:
    def test_deterministic_for_seed(self):
        a = list(kv_update_stream(["s1", "s2"], 50, seed="x"))
        b = list(kv_update_stream(["s1", "s2"], 50, seed="x"))
        assert a == b

    def test_seed_changes_stream(self):
        a = list(kv_update_stream(["s1"], 50, seed="x"))
        b = list(kv_update_stream(["s1"], 50, seed="y"))
        assert a != b

    def test_length(self):
        assert len(list(kv_update_stream(["s1"], 123))) == 123

    def test_submitters_drawn_from_pool(self):
        ops = list(kv_update_stream(["a", "b", "c"], 200))
        assert {op.submitter for op in ops} == {"a", "b", "c"}

    def test_no_submitters_rejected(self):
        with pytest.raises(ValueError):
            list(kv_update_stream([], 10))

    def test_zipf_skew_concentrates_traffic(self):
        uniform = key_counts(kv_update_stream(["s"], 2000, key_count=32, skew=0.0))
        skewed = key_counts(kv_update_stream(["s"], 2000, key_count=32, skew=2.0))
        assert max(skewed.values()) > 2 * max(uniform.values())

    def test_uniform_covers_keyspace(self):
        counts = key_counts(kv_update_stream(["s"], 2000, key_count=16, skew=0.0))
        assert len(counts) == 16


class TestZipfianKeys:
    def test_validation(self):
        with pytest.raises(ValueError):
            ZipfianKeys(0)
        with pytest.raises(ValueError):
            ZipfianKeys(4, skew=-1.0)

    def test_draw_in_range(self):
        keys = ZipfianKeys(8, skew=1.0)
        rng = DeterministicRNG("z")
        for __ in range(100):
            key = keys.draw(rng)
            assert key.startswith("key-")
            assert 0 <= int(key.split("-")[1]) < 8

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 64), st.floats(0.0, 3.0))
    def test_cdf_terminates(self, key_count, skew):
        keys = ZipfianKeys(key_count, skew)
        rng = DeterministicRNG(f"{key_count}-{skew}")
        assert keys.draw(rng)


class TestTradeStream:
    def test_buyer_never_seller(self):
        for trade in trade_stream(["a", "b", "c"], 200):
            assert trade.buyer != trade.seller

    def test_confidential_fraction_zero_and_one(self):
        all_open = list(trade_stream(["a", "b"], 100, confidential_fraction=0.0))
        assert not any(t.confidential for t in all_open)
        all_private = list(trade_stream(["a", "b"], 100, confidential_fraction=1.0))
        assert all(t.confidential for t in all_private)

    def test_fraction_roughly_respected(self):
        trades = list(trade_stream(["a", "b", "c"], 1000, confidential_fraction=0.3))
        share = sum(t.confidential for t in trades) / len(trades)
        assert 0.2 < share < 0.4

    def test_validation(self):
        with pytest.raises(ValueError):
            list(trade_stream(["solo"], 10))
        with pytest.raises(ValueError):
            list(trade_stream(["a", "b"], 10, confidential_fraction=1.5))

    def test_notional_positive(self):
        assert all(t.notional > 0 for t in trade_stream(["a", "b"], 100))

    def test_deterministic_for_seed(self):
        a = list(trade_stream(["a", "b", "c"], 50, seed="t"))
        b = list(trade_stream(["a", "b", "c"], 50, seed="t"))
        assert a == b


class TestZipfSkewMonotonicity:
    def test_hottest_key_share_rises_with_skew(self):
        """Contention is monotone in the skew knob across a ladder."""
        shares = [
            max(key_counts(
                kv_update_stream(["s"], 3000, key_count=32, skew=skew)
            ).values()) / 3000
            for skew in (0.0, 0.5, 1.0, 1.5, 2.0)
        ]
        assert shares == sorted(shares)
        assert shares[-1] > shares[0]

    def test_distinct_keys_shrink_with_skew(self):
        uniform = key_counts(kv_update_stream(["s"], 500, key_count=64, skew=0.0))
        skewed = key_counts(kv_update_stream(["s"], 500, key_count=64, skew=2.5))
        assert len(skewed) < len(uniform)

    def test_skew_zero_is_uniform_cdf(self):
        keys = ZipfianKeys(10, skew=0.0)
        assert keys._cdf[0] == pytest.approx(0.1)
        assert keys._cdf[-1] == pytest.approx(1.0)

    def test_bisect_draw_handles_cdf_edges(self):
        """Draws at the extreme ends of [0, 1) stay within the keyspace."""

        class PinnedRNG:
            def __init__(self, value):
                self.value = value

            def uniform(self, low, high):
                return self.value

        keys = ZipfianKeys(4, skew=1.0)
        assert keys.draw(PinnedRNG(0.0)) == "key-0000"
        assert keys.draw(PinnedRNG(0.9999999)) == "key-0003"
        assert keys.draw(PinnedRNG(1.0)) == "key-0003"


class TestLoCStream:
    def test_deterministic_for_seed(self):
        a = list(loc_stream(["a", "b"], ["c", "d"], 40, seed="l"))
        b = list(loc_stream(["a", "b"], ["c", "d"], 40, seed="l"))
        assert a == b

    def test_seed_changes_stream(self):
        a = list(loc_stream(["a", "b"], ["c", "d"], 40, seed="l1"))
        b = list(loc_stream(["a", "b"], ["c", "d"], 40, seed="l2"))
        assert a != b

    def test_stages_are_lifecycle_prefixes(self):
        for application in loc_stream(["a"], ["b"], 200):
            depth = len(application.stages)
            assert 1 <= depth <= len(LOC_STAGES)
            assert application.stages == LOC_STAGES[:depth]

    def test_completion_fraction_bounds(self):
        done = [
            app.completed
            for app in loc_stream(["a"], ["b"], 400, completion_fraction=0.75)
        ]
        share = sum(done) / len(done)
        assert 0.6 < share < 0.9
        assert all(
            app.completed
            for app in loc_stream(["a"], ["b"], 50, completion_fraction=1.0)
        )
        assert not any(
            app.completed
            for app in loc_stream(["a"], ["b"], 50, completion_fraction=0.0)
        )

    def test_applicant_never_own_beneficiary(self):
        for app in loc_stream(["a", "b"], ["a", "b", "c"], 200):
            assert app.applicant != app.beneficiary

    def test_single_overlapping_party_still_generates(self):
        apps = list(loc_stream(["a"], ["a"], 10))
        assert len(apps) == 10  # degenerate pool falls back, never empty

    def test_amounts_positive_and_ids_unique(self):
        apps = list(loc_stream(["a"], ["b"], 100))
        assert all(app.amount > 0 for app in apps)
        assert len({app.loc_id for app in apps}) == 100

    def test_validation(self):
        with pytest.raises(ValueError):
            list(loc_stream([], ["b"], 10))
        with pytest.raises(ValueError):
            list(loc_stream(["a"], ["b"], 10, completion_fraction=-0.1))
