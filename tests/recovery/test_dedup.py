"""Idempotent redelivery: dedup keys on the wire, catch-up provider ranking."""

from __future__ import annotations

from repro.common.rng import DeterministicRNG
from repro.faults.plan import FaultPlan
from repro.network.simnet import SimNetwork
from repro.recovery.catchup import live_providers

import pytest


def collect(net, name, kind) -> list:
    """Record each *kind* message that reaches *name*'s handler."""
    arrived = []
    net.node(name).on(kind, arrived.append)
    return arrived


@pytest.fixture
def net():
    network = SimNetwork(rng=DeterministicRNG("dedup-test"))
    for name in ("A", "B", "C"):
        network.add_node(name)
    return network


class TestMessageDedup:
    def test_duplicate_key_applied_once(self, net):
        items = collect(net, "B", "item")
        net.send("A", "B", "item", {"n": 1}, dedup_key="item/1")
        net.send("A", "B", "item", {"n": 1}, dedup_key="item/1")
        net.run()
        assert len(items) == 1
        assert net.stats.deduplicated == 1

    def test_distinct_keys_both_applied(self, net):
        items = collect(net, "B", "item")
        net.send("A", "B", "item", {"n": 1}, dedup_key="item/1")
        net.send("A", "B", "item", {"n": 2}, dedup_key="item/2")
        net.run()
        assert len(items) == 2
        assert net.stats.deduplicated == 0

    def test_no_key_means_no_suppression(self, net):
        items = collect(net, "B", "item")
        net.send("A", "B", "item", {"n": 1})
        net.send("A", "B", "item", {"n": 1})
        net.run()
        assert len(items) == 2

    def test_seen_dedup_keys_track_delivered_keys(self, net):
        net.send("A", "B", "item", {"n": 1}, dedup_key="item/1")
        net.run()
        assert "item/1" in net.node("B").seen_dedup_keys
        assert "item/2" not in net.node("B").seen_dedup_keys

    def test_retry_attempts_share_one_key(self, net):
        """send_with_retry retransmissions deduplicate at the recipient."""
        net.fault_plan = FaultPlan().set_default_loss(0.4)
        acks = []
        net.node("B").on("ack-me", acks.append)
        net.send_with_retry("A", "B", "ack-me", {"n": 1}, timeout=0.5)
        net.run()
        assert len(acks) == 1

    def test_crash_wipes_dedup_memory(self, net):
        """In-memory dedup state is volatile — exactly why recovery keys
        idempotence on durable positions, not on seen_dedup_keys."""
        items = collect(net, "B", "item")
        net.send("A", "B", "item", {"n": 1}, dedup_key="item/1")
        net.run()
        net.crash_node("B")
        net.recover_node("B")
        assert "item/1" not in net.node("B").seen_dedup_keys
        net.send("A", "B", "item", {"n": 1}, dedup_key="item/1")
        net.run()
        assert len(items) == 2


class TestProviderSelection:
    def test_prefers_first_live_reachable_peer(self, net):
        assert live_providers(net, ["C", "B"], "A") == ["B", "C"]

    def test_skips_the_recovering_node_itself(self, net):
        assert live_providers(net, ["A", "B"], "A") == ["B"]

    def test_skips_crashed_and_partitioned_peers(self, net):
        net.crash_node("B")
        net.partition("C", "A")
        assert live_providers(net, ["B", "C"], "A") == []
        net.heal("C", "A")
        assert live_providers(net, ["B", "C"], "A") == ["C"]
