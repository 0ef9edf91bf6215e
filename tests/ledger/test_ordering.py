"""Ordering services: visibility, batching, the service-time model.

What an ordering principal sees is what its network nodes are delivered,
so the visibility and operator tests run on platform networks.
"""

from __future__ import annotations

import pytest

from repro.common.clock import SimClock
from repro.common.errors import OrderingError
from repro.execution.contracts import SmartContract
from repro.ledger.ordering import OrdererProfile, OrderingService
from repro.ledger.transaction import Transaction, WriteEntry
from repro.platforms.corda import Command, ContractState, CordaNetwork
from repro.platforms.fabric import ORDERER_NODE, FabricNetwork


def make_tx(channel="ch", submitter="alice", key="k"):
    return Transaction(
        channel=channel, submitter=submitter,
        writes=(WriteEntry(key=key, value=1),),
        metadata={"participants": [submitter, "bob"]},
    )


@pytest.fixture
def orderer(clock):
    return OrderingService("ord", clock)


def fabric_with(channels: dict[str, list[str]], orderer_operators=("third-party",)):
    """A Fabric network with one ``put`` chaincode per channel, endorsed
    by every member."""

    def put(view, args):
        view.put(args["key"], args["value"])

    net = FabricNetwork(seed="ordering-test", orderer_operators=orderer_operators)
    for org in sorted({m for members in channels.values() for m in members}):
        net.onboard(org)
    for name, members in channels.items():
        net.create_channel(name, members)
        net.deploy_chaincode(name, SmartContract(
            contract_id=f"cc-{name}", version=1, language="python-chaincode",
            functions={"put": put},
        ), members)
    return net


def orderer_view(net):
    return net.network.node(ORDERER_NODE).observer


class TestVisibility:
    def test_full_visibility_sees_parties_and_data(self):
        """Paper S3.4: the ordering service sees parties and details."""
        net = fabric_with({"ch": ["alice", "bob"]})
        net.invoke("ch", "alice", "cc-ch", "put", {"key": "k", "value": 1})
        assert "alice" in orderer_view(net).seen_identities
        assert "bob" in orderer_view(net).seen_identities
        assert "k" in orderer_view(net).seen_data_keys

    def test_hash_only_sees_nothing(self):
        """A non-validating notary is sent only a tear-off of input refs."""
        net = CordaNetwork(seed="ordering-test", validating_notary=False)
        for org in ("alice", "bob"):
            net.onboard(org)
        net.register_contract("asset", lambda wire: None)
        net.run_flow("alice", net.build_transaction(
            inputs=[],
            outputs=[ContractState("asset", ("alice", "bob"), {"k": 1})],
            commands=[Command(name="Issue", signers=("alice", "bob"))],
        ))
        notary = net.network.node(net.notary.name).observer
        assert notary.seen_identities == set()
        assert notary.seen_data_keys == set()
        assert notary.messages_observed == 1

    def test_knowledge_accumulates_across_channels(self):
        """The shared-orderer leak: one service, many channels."""
        net = fabric_with({"ch1": ["org1", "org3"], "ch2": ["org2", "org3"]})
        net.invoke("ch1", "org1", "cc-ch1", "put", {"key": "k1", "value": 1})
        net.invoke("ch2", "org2", "cc-ch2", "put", {"key": "k2", "value": 2})
        assert {"org1", "org2"} <= orderer_view(net).seen_identities
        assert {"k1", "k2"} <= orderer_view(net).seen_data_keys


class TestBatching:
    def test_cut_batch_orders_pending(self, orderer):
        orderer.submit(make_tx(key="a"))
        orderer.submit(make_tx(key="b"))
        batch = orderer.cut_batch("ch")
        assert len(batch.transactions) == 2
        assert orderer.pending_count("ch") == 0

    def test_cut_empty_channel_rejected(self, orderer):
        with pytest.raises(OrderingError):
            orderer.cut_batch("ch")

    def test_max_batch_size_respected(self, clock):
        orderer = OrderingService(
            "ord", clock, profile=OrdererProfile(max_batch_size=2)
        )
        for __ in range(5):
            orderer.submit(make_tx())
        batches = orderer.drain_channel("ch")
        assert [len(b.transactions) for b in batches] == [2, 2, 1]

    def test_channels_are_independent_queues(self, orderer):
        orderer.submit(make_tx(channel="ch1"))
        orderer.submit(make_tx(channel="ch2"))
        assert orderer.pending_count("ch1") == 1
        batch = orderer.cut_batch("ch1")
        assert batch.channel == "ch1"
        assert orderer.pending_count("ch2") == 1

    def test_sequence_numbers_increase(self, orderer):
        orderer.submit(make_tx(channel="ch1"))
        orderer.submit(make_tx(channel="ch2"))
        b1 = orderer.cut_batch("ch1")
        b2 = orderer.cut_batch("ch2")
        assert b2.sequence == b1.sequence + 1


class TestServiceTimeModel:
    def test_release_time_reflects_capacity(self, clock):
        orderer = OrderingService(
            "ord", clock,
            profile=OrdererProfile(capacity_tps=100, batch_timeout=0.0),
        )
        for __ in range(10):
            orderer.submit(make_tx())
        batch = orderer.cut_batch("ch")
        assert batch.released_at == pytest.approx(10 / 100)

    def test_shared_bottleneck_across_channels(self, clock):
        """A second channel's batch queues behind the first channel's work."""
        orderer = OrderingService(
            "ord", clock,
            profile=OrdererProfile(capacity_tps=100, batch_timeout=0.0),
        )
        for __ in range(10):
            orderer.submit(make_tx(channel="ch1"))
        for __ in range(10):
            orderer.submit(make_tx(channel="ch2"))
        first = orderer.cut_batch("ch1")
        second = orderer.cut_batch("ch2")
        assert second.released_at == pytest.approx(first.released_at + 0.1)

    def test_total_ordered_counter(self, orderer):
        for __ in range(3):
            orderer.submit(make_tx())
        orderer.cut_batch("ch")
        assert orderer.total_ordered == 3


class TestBatchTimeout:
    """Regression: batch_timeout was defined but never read."""

    def test_partial_batch_waits_for_timeout(self, clock):
        orderer = OrderingService(
            "ord", clock,
            profile=OrdererProfile(
                capacity_tps=100, max_batch_size=10, batch_timeout=0.5
            ),
        )
        orderer.submit(make_tx())  # 1 of 10: a partial batch
        batch = orderer.cut_batch("ch")
        # Released only once the oldest tx has waited batch_timeout.
        assert batch.released_at == pytest.approx(0.5 + 1 / 100)

    def test_full_batch_releases_immediately(self, clock):
        orderer = OrderingService(
            "ord", clock,
            profile=OrdererProfile(
                capacity_tps=100, max_batch_size=2, batch_timeout=5.0
            ),
        )
        orderer.submit(make_tx(key="a"))
        orderer.submit(make_tx(key="b"))
        batch = orderer.cut_batch("ch")
        assert batch.released_at == pytest.approx(2 / 100)  # no timeout wait

    def test_force_cut_skips_timeout(self, clock):
        orderer = OrderingService(
            "ord", clock,
            profile=OrdererProfile(
                capacity_tps=100, max_batch_size=10, batch_timeout=5.0
            ),
        )
        orderer.submit(make_tx())
        batch = orderer.cut_batch("ch", force=True)
        assert batch.released_at == pytest.approx(1 / 100)

    def test_timeout_already_expired_releases_now(self, clock):
        orderer = OrderingService(
            "ord", clock,
            profile=OrdererProfile(
                capacity_tps=100, max_batch_size=10, batch_timeout=0.5
            ),
        )
        orderer.submit(make_tx())
        clock.advance(2.0)  # the tx has waited far past the timeout
        batch = orderer.cut_batch("ch")
        assert batch.released_at == pytest.approx(0.5 + 1 / 100)

    def test_ready_to_cut_tracks_fill_and_age(self, clock):
        orderer = OrderingService(
            "ord", clock,
            profile=OrdererProfile(max_batch_size=2, batch_timeout=0.5),
        )
        assert not orderer.ready_to_cut("ch")  # empty
        orderer.submit(make_tx(key="a"))
        assert not orderer.ready_to_cut("ch")  # partial, young
        clock.advance(0.5)
        assert orderer.ready_to_cut("ch")  # partial, but timeout expired
        orderer.submit(make_tx(key="b"))
        assert orderer.ready_to_cut("ch")  # full

    def test_oldest_wait(self, clock):
        orderer = OrderingService("ord", clock)
        assert orderer.oldest_wait("ch") == 0.0
        orderer.submit(make_tx())
        clock.advance(0.3)
        assert orderer.oldest_wait("ch") == pytest.approx(0.3)


class TestCrashRecovery:
    def test_crashed_orderer_refuses_work(self, orderer):
        orderer.submit(make_tx())
        orderer.crash()
        with pytest.raises(OrderingError, match="down"):
            orderer.submit(make_tx())
        with pytest.raises(OrderingError, match="down"):
            orderer.cut_batch("ch")

    def test_durable_queue_survives_crash(self, clock):
        orderer = OrderingService("ord", clock, durable=True)
        orderer.submit(make_tx(key="a"))
        orderer.submit(make_tx(key="b"))
        orderer.crash()
        orderer.recover()
        assert orderer.pending_count("ch") == 2
        batch = orderer.cut_batch("ch", force=True)
        assert len(batch.transactions) == 2

    def test_non_durable_queue_is_lost(self, clock):
        orderer = OrderingService("ord", clock, durable=False)
        orderer.submit(make_tx())
        orderer.crash()
        orderer.recover()
        assert orderer.pending_count("ch") == 0
        with pytest.raises(OrderingError, match="no pending"):
            orderer.cut_batch("ch", force=True)

    def test_fault_plan_outage_window(self, clock):
        from repro.faults.plan import FaultPlan

        plan = FaultPlan().orderer_outage("ord", start=0.0, end=1.0)
        orderer = OrderingService("ord", clock, fault_plan=plan)
        assert not orderer.available()
        with pytest.raises(OrderingError, match="down"):
            orderer.submit(make_tx())
        clock.advance_to(1.0)
        assert orderer.available()
        orderer.submit(make_tx())  # back up


class TestOperators:
    def test_third_party_not_member_operated(self):
        net = fabric_with({"ch": ["alice", "bob"]})
        assert not net.orderer.is_member_operated({"alice", "bob"})

    def test_private_orderer_is_member_operated(self):
        """Table 1 Misc row: private sequencing service possible."""
        net = fabric_with({"ch": ["alice", "bob"]}, orderer_operators=("alice",))
        assert net.orderer.is_member_operated({"alice", "bob"})
        assert net.orderer.operators == ("alice",)

    def test_private_orderer_still_sees_everything(self):
        """Running it yourself contains the leak; it does not remove it."""
        net = fabric_with({"ch": ["alice", "bob"]}, orderer_operators=("alice",))
        net.invoke("ch", "alice", "cc-ch", "put", {"key": "k", "value": 1})
        assert "bob" in orderer_view(net).seen_identities


class TestNonDurableRecovery:
    """A non-durable orderer loses its queues on crash (satellite)."""

    @pytest.fixture
    def volatile(self, clock):
        return OrderingService("ord", clock, durable=False)

    def test_crash_drops_pending(self, volatile):
        volatile.submit(make_tx(key="a"))
        assert volatile.pending_count("ch") == 1
        volatile.crash()
        assert volatile.pending_count("ch") == 0

    def test_durable_crash_keeps_pending(self, orderer):
        orderer.submit(make_tx(key="a"))
        orderer.crash()
        assert orderer.pending_count("ch") == 1
        orderer.recover()
        batch = orderer.cut_batch("ch", force=True)
        assert len(batch.transactions) == 1

    def test_resubmission_works_after_recovery(self, volatile):
        volatile.submit(make_tx(key="a"))
        volatile.crash()
        with pytest.raises(OrderingError, match="down"):
            volatile.submit(make_tx(key="a"))
        volatile.recover()
        # The client's retry path: dropped work must be resubmitted.
        volatile.submit(make_tx(key="a"))
        batch = volatile.cut_batch("ch", force=True)
        assert [t.writes[0].key for t in batch.transactions] == ["a"]

    def test_batch_timeout_fires_after_recovery(self, volatile, clock):
        volatile.crash()
        volatile.recover()
        volatile.submit(make_tx(key="a"))
        assert not volatile.ready_to_cut("ch")
        clock.advance(volatile.profile.batch_timeout + 0.01)
        assert volatile.ready_to_cut("ch")
        batch = volatile.cut_batch("ch")
        assert len(batch.transactions) == 1
