"""A replicated Corda notary: crash tolerance and double-spend safety.

``CordaNetwork(notary_operators=...)`` runs the notary as one network
node per operator.  The leader checks uniqueness against its spent-ref
map and ships each notarisation's consumed refs to the other replicas as
``append`` messages; the notary refuses work without a live majority.
"""

from __future__ import annotations

import pytest

from repro.common.errors import DoubleSpendError, OrderingError
from repro.faults import FaultPlan
from repro.platforms.corda import (
    NOTARY_NODE,
    Command,
    ContractState,
    CordaNetwork,
)

OPERATORS = ("N1", "N2", "N3")


def replica(index: int) -> str:
    return f"{NOTARY_NODE}@{OPERATORS[index]}"


def cluster_network(validating: bool = False, operators=OPERATORS) -> CordaNetwork:
    net = CordaNetwork(
        seed="notary-cluster", validating_notary=validating,
        notary_operators=operators,
    )
    for org in ("A", "B"):
        net.onboard(org)
    net.register_contract("asset", lambda wire: None)
    return net


@pytest.fixture
def cluster():
    return cluster_network()


def move(net: CordaNetwork, inputs=(), tag=0):
    """Run one flow consuming *inputs*; returns its :class:`FlowResult`."""
    wire = net.build_transaction(
        inputs=list(inputs),
        outputs=[ContractState("asset", ("A", "B"), {"tag": tag})],
        commands=[Command(name="Move", signers=("A", "B"))],
    )
    return net.run_flow("A", wire)


def crash(net: CordaNetwork, index: int) -> None:
    net.network.crash_node(replica(index))


def recover(net: CordaNetwork, index: int) -> None:
    net.network.recover_node(replica(index))


class TestClusterSetup:
    def test_even_size_rejected(self):
        with pytest.raises(OrderingError, match="odd"):
            CordaNetwork(notary_operators=("a", "b", "c", "d"))

    def test_majority(self, cluster):
        crash(cluster, 0)
        move(cluster, tag=1)  # 2 of 3 is a majority
        crash(cluster, 1)
        with pytest.raises(OrderingError, match="majority"):
            move(cluster, tag=2)
        five = cluster_network(operators=("a", "b", "c", "d", "e"))
        for name in five.notary.replicas[:2]:
            five.network.crash_node(name)
        move(five, tag=3)  # 3 of 5


class TestQuorumNotarisation:
    def test_majority_receipt(self, cluster):
        issued = move(cluster, tag=0)
        spent = move(cluster, inputs=issued.output_refs, tag=1)
        assert spent.receipt.notary == NOTARY_NODE
        holders = [
            name for name in cluster.notary.replicas
            if issued.output_refs[0] in cluster.notary.spent[name]
        ]
        assert len(holders) >= 2

    def test_double_spend_rejected_cluster_wide(self, cluster):
        genesis = move(cluster, tag=1)
        move(cluster, inputs=genesis.output_refs, tag=2)
        with pytest.raises(DoubleSpendError):
            move(cluster, inputs=genesis.output_refs, tag=3)

    def test_no_double_spend_across_failover(self, cluster):
        """The spend the old leader notarised reached the followers, so
        the next leader rejects the conflicting one."""
        genesis = move(cluster, tag=1)
        move(cluster, inputs=genesis.output_refs, tag=2)
        crash(cluster, 0)
        assert cluster.notary.require_available() == replica(1)
        with pytest.raises(DoubleSpendError):
            move(cluster, inputs=genesis.output_refs, tag=3)

    def test_unacked_spend_bars_failover(self, cluster):
        """Every append of a spend is lost, so no follower holds it when
        the leader crashes after sending its receipt: no follower may
        lead, and the conflicting spend is refused instead of notarised."""
        genesis = move(cluster, tag=1)
        plan = FaultPlan()
        for index in (1, 2):
            plan.set_link_loss(replica(0), replica(index), 1.0)
        cluster.inject_faults(plan)
        spent = move(cluster, inputs=genesis.output_refs, tag=2)
        assert spent.receipt.tx_id == spent.stx.wire.tx_id
        assert all(
            genesis.output_refs[0] not in cluster.notary.spent[replica(index)]
            for index in (1, 2)
        )
        crash(cluster, 0)
        with pytest.raises(OrderingError, match="committed log"):
            move(cluster, inputs=genesis.output_refs, tag=3)

    def test_survives_minority_crash(self, cluster):
        crash(cluster, 0)
        result = move(cluster, tag=4)
        assert result.receipt.tx_id == result.stx.wire.tx_id
        assert cluster.notary.require_available() == replica(1)

    def test_majority_crash_halts_service(self, cluster):
        crash(cluster, 0)
        crash(cluster, 1)
        sent = cluster.network.stats.messages_sent
        with pytest.raises(OrderingError, match="majority"):
            move(cluster, tag=5)
        assert cluster.network.stats.messages_sent == sent

    def test_recovery_restores_service(self, cluster):
        crash(cluster, 0)
        crash(cluster, 1)
        recover(cluster, 0)
        result = move(cluster, tag=6)
        assert result.receipt.tx_id == result.stx.wire.tx_id


class TestClusterVisibility:
    def test_non_validating_cluster_learns_nothing(self, cluster):
        move(cluster, inputs=move(cluster, tag=7).output_refs, tag=8)
        knowledge = cluster.notary.knowledge()
        assert knowledge["identities"] == []
        assert knowledge["data_keys"] == []
        assert knowledge["messages_observed"] > 0

    def test_validating_cluster_multiplies_visibility(self):
        """Every replica of a validating cluster sees the payload — the
        replication-visibility trade-off, same as a replicated orderer."""
        cluster = cluster_network(validating=True)
        move(cluster, tag=9)
        for observer in cluster.notary.observers():
            assert "A" in observer.seen_identities
            assert "tag" in observer.seen_data_keys
