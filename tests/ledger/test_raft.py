"""A member-run replicated orderer on a real Fabric network.

The replica set is the orderer's own network nodes, one per operator.
The leader is the first live replica by rank that holds the committed
log; it ships each ordered transaction to the others as ``append``
messages, and the orderer refuses work without a live, reachable
majority.  Replication, crashes and visibility are therefore all
network events.
"""

from __future__ import annotations

import pytest

from repro.common.clock import SimClock
from repro.common.errors import OrderingError
from repro.execution.contracts import SmartContract
from repro.ledger.ordering import OrderingService
from repro.platforms.fabric import ORDERER_NODE, FabricNetwork

OPERATORS = ("org1", "org2", "org3")


def replica(operator: str) -> str:
    return f"{ORDERER_NODE}@{operator}"


def member_run(operators=OPERATORS) -> FabricNetwork:
    """A channel of the orderer's operators, ordered by their own cluster."""

    def put(view, args):
        view.put(args["key"], args["value"])

    net = FabricNetwork(seed="replicated-orderer", orderer_operators=operators)
    for org in operators:
        net.onboard(org)
    net.create_channel("ch", list(operators[:2]))
    net.deploy_chaincode("ch", SmartContract(
        contract_id="cc", version=1, language="python-chaincode",
        functions={"put": put},
    ), list(operators[:2]))
    return net


def order(net: FabricNetwork, n: int, submitter: str = "org1"):
    """Order one transaction writing ``k<n>``; returns it."""
    return net.invoke("ch", submitter, "cc", "put", {"key": f"k{n}", "value": n}).tx


def crash(net: FabricNetwork, *operators: str) -> None:
    for operator in operators:
        net.network.crash_node(replica(operator))


def recover(net: FabricNetwork, operator: str) -> None:
    net.network.recover_node(replica(operator))


def committed(net: FabricNetwork) -> list:
    """The leader's log: every committed transaction, in order."""
    return [tx for __, tx, __ in net.orderer.logs[net.orderer.require_available()]]


def logs_consistent(net: FabricNetwork) -> bool:
    """Safety: every live replica's log is a prefix of the longest."""
    longest = max(net.orderer.logs.values(), key=len)
    leader_log = [tx_id for tx_id, __, __ in longest]
    for name in net.orderer.replicas:
        if net.network.is_crashed(name):
            continue
        log = [tx_id for tx_id, __, __ in net.orderer.logs[name]]
        if log != leader_log[: len(log)]:
            return False
    return True


@pytest.fixture
def cluster():
    return member_run()


class TestClusterSetup:
    def test_even_size_rejected(self):
        with pytest.raises(OrderingError, match="odd"):
            FabricNetwork(orderer_operators=("a", "b"))

    def test_too_small_rejected(self):
        with pytest.raises(OrderingError, match="odd"):
            OrderingService("ord", SimClock(), operators=())

    def test_majority(self, cluster):
        crash(cluster, "org3")
        cluster.orderer.require_available()  # 2 of 3 is a majority
        crash(cluster, "org2")
        with pytest.raises(OrderingError, match="majority"):
            cluster.orderer.require_available()
        five = member_run(("a", "b", "c", "d", "e"))
        crash(five, "d", "e")
        five.orderer.require_available()  # 3 of 5
        crash(five, "c")
        with pytest.raises(OrderingError, match="majority"):
            five.orderer.require_available()


class TestElections:
    def test_elect_produces_leader(self, cluster):
        assert cluster.orderer.replicas == tuple(replica(op) for op in OPERATORS)
        assert cluster.orderer.require_available() == replica("org1")

    def test_crashed_candidate_rejected(self, cluster):
        crash(cluster, "org1")
        assert cluster.orderer.require_available() == replica("org2")

    def test_no_quorum_no_election(self, cluster):
        crash(cluster, "org1", "org2")
        with pytest.raises(OrderingError, match="majority"):
            order(cluster, 1)

    def test_candidate_with_stale_log_loses(self, cluster):
        """A replica that missed a committed entry cannot lead, even when
        it outranks every live replica that holds the log."""
        crash(cluster, "org3")
        order(cluster, 1)
        recover(cluster, "org3")
        crash(cluster, "org1")
        assert len(cluster.orderer.logs[replica("org3")]) == 0
        assert cluster.orderer.require_available() == replica("org2")


class TestReplication:
    def test_submit_commits_on_majority(self, cluster):
        tx = order(cluster, 1)
        assert [t.tx_id for t in committed(cluster)] == [tx.tx_id]
        for name in cluster.orderer.replicas:
            assert len(cluster.orderer.logs[name]) == 1

    def test_total_order_preserved(self, cluster):
        for n in range(5):
            order(cluster, n)
        for log in cluster.orderer.logs.values():
            assert [tx.writes[0].key for __, tx, __ in log] == [
                f"k{n}" for n in range(5)
            ]

    def test_logs_consistent_after_replication(self, cluster):
        for n in range(3):
            order(cluster, n)
        assert logs_consistent(cluster)
        assert len({len(log) for log in cluster.orderer.logs.values()}) == 1

    def test_submit_auto_elects(self, cluster):
        """No election step: the leader is picked by rank at send time,
        and the ``submit`` goes to it."""
        order(cluster, 1)
        leader = cluster.network.node(replica("org1")).observer
        follower = cluster.network.node(replica("org2")).observer
        # The submit, and each of the two followers' append-ack.
        assert leader.messages_observed == 3
        assert follower.messages_observed == 1  # the append


class TestFaults:
    def test_survives_minority_crash(self, cluster):
        order(cluster, 1)
        crash(cluster, "org3")
        order(cluster, 2)
        assert len(committed(cluster)) == 2
        assert logs_consistent(cluster)

    def test_leader_crash_triggers_reelection(self, cluster):
        leader = cluster.orderer.require_available()
        order(cluster, 1)
        crash(cluster, "org1")
        new_leader = cluster.orderer.require_available()
        assert new_leader != leader
        order(cluster, 2)
        assert len(committed(cluster)) == 2

    def test_majority_crash_blocks_writes(self, cluster):
        crash(cluster, "org2", "org3")
        with pytest.raises(OrderingError):
            order(cluster, 1)
        assert cluster.orderer.logs[replica("org1")] == []

    def test_recovered_node_catches_up(self, cluster):
        order(cluster, 1)
        crash(cluster, "org3")
        order(cluster, 2)
        recover(cluster, "org3")
        order(cluster, 3)
        assert logs_consistent(cluster)
        assert len(cluster.orderer.logs[replica("org3")]) == 3

    def test_committed_entries_survive_leader_change(self, cluster):
        tx = order(cluster, 1)
        crash(cluster, "org1")
        assert committed(cluster)[0].tx_id == tx.tx_id


class TestRecoveryResetsVolatileState:
    def test_recover_keeps_persisted_log_and_term(self, cluster):
        """A replica's log is durable across a crash; it rejoins as a
        follower while the leader keeps its rank."""
        order(cluster, 1)
        crash(cluster, "org2")
        recover(cluster, "org2")
        assert len(cluster.orderer.logs[replica("org2")]) == 1
        assert cluster.orderer.require_available() == replica("org1")

    def test_crash_recover_reelect_cycle(self, cluster):
        """Full cycle: leader crashes, recovers, and leads again by rank
        once it holds the committed log."""
        order(cluster, 1)
        crash(cluster, "org1")
        assert cluster.orderer.require_available() == replica("org2")
        order(cluster, 2)
        recover(cluster, "org1")
        # Behind by one: org2 keeps leading and ships org1 the suffix.
        assert cluster.orderer.require_available() == replica("org2")
        order(cluster, 3)
        assert cluster.orderer.require_available() == replica("org1")
        order(cluster, 4)
        assert len(committed(cluster)) == 4
        assert logs_consistent(cluster)


class TestVisibility:
    def test_every_replica_operator_sees_contents(self, cluster):
        """Replicated ordering multiplies who sees the data (S3.4)."""
        order(cluster, 1)
        seen = {
            operator
            for operator in OPERATORS
            if cluster.network.node(replica(operator)).observer.messages_observed
        }
        assert seen == set(OPERATORS)
        for observer in cluster.orderer.observers():
            assert "org1" in observer.seen_identities
            assert "k1" in observer.seen_data_keys

    def test_crashed_replica_misses_entries(self, cluster):
        crash(cluster, "org3")
        order(cluster, 1)
        observer = cluster.network.node(replica("org3")).observer
        assert "k1" not in observer.seen_data_keys


class TestLogTruncationOnRecovery:
    def test_former_leader_rejoins_as_follower_without_phantom_entries(
        self, cluster
    ):
        """A recovered leader rejoins behind the new leader, holds no
        entry the cluster did not commit, and converges on the next
        append."""
        order(cluster, 1)
        crash(cluster, "org1")
        order(cluster, 2)
        recover(cluster, "org1")
        assert cluster.orderer.require_available() == replica("org2")
        recovered = [tx_id for tx_id, __, __ in cluster.orderer.logs[replica("org1")]]
        leader_log = [tx.tx_id for tx in committed(cluster)]
        assert recovered == leader_log[: len(recovered)] and len(recovered) == 1
        order(cluster, 3)
        assert logs_consistent(cluster)
        assert len(cluster.orderer.logs[replica("org1")]) == 3
