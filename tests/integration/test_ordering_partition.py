"""Chaos: a replicated Fabric orderer under partitions.

Replication is network traffic: each ordered transaction reaches every
follower as an ``append`` message, counted in ``net.sent_by_kind``.  A
follower cut off from the leader lags while the majority keeps ordering
and catches up once the link heals; a leader cut off from the majority
refuses the batch before anything is sent.
"""

from __future__ import annotations

import pytest

from repro.common.errors import OrderingError
from repro.execution.contracts import SmartContract
from repro.platforms.fabric import ORDERER_NODE, FabricNetwork

OPERATORS = ("Org1", "Org2", "Org3")
LEADER, SECOND, THIRD = (f"{ORDERER_NODE}@{op}" for op in OPERATORS)


@pytest.fixture
def net():
    def put(view, args):
        view.put(args["key"], args["value"])

    network = FabricNetwork(seed="ordering-partition", orderer_operators=OPERATORS)
    for org in OPERATORS:
        network.onboard(org)
    network.create_channel("ch", list(OPERATORS))
    network.deploy_chaincode("ch", SmartContract(
        contract_id="cc", version=1, language="python-chaincode",
        functions={"put": put},
    ), ["Org1", "Org2"])
    return network


def appends_sent(net) -> float:
    counters = net.telemetry.metrics.snapshot()["counters"]
    return counters.get("net.sent_by_kind{kind=append}", 0.0)


def put(net, n: int):
    return net.invoke("ch", "Org1", "cc", "put", {"key": f"k{n}", "value": n})


def log_length(net, replica: str) -> int:
    return len(net.orderer.logs[replica])


def test_append_traffic_is_counted_per_follower(net):
    put(net, 0)
    put(net, 1)
    assert appends_sent(net) == 4  # two transactions, two followers
    assert net.network.stats.messages_sent == net.network.stats.messages_delivered


def test_partitioned_minority_lags_then_catches_up(net):
    put(net, 0)
    net.network.partition(LEADER, THIRD)
    put(net, 1)
    put(net, 2)
    assert log_length(net, LEADER) == log_length(net, SECOND) == 3
    assert log_length(net, THIRD) == 1
    assert "k2" not in net.network.node(THIRD).observer.seen_data_keys
    before = appends_sent(net)
    net.network.heal(LEADER, THIRD)
    put(net, 3)
    # Org2 gets the new entry; Org3 the two it missed plus the new one.
    assert appends_sent(net) - before == 1 + 3
    assert net.orderer.logs[THIRD] == net.orderer.logs[LEADER]
    assert "k2" in net.network.node(THIRD).observer.seen_data_keys


def test_partitioned_majority_refuses_before_sending(net):
    put(net, 0)
    net.network.partition(LEADER, SECOND)
    net.network.partition(LEADER, THIRD)
    proposal = net.propose("ch", "Org1", "cc", "put", {"key": "k1", "value": 1})
    sent = net.network.stats.messages_sent
    with pytest.raises(OrderingError, match="majority"):
        net.submit_batch("ch", [proposal])
    assert net.network.stats.messages_sent == sent
    assert log_length(net, LEADER) == 1


def test_invoke_refuses_before_endorsing(net):
    """Pins: with the ordering majority cut off, ``invoke`` raises before
    any proposal is sent or any endorser executes the chaincode."""
    put(net, 0)
    net.network.partition(LEADER, SECOND)
    net.network.partition(LEADER, THIRD)
    counters = net.telemetry.metrics.snapshot()["counters"]
    sent = net.network.stats.messages_sent
    with pytest.raises(OrderingError, match="majority"):
        put(net, 1)
    assert net.network.stats.messages_sent == sent
    assert net.telemetry.metrics.snapshot()["counters"] == counters
