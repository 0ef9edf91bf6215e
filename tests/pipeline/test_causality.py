"""Causal flows: each principal decides in its own delivery handler.

Two properties of every platform flow:

- **Causality.**  Every message except a call's first hops is stamped
  ``caused_by`` with the message whose delivery handler sent it (or that
  the call acted on), and is sent only after that message arrived: no
  decision is taken at send time on another principal's behalf.
- **No ceremony.**  Every delivered message reaches a handler on its
  recipient; ``net.unhandled`` counts the ones that do not, and reads 0
  after driver runs of every workload on every platform.
"""

from __future__ import annotations

import pytest

from repro.driver import build_scenario
from repro.driver.core import Driver, DriverConfig
from repro.execution.contracts import SmartContract
from repro.network.simnet import Node, SimNetwork
from repro.platforms.corda import Command, ContractState, CordaNetwork
from repro.platforms.fabric import FabricNetwork
from repro.platforms.quorum import QuorumNetwork

ORGS = ("Org1", "Org2", "Org3")


def record_events(network, monkeypatch) -> list:
    """Every send and every delivery on *network*, in the order they
    happen, as ``(what, message, clock time)``; a delivery is recorded
    before its handlers run."""
    events = []
    queue_copy = network._queue_copy

    def sending(*args):
        message = queue_copy(*args)
        events.append(("send", message, network.clock.now))
        return message

    deliver = Node.deliver

    def delivering(node, message):
        events.append(("deliver", message, network.clock.now))
        return deliver(node, message)

    monkeypatch.setattr(network, "_queue_copy", sending)
    monkeypatch.setattr(Node, "deliver", delivering)
    return events


def assert_causal(events, first_hops: set[str], kinds: set[str]) -> None:
    """Only *first_hops* kinds lack a cause; every other message is sent
    after its cause was delivered; the flow sent exactly *kinds*."""
    delivered: dict[int, float] = {}
    for what, message, now in events:
        if what == "deliver":
            delivered.setdefault(message.message_id, now)
        elif message.caused_by is None:
            assert message.kind in first_hops, message.kind
        else:
            assert message.caused_by in delivered, (message.kind, "sent too early")
            assert delivered[message.caused_by] <= message.sent_at
    assert {message.kind for what, message, __ in events if what == "send"} == kinds


def put_contract(language: str) -> SmartContract:
    def put(view, args):
        view.put(args["key"], args["value"])
        return args["value"]

    return SmartContract("cc", 1, language, functions={"put": put})


def test_fabric_invoke_is_causal(monkeypatch):
    net = FabricNetwork(seed="causality", orderer_operators=ORGS)
    for org in ORGS:
        net.onboard(org)
    net.create_channel("ch", list(ORGS))
    net.deploy_chaincode("ch", put_contract("python-chaincode"), ["Org1", "Org2"])
    events = record_events(net.network, monkeypatch)
    net.invoke("ch", "Org3", "cc", "put", {"key": "k", "value": 1})
    assert_causal(events, {"proposal"}, {
        "proposal", "endorsement", "submit", "block", "append", "append-ack",
    })


def test_corda_flow_is_causal(monkeypatch):
    net = CordaNetwork(
        seed="causality", validating_notary=False, notary_operators=ORGS
    )
    for party in ORGS:
        net.onboard(party)
    net.register_contract("iou", lambda wire: None)

    def flow(initiator, counterparty, inputs=()):
        wire = net.build_transaction(
            inputs=list(inputs),
            outputs=[ContractState("iou", (initiator, counterparty), {"amount": 5})],
            commands=[Command(name="Move", signers=(initiator, counterparty))],
        )
        return net.run_flow(initiator, wire)

    issued = flow("Org1", "Org2")
    events = record_events(net.network, monkeypatch)
    flow("Org1", "Org3", inputs=issued.output_refs)
    assert_causal(events, {"flow-proposal"}, {
        "flow-proposal", "flow-signature", "notarise-filtered", "notarised",
        "append", "append-ack", "backchain-tx", "finalise",
    })


def test_quorum_private_transaction_is_causal(monkeypatch):
    net = QuorumNetwork(seed="causality")
    for node in ORGS:
        net.onboard(node)
    net.deploy_contract("Org1", put_contract("evm-solidity"))
    events = record_events(net.network, monkeypatch)
    net.send_private_transaction(
        "Org1", "cc", "put", {"key": "k", "value": 1}, private_for=["Org2"]
    )
    assert_causal(
        events, {"private-payload", "submit"},
        {"private-payload", "submit", "private-tx"},
    )


def test_unhandled_delivery_is_counted_once_and_never_for_a_duplicate():
    net = SimNetwork()
    net.add_node("A")
    net.add_node("B").on("handled", lambda message: None)
    net.send("A", "B", "handled", 1)
    net.send("A", "B", "ceremony", 1, dedup_key="once")
    net.send("A", "B", "ceremony", 1, dedup_key="once")
    net.run()
    assert net.stats.unhandled == 1
    assert net.stats.deduplicated == 1


@pytest.mark.parametrize("workload", ["kv", "loc", "trades"])
@pytest.mark.parametrize("platform_name", ["fabric", "corda", "quorum"])
def test_driver_runs_leave_no_delivery_unhandled(platform_name, workload):
    scenario = build_scenario(platform_name, workload, 12, seed="causality")
    report = Driver(scenario.platform, DriverConfig(batch_size=4)).run(
        scenario.requests
    )
    assert report.failed == 0
    counters = scenario.platform.telemetry.metrics.snapshot()["counters"]
    assert counters["net.messages_delivered"] > 0
    assert counters["net.unhandled"] == 0
