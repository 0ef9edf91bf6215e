"""Contract execution reads through the live world state, never a copy."""

from __future__ import annotations

from repro.execution.contracts import SmartContract
from repro.ledger.state import WorldState
from repro.platforms.fabric import FabricNetwork
from repro.platforms.quorum import QuorumNetwork


def put(view, args):
    view.put(args["key"], view.get(args["key"], 0) + args["value"])
    return args["value"]


def test_fabric_invoke_and_quorum_public_tx_copy_no_state(monkeypatch):
    fabric = FabricNetwork(seed="read-through")
    for org in ("Org1", "Org2"):
        fabric.onboard(org)
    fabric.create_channel("ch", ["Org1", "Org2"])
    fabric.deploy_chaincode(
        "ch", SmartContract("cc", 1, "python-chaincode", {"put": put}),
        ["Org1", "Org2"],
    )
    quorum = QuorumNetwork(seed="read-through")
    for node in ("N1", "N2", "N3"):
        quorum.onboard(node)
    quorum.deploy_contract(
        "N1", SmartContract("store", 1, "evm-solidity", {"put": put})
    )

    copies = []
    snapshot = WorldState.snapshot

    def counted_snapshot(state):
        copies.append(state)
        return snapshot(state)

    monkeypatch.setattr(WorldState, "snapshot", counted_snapshot)
    for __ in range(2):
        fabric.invoke("ch", "Org1", "cc", "put", {"key": "k", "value": 1})
        quorum.send_public_transaction("N1", "store", "put", {"key": "k", "value": 1})

    assert copies == []
    assert fabric.channel("ch").state_of("Org2").get("k") == 2
    assert quorum.public_states["N3"].get("k") == 2
