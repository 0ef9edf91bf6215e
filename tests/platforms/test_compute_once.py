"""Each transaction's Merkle tree and canonical bytes are computed once."""

from __future__ import annotations

import pytest

import repro.common.serialization as serialization
import repro.platforms.corda.transactions as corda_transactions
from repro.execution.contracts import SmartContract
from repro.ledger.transaction import Transaction
from repro.platforms.corda import Command, ContractState, CordaNetwork, StateRef
from repro.platforms.fabric import FabricNetwork

CORE_KEYS = set(Transaction(channel="c", submitter="s").core_content())


@pytest.mark.parametrize("validating", (False, True))
def test_corda_flow_builds_one_merkle_tree_per_wire(monkeypatch, validating):
    net = CordaNetwork(seed="compute-once", validating_notary=validating)
    for org in ("Alice", "Bob"):
        net.onboard(org)
    net.register_contract("iou", lambda wire: None, language="kotlin")

    def wire_for(inputs, amount):
        state = ContractState(
            contract_id="iou", participants=("Alice", "Bob"),
            data={"amount": amount},
        )
        return net.build_transaction(
            inputs=inputs, outputs=[state],
            commands=[Command(name="Move", signers=("Alice", "Bob"))],
        )

    built = []
    tree_class = corda_transactions.MerkleTree

    def counted_tree(values):
        built.append(values)
        return tree_class(values)

    monkeypatch.setattr(corda_transactions, "MerkleTree", counted_tree)
    first = net.run_flow("Alice", wire_for([], 10))
    assert len(built) == 1
    second = net.run_flow(
        "Alice", wire_for([StateRef(first.stx.wire.tx_id, 0)], 10)
    )
    assert len(built) == 2
    assert second.stx.wire.tx_id != first.stx.wire.tx_id


def test_fabric_invoke_encodes_each_transaction_content_once(monkeypatch):
    net = FabricNetwork(seed="compute-once")
    for org in ("Org1", "Org2"):
        net.onboard(org)
    net.create_channel("ch", ["Org1", "Org2"])

    def put(view, args):
        view.put(args["key"], args["value"])
        return args["value"]

    net.deploy_chaincode(
        "ch", SmartContract("cc", 1, "python-chaincode", {"put": put}),
        ["Org1", "Org2"],
    )

    # Block Merkle leaves are the transactions' signing bytes, so building,
    # appending and verifying blocks adds no encode of the core content.
    encodes: dict[str, int] = {}
    encode = serialization.canonical_json

    def counted_encode(value):
        text = encode(value)
        if isinstance(value, dict) and set(value) == CORE_KEYS:
            encodes[text] = encodes.get(text, 0) + 1
        return text

    monkeypatch.setattr(serialization, "canonical_json", counted_encode)
    for value in (1, 2):
        net.invoke("ch", "Org1", "cc", "put", {"key": "k", "value": value})

    assert net.channel("ch").state_of("Org2").get("k") == 2
    assert len(encodes) == 2
    assert set(encodes.values()) == {1}
