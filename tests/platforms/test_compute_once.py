"""Each transaction's Merkle tree and canonical bytes are computed once."""

from __future__ import annotations

import cProfile
import pstats

import pytest

import repro.common.serialization as serialization
import repro.platforms.corda.transactions as corda_transactions
from repro.driver import Driver, DriverConfig, build_scenario
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


#: Exact ``canonical_json`` calls made while a seeded scenario is driven
#: (batches of 10) and delivered, and the transactions it commits.
#: Fabric encodes each transaction's core bytes and its proposal once,
#: each private-data write's anchor once, and the header of each block
#: a later block links to; Corda each transaction's four Merkle leaves
#: and the one leaf its notary's tear-off check hashes; Quorum each
#: transaction's core bytes, each private payload once, and the header
#: of each linked block.  No certificate or flag is encoded per
#: transaction.
ENCODES = {
    ("fabric", "kv"): (125, 60),
    ("corda", "kv"): (300, 60),
    ("quorum", "kv"): (119, 60),
    ("fabric", "loc"): (139, 59),
    ("corda", "loc"): (295, 59),
    ("quorum", "loc"): (176, 59),
}
SIZES = {"kv": (60, 0.99), "loc": (16, 0.0)}


@pytest.mark.parametrize(
    "platform, workload", sorted(ENCODES), ids="-".join
)
def test_encodes_per_committed_transaction(platform, workload):
    operations, skew = SIZES[workload]
    scenario = build_scenario(
        platform, workload, operations, skew=skew, seed="compute-once"
    )
    driver = Driver(scenario.platform, DriverConfig(batch_size=10))
    # Counted by code object, as a profile counts it, so a caller that
    # bound the function under another name is counted too.
    profile = cProfile.Profile()
    profile.enable()
    report = driver.run(scenario.requests)
    scenario.platform.network.run()
    profile.disable()
    code = serialization.canonical_json.__code__
    calls = sum(
        entry[1]
        for (filename, line, name), entry in pstats.Stats(profile).stats.items()
        if name == code.co_name and filename == code.co_filename
    )
    assert report.failed == 0
    assert (calls, report.committed) == ENCODES[platform, workload]
