"""Fabric's orderer delivers one block per cut.

A ``block`` message carries a cut's entries in commit order; catch-up
re-sends one entry per block.  A member applies the entries it has not
applied yet, stops at a gap, and is brought level by ``recover``.
"""

from __future__ import annotations

from repro.execution.contracts import SmartContract
from repro.faults import FaultPlan
from repro.platforms.base import TxRequest
from repro.platforms.fabric import FabricNetwork
from repro.platforms.fabric.network import ORDERER_NODE
from repro.recovery.convergence import audit_convergence

ORGS = ("Org1", "Org2", "Org3")
ENDORSERS = ["Org1", "Org2"]


def fabric_net() -> FabricNetwork:
    def put(view, args):
        view.put(args["key"], args["value"])

    net = FabricNetwork(seed="blocks", resilient_delivery=True)
    for org in ORGS:
        net.onboard(org)
    net.create_channel("ch", list(ORGS))
    net.deploy_chaincode(
        "ch",
        SmartContract(
            contract_id="cc", version=1, language="python-chaincode",
            functions={"put": put},
        ),
        ENDORSERS,
    )
    return net


def requests(count: int, start: int = 0) -> list[TxRequest]:
    """Blind writes to distinct keys: no two of them conflict."""
    return [
        TxRequest("Org1", "cc", "put", {"key": f"k{n}", "value": n}, scope="ch")
        for n in range(start, start + count)
    ]


def cut(net: FabricNetwork, count: int, start: int = 0) -> list[str]:
    """Order *count* blind writes as one batch (one cut); their tx ids."""
    receipts = net.submit_many(requests(count, start))
    assert all(receipt.committed for receipt in receipts)
    return [receipt.tx_id for receipt in receipts]


def counter(net: FabricNetwork, name: str, **labels: str) -> float:
    return net.telemetry.metrics.counter(name, **labels).value


def lose_blocks_to(net: FabricNetwork, member: str) -> None:
    net.inject_faults(FaultPlan().set_link_loss(ORDERER_NODE, member, 1.0))


class TestOneBlockPerCut:
    def test_a_cut_is_one_block_per_live_member(self):
        net = fabric_net()
        before = counter(net, "net.sent_by_kind", kind="block")
        cut(net, 10)
        assert counter(net, "net.sent_by_kind", kind="block") - before == len(ORGS)
        channel = net.channel("ch")
        assert channel.chain.height == 1
        for org in ORGS:
            assert channel.applied[org] == 10
            assert channel.states[org].dump() == channel.states["Org1"].dump()

    def test_block_carries_the_cut_in_commit_order(self):
        net = fabric_net()
        blocks = []
        net.network.node("Org3").on("block", blocks.append)
        tx_ids = cut(net, 10)
        (block,) = blocks
        assert [entry.position for entry in block.payload] == list(range(10))
        assert [entry.tx.tx_id for entry in block.payload] == tx_ids


class TestPartialAndGappedBlocks:
    def test_member_holding_the_first_entry_applies_only_the_suffix(self):
        net = fabric_net()
        channel = net.channel("ch")
        lose_blocks_to(net, "Org3")
        cut(net, 10)
        net.inject_faults(FaultPlan())
        assert channel.applied["Org3"] == 0
        entries = sorted(channel.outcomes.values(), key=lambda e: e.position)
        # A one-entry catch-up block, then the whole cut's block.
        net.network.send("Org1", "Org3", "block", (entries[0],))
        net.network.run()
        assert channel.applied["Org3"] == 1
        validated = counter(net, "fabric.validation", code="VALID")
        net.network.send(ORDERER_NODE, "Org3", "block", tuple(entries))
        net.network.run()
        assert counter(net, "fabric.validation", code="VALID") - validated == 9
        assert channel.applied["Org3"] == 10
        assert channel.states["Org3"].dump() == channel.states["Org1"].dump()

    def test_block_past_a_gap_applies_nothing_until_recover(self):
        net = fabric_net()
        channel = net.channel("ch")
        lose_blocks_to(net, "Org3")
        cut(net, 10)
        net.inject_faults(FaultPlan())
        cut(net, 10, start=10)
        assert channel.applied["Org1"] == 20
        assert channel.applied["Org3"] == 0
        assert channel.states["Org3"].dump() == {}
        net.recover("Org3")
        assert channel.applied["Org3"] == 20
        assert channel.states["Org3"].dump() == channel.states["Org1"].dump()
        assert audit_convergence(net).converged

    def test_lost_block_leaves_member_behind_until_recover(self):
        net = fabric_net()
        channel = net.channel("ch")
        lose_blocks_to(net, "Org3")
        cut(net, 10)
        assert counter(net, "net.dropped.loss") == 1
        assert channel.applied["Org3"] == 0
        assert not audit_convergence(net).converged
        net.inject_faults(FaultPlan())
        net.recover("Org3")
        # Catch-up ships one entry per block.
        assert counter(net, "recovery.catchup.shipped") == 10
        assert channel.states["Org3"].dump() == channel.states["Org1"].dump()
        assert audit_convergence(net).converged


def test_peers_learn_what_one_block_per_transaction_taught():
    """Every node's knowledge after one 10-transaction cut equals its
    knowledge after the same writes ordered one per cut."""
    batched, single = fabric_net(), fabric_net()
    cut(batched, 10)
    for request in requests(10):
        assert single.submit_many([request])[0].committed

    def learned(net):
        return {
            name: {
                field: value
                for field, value in net.network.node(name).observer.knowledge().items()
                if field != "messages_observed"
            }
            for name in net.network.nodes()
        }

    assert learned(batched) == learned(single)
    assert learned(batched)["Org3"]["data_keys"] == sorted(f"k{n}" for n in range(10))
