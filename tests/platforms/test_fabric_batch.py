"""Fabric batch commit: validation codes and MVCC conflicts in one block."""

from __future__ import annotations

import pytest

from repro.common.errors import DeliveryError, PlatformError
from repro.execution.contracts import SmartContract
from repro.platforms.fabric import ORDERER_NODE, FabricNetwork, ValidationCode


@pytest.fixture
def net():
    network = FabricNetwork(seed="batch-test")
    for org in ("Org1", "Org2"):
        network.onboard(org)
    network.create_channel("ch", ["Org1", "Org2"])

    def put(view, args):
        view.put(args["key"], args["value"])
        return args["value"]

    def transfer(view, args):
        balance = view.get("balance", 0)
        view.put("balance", balance - args["amount"])
        return balance - args["amount"]

    contract = SmartContract(
        "cc", 1, "python-chaincode", {"put": put, "transfer": transfer}
    )
    network.deploy_chaincode("ch", contract, ["Org1", "Org2"])
    return network


class TestBatchCommit:
    def test_independent_proposals_all_valid(self, net):
        proposals = [
            net.propose("ch", "Org1", "cc", "put", {"key": f"k{n}", "value": n})
            for n in range(3)
        ]
        results = net.submit_batch("ch", proposals)
        assert all(r.valid for r in results)
        assert all(r.validation_code is ValidationCode.VALID for r in results)

    def test_one_block_many_transactions(self, net):
        proposals = [
            net.propose("ch", "Org1", "cc", "put", {"key": f"k{n}", "value": n})
            for n in range(4)
        ]
        height_before = net.channel("ch").chain.height
        net.submit_batch("ch", proposals)
        chain = net.channel("ch").chain
        assert chain.height == height_before + 1
        assert len(chain.blocks()[-1].transactions) == 4
        chain.verify()

    def test_wrong_channel_rejected(self, net):
        net.create_channel("other", ["Org1"])
        proposal = net.propose("ch", "Org1", "cc", "put", {"key": "k", "value": 1})
        with pytest.raises(PlatformError, match="different channel"):
            net.submit_batch("other", [proposal])


class TestMVCCConflicts:
    def test_conflicting_reads_first_wins(self, net):
        """Two transfers endorsed over the same balance snapshot: the
        second is marked MVCC_READ_CONFLICT and does not apply."""
        net.invoke("ch", "Org1", "cc", "put", {"key": "balance", "value": 100})
        a = net.propose("ch", "Org1", "cc", "transfer", {"amount": 30})
        b = net.propose("ch", "Org2", "cc", "transfer", {"amount": 50})
        results = net.submit_batch("ch", [a, b])
        assert results[0].validation_code is ValidationCode.VALID
        assert results[1].validation_code is ValidationCode.MVCC_READ_CONFLICT
        # Only the first transfer applied — no double spend of the balance.
        assert net.channel("ch").reference_state().get("balance") == 70

    def test_conflict_ordering_is_block_order(self, net):
        net.invoke("ch", "Org1", "cc", "put", {"key": "balance", "value": 100})
        a = net.propose("ch", "Org1", "cc", "transfer", {"amount": 30})
        b = net.propose("ch", "Org2", "cc", "transfer", {"amount": 50})
        results = net.submit_batch("ch", [b, a])
        assert results[0].valid
        assert not results[1].valid
        assert net.channel("ch").reference_state().get("balance") == 50

    def test_invalid_tx_still_recorded_on_chain(self, net):
        net.invoke("ch", "Org1", "cc", "put", {"key": "balance", "value": 10})
        a = net.propose("ch", "Org1", "cc", "transfer", {"amount": 1})
        b = net.propose("ch", "Org2", "cc", "transfer", {"amount": 2})
        results = net.submit_batch("ch", [a, b])
        channel = net.channel("ch")
        chain_tx_ids = {tx.tx_id for tx in channel.chain.transactions()}
        assert results[1].tx.tx_id in chain_tx_ids
        assert results[1].tx.tx_id in channel.invalid_tx_ids

    def test_replicas_consistent_after_conflicts(self, net):
        net.invoke("ch", "Org1", "cc", "put", {"key": "balance", "value": 100})
        proposals = [
            net.propose("ch", "Org1", "cc", "transfer", {"amount": 10})
            for __ in range(4)
        ]
        results = net.submit_batch("ch", proposals)
        assert [r.valid for r in results] == [True, False, False, False]
        assert net.channel("ch").replicas_consistent()

    def test_disjoint_keys_do_not_conflict(self, net):
        a = net.propose("ch", "Org1", "cc", "put", {"key": "x", "value": 1})
        b = net.propose("ch", "Org2", "cc", "put", {"key": "y", "value": 2})
        results = net.submit_batch("ch", [a, b])
        assert all(r.valid for r in results)


class TestMixedSubmitters:
    """A batch of several submitters' transactions: each submitter sends
    its own share, and the orderer orders the batch once all of it has
    arrived, in the order the client gave."""

    def test_each_share_travels_from_its_submitter(self, net):
        proposals = [
            net.propose("ch", org, "cc", "put", {"key": f"k{n}", "value": n})
            for n, org in enumerate(("Org1", "Org2", "Org1"))
        ]
        shares = []
        net.network.node(ORDERER_NODE).on("submit", shares.append)
        results = net.submit_batch("ch", proposals)
        assert sorted(
            (m.sender, [tx.submitter for tx, __ in m.payload[2]]) for m in shares
        ) == [("Org1", ["Org1", "Org1"]), ("Org2", ["Org2"])]
        assert [r.tx.tx_id for r in results] == [p.tx.tx_id for p in proposals]
        block = net.channel("ch").chain.blocks()[-1]
        assert [tx.tx_id for tx in block.transactions] == [
            p.tx.tx_id for p in proposals
        ]

    def test_unreachable_submitter_orders_nothing(self, net):
        first = net.propose("ch", "Org1", "cc", "put", {"key": "a", "value": 1})
        second = net.propose("ch", "Org2", "cc", "put", {"key": "b", "value": 2})
        net.network.partition("Org2", ORDERER_NODE)
        height = net.channel("ch").chain.height
        with pytest.raises(DeliveryError, match="partition"):
            net.submit_batch("ch", [first, second])
        assert net.channel("ch").chain.height == height
        assert net.orderer.total_ordered == 0
        net.network.heal("Org2", ORDERER_NODE)
        assert all(r.valid for r in net.submit_batch("ch", [first, second]))


class TestOversizedBatch:
    def test_batch_over_max_size_is_ordered_whole(self, net):
        """A batch larger than the orderer's ``max_batch_size`` is cut into
        several blocks; nothing is left pending for the next batch."""
        assert net.orderer.profile.max_batch_size == 100
        proposals = [
            net.propose("ch", "Org1", "cc", "put", {"key": f"k{n}", "value": n})
            for n in range(150)
        ]
        chain = net.channel("ch").chain
        height_before = chain.height
        results = net.submit_batch("ch", proposals)
        assert net.orderer.pending_count("ch") == 0
        assert net.orderer.total_ordered == 150
        assert chain.height == height_before + 2
        assert [len(block.transactions) for block in chain.blocks()[-2:]] == [100, 50]
        ordered = [tx.tx_id for block in chain.blocks()[-2:] for tx in block.transactions]
        assert ordered == [proposal.tx.tx_id for proposal in proposals]
        assert all(r.validation_code is ValidationCode.VALID for r in results)
        chain.verify()
