"""Quorum private-state replay (node recovery) and its deletion conflict."""

from __future__ import annotations

import pytest

from repro.common.errors import MembershipError, PrivacyError
from repro.execution.contracts import SmartContract
from repro.platforms.quorum import QuorumNetwork


@pytest.fixture
def net():
    network = QuorumNetwork(seed="replay-test")
    for node in ("N1", "N2", "N3"):
        network.onboard(node)

    def put(view, args):
        view.put(args["key"], args["value"])
        return args["value"]

    def increment(view, args):
        view.put(args["key"], view.get(args["key"], 0) + 1)
        return view.get(args["key"])

    contract = SmartContract(
        "store", 1, "evm-solidity", {"put": put, "increment": increment}
    )
    network.deploy_contract("N1", contract)
    return network


class TestReplay:
    def test_rebuild_matches_live_state(self, net):
        for n in range(5):
            net.send_private_transaction(
                "N1", "store", "put", {"key": f"k{n}", "value": n},
                private_for=["N2"],
            )
        assert net.verify_private_state("N2")
        assert net.verify_private_state("N1")

    def test_rebuild_respects_transaction_order(self, net):
        for __ in range(3):
            net.send_private_transaction(
                "N1", "store", "increment", {"key": "counter"},
                private_for=["N2"],
            )
        rebuilt = net.rebuild_private_state("N2")
        assert rebuilt.get("counter") == 3

    def test_non_participant_rebuilds_empty(self, net):
        net.send_private_transaction(
            "N1", "store", "put", {"key": "k", "value": 1}, private_for=["N2"]
        )
        assert len(net.rebuild_private_state("N3")) == 0

    def test_unknown_node_rejected(self, net):
        with pytest.raises(MembershipError):
            net.rebuild_private_state("Ghost")

    def test_public_transactions_ignored_by_private_replay(self, net):
        net.send_public_transaction("N1", "store", "put", {"key": "pub", "value": 1})
        net.send_private_transaction(
            "N1", "store", "put", {"key": "priv", "value": 2}, private_for=["N2"]
        )
        rebuilt = net.rebuild_private_state("N2")
        assert rebuilt.exists("priv")
        assert not rebuilt.exists("pub")


class TestDeletionConflict:
    """The executable justification for Quorum's '-' off-chain cell."""

    def test_deleted_payload_breaks_recovery(self, net):
        result = net.send_private_transaction(
            "N1", "store", "put", {"key": "gdpr", "value": "pii"},
            private_for=["N2"],
        )
        net.replicas["N2"].manager.delete(result.payload_hash)
        with pytest.raises(PrivacyError):
            net.rebuild_private_state("N2")

    def test_other_nodes_unaffected_by_local_deletion(self, net):
        result = net.send_private_transaction(
            "N1", "store", "put", {"key": "gdpr", "value": "pii"},
            private_for=["N2"],
        )
        net.replicas["N2"].manager.delete(result.payload_hash)
        # N1 still holds its copy and can recover.
        assert net.verify_private_state("N1")
