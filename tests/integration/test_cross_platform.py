"""Integration: the same logical trade on all three platforms.

Asserts the business outcome is identical everywhere while the privacy
footprint differs exactly as the paper describes — the central claim of
Section 5.
"""

from __future__ import annotations

import pytest

from repro.execution.contracts import SmartContract
from repro.platforms.corda import Command, ContractState, CordaNetwork
from repro.platforms.fabric import FabricNetwork
from repro.platforms.quorum import QuorumNetwork

PARTIES = ("Acme", "Globex")
OUTSIDER = "Initech"
TRADE = {"sku": "widget-9", "quantity": 100, "price": 250}


def run_on_fabric():
    net = FabricNetwork(seed="xp-fabric")
    for org in PARTIES + (OUTSIDER,):
        net.onboard(org)
    net.create_channel("trade", list(PARTIES))

    def record(view, args):
        view.put("trade/1", args["trade"])
        return args["trade"]

    contract = SmartContract("trade-cc", 1, "python-chaincode", {"record": record})
    net.deploy_chaincode("trade", contract, list(PARTIES))
    net.invoke("trade", "Acme", "trade-cc", "record", {"trade": TRADE})
    recorded = net.channel("trade").state_of("Globex").get("trade/1")
    outsider_knowledge = net.network.node(OUTSIDER).observer.knowledge()
    return recorded, outsider_knowledge


def run_on_corda():
    net = CordaNetwork(seed="xp-corda")
    for org in PARTIES + (OUTSIDER,):
        net.onboard(org)
    net.register_contract("trade-contract", lambda wire: None)
    state = ContractState("trade-contract", PARTIES, dict(TRADE))
    wire = net.build_transaction(
        inputs=[], outputs=[state],
        commands=[Command(name="Trade", signers=PARTIES)],
    )
    result = net.run_flow("Acme", wire)
    recorded = net.vault("Globex").state_at(result.output_refs[0]).data
    outsider_knowledge = net.network.node(OUTSIDER).observer.knowledge()
    return recorded, outsider_knowledge


def run_on_quorum():
    net = QuorumNetwork(seed="xp-quorum")
    for org in PARTIES + (OUTSIDER,):
        net.onboard(org)

    def record(view, args):
        view.put("trade/1", args["trade"])
        return args["trade"]

    contract = SmartContract("trade-evm", 1, "evm-solidity", {"record": record})
    net.deploy_contract("Acme", contract, private_for=list(PARTIES))
    net.send_private_transaction(
        "Acme", "trade-evm", "record", {"trade": TRADE}, private_for=["Globex"]
    )
    recorded = net.private_states["Globex"].get("trade/1")
    outsider_knowledge = net.network.node(OUTSIDER).observer.knowledge()
    return recorded, outsider_knowledge


@pytest.fixture(scope="module")
def outcomes():
    return {
        "fabric": run_on_fabric(),
        "corda": run_on_corda(),
        "quorum": run_on_quorum(),
    }


class TestBusinessEquivalence:
    def test_identical_recorded_trade_everywhere(self, outcomes):
        recorded = {name: result[0] for name, result in outcomes.items()}
        assert recorded["fabric"] == TRADE
        assert recorded["corda"] == TRADE
        assert recorded["quorum"] == TRADE


class TestPrivacyFootprints:
    def test_fabric_and_corda_hide_everything_from_outsider(self, outcomes):
        for platform in ("fabric", "corda"):
            knowledge = outcomes[platform][1]
            assert knowledge["identities"] == []
            assert knowledge["data_keys"] == []

    def test_quorum_leaks_participants_but_not_data(self, outcomes):
        knowledge = outcomes["quorum"][1]
        assert set(PARTIES) <= set(knowledge["identities"])
        assert knowledge["data_keys"] == []

    def test_data_keys_never_leak_anywhere(self, outcomes):
        for platform, (__, knowledge) in outcomes.items():
            assert "trade/1" not in knowledge["data_keys"], platform
