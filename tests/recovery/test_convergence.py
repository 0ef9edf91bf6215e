"""The convergence audit: per-visibility-group agreement, structured findings."""

from __future__ import annotations

import pytest

from repro.common.errors import PlatformError
from repro.execution.contracts import SmartContract
from repro.faults import FaultPlan
from repro.platforms.corda import Command, ContractState, CordaNetwork
from repro.platforms.fabric import FabricNetwork
from repro.platforms.fabric.network import ORDERER_NODE
from repro.platforms.quorum import QuorumNetwork
from repro.recovery import audit_convergence

ORGS = ("OrgA", "OrgB", "OrgC")


def put_contract(cid="store", language="python-chaincode"):
    def put(view, args):
        view.put(args["key"], args["value"])
        return args["value"]

    return SmartContract(
        contract_id=cid, version=1, language=language, functions={"put": put}
    )


@pytest.fixture
def fabric():
    net = FabricNetwork(seed="conv-fabric")
    for org in ORGS:
        net.onboard(org)
    net.create_channel("ch", list(ORGS))
    net.deploy_chaincode("ch", put_contract(), list(ORGS))
    net.invoke("ch", "OrgA", "store", "put", {"key": "k", "value": 1})
    return net


@pytest.fixture
def corda():
    net = CordaNetwork(seed="conv-corda")
    for org in ORGS:
        net.onboard(org)
    net.register_contract("deal", lambda wire: None, language="kotlin")
    state = ContractState(
        contract_id="deal", participants=("OrgA", "OrgB"), data={"amount": 10}
    )
    wire = net.build_transaction(
        inputs=[], outputs=[state],
        commands=[Command(name="Deal", signers=("OrgA", "OrgB"))],
    )
    result = net.run_flow("OrgA", wire)
    return net, wire, result.output_refs[0]


@pytest.fixture
def quorum():
    net = QuorumNetwork(seed="conv-quorum")
    for org in ORGS:
        net.onboard(org)
    net.deploy_contract("OrgA", put_contract("evm", language="evm-solidity"))
    net.send_public_transaction("OrgA", "evm", "put", {"key": "p", "value": 1})
    net.send_private_transaction(
        "OrgA", "evm", "put", {"key": "s", "value": 2}, private_for=["OrgB"]
    )
    return net


class TestConvergedReports:
    def test_fabric_clean_run_converges(self, fabric):
        report = audit_convergence(fabric)
        assert report.converged
        assert report.checked_nodes == ORGS
        assert "CONVERGED" in report.render()

    def test_corda_clean_run_converges(self, corda):
        net, __, __ = corda
        report = audit_convergence(net)
        assert report.converged

    def test_quorum_clean_run_converges(self, quorum):
        report = audit_convergence(quorum)
        assert report.converged

    def test_crashed_nodes_skipped_and_reported(self, fabric):
        fabric.crash("OrgC")
        report = audit_convergence(fabric)
        assert report.converged  # a down node is lagging, not diverged
        assert report.skipped_nodes == ("OrgC",)
        assert "skipped (down): OrgC" in report.render()

    def test_audit_counts_checks(self, fabric):
        audit_convergence(fabric)
        counters = fabric.telemetry.metrics.snapshot()["counters"]
        assert counters["recovery.convergence.checks{platform=fabric}"] == 1


class TestDivergenceDetection:
    def test_fabric_replica_mismatch_detected(self, fabric):
        channel = fabric.channel("ch")
        channel.state_of("OrgB").put("k", 999)
        report = audit_convergence(fabric)
        assert not report.converged
        finding = report.divergences[0]
        assert finding.scope == "ch"
        assert finding.nodes == ("OrgB",)
        assert "DIVERGED" in report.render()

    def test_fabric_version_skew_counts_as_divergence(self, fabric):
        """Same values, different MVCC versions: diverges on next read."""
        channel = fabric.channel("ch")
        state = channel.state_of("OrgB")
        state.put("k", state.get("k"))  # value unchanged, version bumped
        report = audit_convergence(fabric)
        assert not report.converged

    def test_fabric_member_behind_an_invalid_block_detected(
        self, fabric, fault_after
    ):
        """A lost block whose only transaction was invalid leaves the
        replica identical to its peers', but the member is still behind
        the channel until it recovers."""

        def bump(view, args):
            view.put("k", view.get("k") + 1)

        fabric.deploy_chaincode(
            "ch",
            SmartContract("bump", 1, "python-chaincode", functions={"bump": bump}),
            list(ORGS),
        )
        stale = fabric.propose("ch", "OrgA", "bump", "bump", {})
        fabric.invoke("ch", "OrgA", "bump", "bump", {})
        fault_after(
            fabric, ORDERER_NODE, "submit",
            lambda at: FaultPlan().partition_between(
                ORDERER_NODE, "OrgC", start=at + 0.001, end=at + 10
            ),
        )
        [result] = fabric.submit_batch("ch", [stale])
        assert not result.valid
        channel = fabric.channel("ch")
        assert channel.state_of("OrgC").dump() == channel.state_of("OrgA").dump()
        report = audit_convergence(fabric)
        assert [(d.scope, d.nodes) for d in report.divergences] == [
            ("ch", ("OrgC",))
        ]
        fabric.recover("OrgC")
        assert audit_convergence(fabric).converged

    def test_corda_missing_entitled_transaction_detected(self, corda):
        net, wire, __ = corda
        del net.vaults["OrgB"].transactions[wire.tx_id]
        report = audit_convergence(net)
        assert any(
            d.scope == wire.tx_id and "OrgB" in d.nodes
            for d in report.divergences
        )

    def test_corda_dropped_unconsumed_state_detected(self, corda):
        net, __, ref = corda
        net.vaults["OrgB"].unconsumed.pop(ref)
        report = audit_convergence(net)
        assert any(
            d.scope == f"{ref.tx_id}:{ref.index}" for d in report.divergences
        )

    def test_quorum_public_mismatch_detected(self, quorum):
        quorum.public_states["OrgC"].put("p", 404)
        report = audit_convergence(quorum)
        assert any(d.scope == "public-chain" for d in report.divergences)

    def test_quorum_double_spend_surfaces_as_divergence(self, quorum):
        """The paper's private double-spend flaw is visible to the audit."""
        quorum.demonstrate_private_double_spend(
            "OrgA", "asset/1", group_a=["OrgB"], group_b=["OrgC"]
        )
        report = audit_convergence(quorum)
        assert any(d.scope == "asset/1" for d in report.divergences)

    def test_quorum_lost_payload_breaks_replayability(self, quorum):
        manager = quorum.replicas["OrgB"].manager
        for payload_hash in manager.payload_hashes():
            manager.delete(payload_hash)
        report = audit_convergence(quorum)
        assert any(
            d.scope == "private-replay" and d.nodes == ("OrgB",)
            for d in report.divergences
        )

    def test_divergences_counted_and_emitted(self, fabric):
        fabric.channel("ch").state_of("OrgB").put("k", 999)
        audit_convergence(fabric)
        counters = fabric.telemetry.metrics.snapshot()["counters"]
        assert counters["recovery.convergence.divergences{platform=fabric}"] == 1
        assert fabric.telemetry.events.named("recovery.divergence")


class TestDispatch:
    def test_unknown_platform_rejected(self):
        class Fake:
            platform_name = "besu"

        with pytest.raises(PlatformError, match="besu"):
            audit_convergence(Fake())
