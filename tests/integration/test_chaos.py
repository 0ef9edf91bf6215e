"""Chaos scenarios: the letter-of-credit use case under injected faults.

Section 3.4's ordering-service feasibility question only has content under
faults, so each platform simulation runs the LoC lifecycle under every
fault class — silent loss, latency spikes, partitions, node crashes, and
ordering-service outages — asserting two properties:

- **liveness**: the flow either commits after the fault heals, or fails
  with a *typed* error (never a silent wrong result, never double-apply);
- **privacy invariance**: faults must never widen any observer's
  knowledge — the L1 leakage audit reports identical results with faults
  on and off.
"""

from __future__ import annotations

import pytest

from repro.common.errors import (
    DeliveryError,
    DeliveryTimeout,
    EndorsementError,
    OrderingError,
)
from repro.core.audit import audit_all
from repro.execution.contracts import SmartContract
from repro.faults.plan import FaultPlan
from repro.platforms.corda import Command, ContractState
from repro.platforms.corda.network import NOTARY_NODE, CordaNetwork
from repro.platforms.fabric.network import ORDERER_NODE, FabricNetwork
from repro.platforms.quorum.network import SEQUENCER_NODE, QuorumNetwork
from repro.recovery.convergence import audit_convergence
from repro.usecases.letter_of_credit import PARTIES, LetterOfCreditWorkflow


def loc_workflow(network_type, **network_kwargs) -> LetterOfCreditWorkflow:
    """The letter-of-credit workflow on a fresh *network_type* network,
    with an uninvolved outsider onboarded."""
    seed = f"chaos-{network_type.platform_name}"
    wf = LetterOfCreditWorkflow(network_type(seed=seed, **network_kwargs))
    wf.setup(extra_network_members=("OutsiderCo",))
    return wf


def lagging_nodes(platform) -> set[str]:
    """Nodes the convergence audit names in any divergence."""
    report = audit_convergence(platform)
    return {node for divergence in report.divergences for node in divergence.nodes}


class TestFabricChaos:
    def test_block_lost_in_flight_leaves_member_behind(self, fault_after):
        """A partition that opens after the orderer sends a block drops it
        in flight: the member's replica lags, the audit flags it, and
        ``recover`` heals the live member through catch-up; a later
        crash + recover changes nothing."""
        net = FabricNetwork(seed="chaos-fabric-inflight")
        for org in ("A", "B", "C"):
            net.onboard(org)
        net.create_channel("ch", ["A", "B", "C"])

        def put(view, args):
            view.put(args["key"], args["value"])
            return args["value"]

        contract = SmartContract(
            "cc", 1, "python-chaincode", functions={"put": put}
        )
        net.deploy_chaincode("ch", contract, ["A", "B"])
        fault_after(
            net, ORDERER_NODE, "submit",
            lambda at: FaultPlan().partition_between(
                ORDERER_NODE, "C", start=at + 0.001, end=at + 10
            ),
        )
        net.invoke("ch", "A", "cc", "put", {"key": "k", "value": 1})
        channel = net.channel("ch")
        assert net.network.stats.dropped_by_partition == 1
        assert channel.states["A"].get("k") == 1
        assert not channel.states["C"].exists("k")
        assert "k" not in net.network.node("C").observer.seen_data_keys
        assert lagging_nodes(net) == {"C"}

        net.recover("C")
        assert channel.states["C"].dump() == channel.states["A"].dump()
        assert audit_convergence(net).converged
        assert "k" in net.network.node("C").observer.seen_data_keys

        net.crash("C")
        net.recover("C")
        assert channel.states["C"].dump() == channel.states["A"].dump()
        assert audit_convergence(net).converged

    def test_lagging_endorser_cannot_commit_a_lost_update(self, fault_after):
        """An endorser loses a block in flight.  A read-modify-write it
        executes on its stale replica disagrees with the up-to-date
        endorser's, so the client refuses it before ordering instead of
        overwriting the newer value; once it recovers, the write commits."""
        net = FabricNetwork(seed="chaos-fabric-lost-update")
        for org in ("A", "B", "C"):
            net.onboard(org)
        net.create_channel("ch", ["A", "B", "C"])

        def put(view, args):
            view.put(args["key"], args["value"])

        def add(view, args):
            view.put(args["key"], view.get(args["key"]) + args["by"])

        contract = SmartContract(
            "cc", 1, "python-chaincode", functions={"put": put, "add": add}
        )
        net.deploy_chaincode("ch", contract, ["A", "B"])
        net.invoke("ch", "B", "cc", "put", {"key": "k", "value": 1})
        now = net.clock.now
        fault_after(
            net, ORDERER_NODE, "submit",
            lambda at: FaultPlan().partition_between(
                ORDERER_NODE, "A", start=at + 0.001, end=now + 1
            ),
        )
        net.invoke("ch", "B", "cc", "add", {"key": "k", "by": 1})
        channel = net.channel("ch")
        assert channel.states["A"].get("k") == 1
        assert channel.states["B"].get("k") == 2
        net.clock.advance_to(now + 1)
        with pytest.raises(EndorsementError, match="divergent write set"):
            net.invoke("ch", "B", "cc", "add", {"key": "k", "by": 1})
        assert channel.states["B"].get("k") == 2
        assert channel.states["C"].get("k") == 2

        net.crash("A")
        net.recover("A")
        net.invoke("ch", "B", "cc", "add", {"key": "k", "by": 1})
        for org in ("A", "B", "C"):
            assert channel.states[org].get("k") == 3
        assert audit_convergence(net).converged

    def test_orderer_outage_then_recovery(self):
        """Crash the orderer mid-lifecycle; work resumes after recovery."""
        wf = loc_workflow(FabricNetwork)
        wf.apply_for_credit("LC-1", amount=1000, buyer_passport="P-1")
        wf.network.crash_ordering()
        with pytest.raises(OrderingError, match="down"):
            wf.issue("LC-1")
        wf.network.recover_ordering()
        assert wf.issue("LC-1") == "issued"
        wf.ship("LC-1")
        assert wf.pay("LC-1") == "paid"

    def test_partition_to_orderer_heals(self):
        """The submitter-to-orderer link is cut, then healed."""
        wf = loc_workflow(FabricNetwork)
        wf.network.network.partition("BuyerCo", ORDERER_NODE)
        with pytest.raises(DeliveryError, match="partition"):
            wf.apply_for_credit("LC-2", amount=1000, buyer_passport="P-2")
        wf.network.network.heal("BuyerCo", ORDERER_NODE)
        wf.apply_for_credit("LC-2", amount=1000, buyer_passport="P-2")
        wf.issue("LC-2")
        wf.ship("LC-2")
        assert wf.status_of("LC-2", "SellerCo") == "shipped"

    def test_node_crash_window_blocks_then_recovers(self):
        """A party is down for a window; its actions resume afterwards."""
        wf = loc_workflow(FabricNetwork)
        wf.apply_for_credit("LC-3", amount=1000, buyer_passport="P-3")
        wf.issue("LC-3")
        now = wf.network.clock.now
        wf.network.inject_faults(
            FaultPlan().crash_node("SellerCo", start=now, end=now + 1.0)
        )
        with pytest.raises(DeliveryError, match="down"):
            wf.ship("LC-3")  # the seller's sends are refused while down
        wf.network.clock.advance_to(now + 1.0)
        assert wf.ship("LC-3") == "shipped"
        assert wf.pay("LC-3") == "paid"

    def test_resilient_delivery_rides_out_transient_partition(self):
        """With resilient delivery on, a timed partition is retried away."""
        wf = loc_workflow(FabricNetwork, resilient_delivery=True)
        wf.network.inject_faults(
            FaultPlan().partition_between("BuyerCo", ORDERER_NODE, start=0.0, end=0.2)
        )
        loc = wf.apply_for_credit("LC-4", amount=1000, buyer_passport="P-4")
        assert loc.status == "applied"
        assert wf.network.network.stats.retries > 0

    def test_resilient_delivery_surfaces_permanent_fault_as_typed_error(self):
        wf = loc_workflow(FabricNetwork, resilient_delivery=True)
        wf.network.network.partition("BuyerCo", ORDERER_NODE)  # never heals
        with pytest.raises(DeliveryTimeout):
            wf.apply_for_credit("LC-5", amount=1000, buyer_passport="P-5")


class TestCordaChaos:
    def test_notary_outage_then_recovery(self):
        wf = loc_workflow(CordaNetwork)
        wf.apply_for_credit("LC-C1", amount=1000, buyer_passport="P-1")
        wf.network.crash_ordering()
        with pytest.raises(OrderingError, match="down"):
            wf.issue("LC-C1")
        wf.network.recover_ordering()
        assert wf.issue("LC-C1") == "issued"
        wf.ship("LC-C1")
        assert wf.pay("LC-C1") == "paid"

    def test_partition_to_notary_heals(self):
        wf = loc_workflow(CordaNetwork)
        wf.network.network.partition("BuyerCo", NOTARY_NODE)
        with pytest.raises(DeliveryError, match="partition"):
            wf.apply_for_credit("LC-C2", amount=1000, buyer_passport="P-2")
        wf.network.network.heal("BuyerCo", NOTARY_NODE)
        assert wf.run_full_lifecycle("LC-C2").status == "paid"

    def test_latency_spike_does_not_block_commit(self):
        wf = loc_workflow(CordaNetwork)
        wf.network.inject_faults(FaultPlan().slow_all(10.0))
        assert wf.run_full_lifecycle("LC-C3").status == "paid"
        assert wf.status_of("LC-C3", "SellerCo") == "paid"

    def test_resilient_delivery_rides_out_transient_partition(self):
        wf = loc_workflow(CordaNetwork, resilient_delivery=True)
        wf.network.inject_faults(
            FaultPlan().partition_between("BuyerCo", NOTARY_NODE, start=0.0, end=0.2)
        )
        loc = wf.apply_for_credit("LC-C4", amount=1000, buyer_passport="P-4")
        assert loc.status == "applied"
        assert wf.status_of("LC-C4", "SellerCo") == "applied"
        assert wf.network.network.stats.retries > 0


    def test_finalise_lost_in_flight_leaves_party_behind(self, fault_after):
        """A partition that opens after the initiator sends ``finalise``
        drops it in flight: that party's vault lacks the transaction, the
        audit flags it, and ``recover`` heals the live party from another
        participant."""
        net = CordaNetwork(seed="chaos-corda-inflight")
        for org in ("A", "B", "C"):
            net.onboard(org)
        net.register_contract("deal", lambda wire: None, language="kotlin")
        state = ContractState(
            contract_id="deal", participants=("A", "B", "C"), data={"k": 1}
        )
        wire = net.build_transaction(
            inputs=[], outputs=[state],
            commands=[Command(name="Deal", signers=("A",))],
        )
        # The notary's answer is the last delivery before the initiator
        # finalises, so the cut opens just after ``finalise`` is sent.
        fault_after(
            net, "A", "notarised",
            lambda at: FaultPlan().partition_between(
                "A", "C", start=at + 0.001, end=at + 10
            ),
        )
        net.run_flow("A", wire)
        assert net.vault("B").knows_transaction(wire.tx_id)
        assert not net.vault("C").knows_transaction(wire.tx_id)
        assert lagging_nodes(net) == {"C"}

        net.recover("C")
        assert net.vault("C").knows_transaction(wire.tx_id)
        assert net.vault("C").unconsumed == net.vault("B").unconsumed
        assert audit_convergence(net).converged


class TestQuorumChaos:
    def test_sequencer_crash_fails_before_state_mutation(self):
        """An outage mid-lifecycle cannot half-apply a transaction."""
        wf = loc_workflow(QuorumNetwork)
        wf.apply_for_credit("LC-Q1", amount=1000)
        wf.network.crash_ordering()
        with pytest.raises(OrderingError, match="down"):
            wf.issue("LC-Q1")
        # No participant's private state moved: the retry cannot double-apply.
        for party in ("BuyerCo", "SellerCo", "IssuingBank"):
            assert wf.status_of("LC-Q1", party) == "applied"
        wf.network.recover_ordering()
        wf.issue("LC-Q1")
        for party in ("BuyerCo", "SellerCo", "IssuingBank"):
            assert wf.status_of("LC-Q1", party) == "issued"

    def test_partition_between_parties_heals(self):
        wf = loc_workflow(QuorumNetwork)
        wf.apply_for_credit("LC-Q2", amount=1000)
        wf.network.network.partition("IssuingBank", "BuyerCo")
        with pytest.raises(DeliveryError, match="partition"):
            wf.issue("LC-Q2")
        assert wf.status_of("LC-Q2", "BuyerCo") == "applied"  # consistent
        wf.network.network.heal("IssuingBank", "BuyerCo")
        wf.issue("LC-Q2")
        assert wf.status_of("LC-Q2", "BuyerCo") == "issued"

    def test_silent_loss_does_not_corrupt_lifecycle(self):
        """Lost messages leave a participant behind, never wrong: the
        audit names exactly the laggards, and once they catch up the
        lifecycle finishes everywhere."""
        wf = loc_workflow(QuorumNetwork)
        net = wf.network
        net.inject_faults(FaultPlan().set_default_loss(0.5))
        wf.apply_for_credit("LC-Q3", amount=1000)
        behind = set()
        for party in PARTIES:
            held = net.private_states[party].get_or("loc/LC-Q3")
            if held is None:
                behind.add(party)
            else:
                assert held["status"] == "applied"
        assert behind  # the loss did reach a participant
        # The audit names every participant missing the letter, and at
        # most the outsider besides: a non-participant whose copy of the
        # ordered transaction was lost is behind the chain too.
        lagging = lagging_nodes(net)
        assert behind <= lagging <= behind | {"OutsiderCo"}
        net.inject_faults(FaultPlan())
        for party in sorted(lagging):
            net.crash(party)
            net.recover(party)
        assert audit_convergence(net).converged
        wf.issue("LC-Q3")
        wf.ship("LC-Q3")
        wf.pay("LC-Q3")
        for party in PARTIES:
            assert wf.status_of("LC-Q3", party) == "paid"

    def test_gossip_lost_in_flight_leaves_non_participant_behind(
        self, fault_after
    ):
        """A partition that opens after consensus gossips a private
        transaction drops the copy to a non-participant.  Its state
        matches the others (it holds no private state), yet it is behind
        the chain: the audit names it, it refuses to send, and ``recover``
        heals it without handing it the payload."""
        net = QuorumNetwork(seed="chaos-quorum-inflight")
        for org in ("N1", "N2", "N3"):
            net.onboard(org)

        def put(view, args):
            view.put(args["key"], args["value"])

        net.deploy_contract(
            "N1", SmartContract("cc", 1, "evm-solidity", functions={"put": put})
        )
        now = net.clock.now
        fault_after(
            net, SEQUENCER_NODE, "submit",
            lambda at: FaultPlan().partition_between(
                SEQUENCER_NODE, "N3", start=at + 0.001, end=now + 1
            ),
        )
        result = net.send_private_transaction(
            "N1", "cc", "put", {"key": "k", "value": 1}, private_for=["N2"]
        )
        assert net.network.stats.dropped_by_partition == 1
        assert net.private_states["N2"].get("k") == 1
        assert lagging_nodes(net) == {"N3"}
        with pytest.raises(DeliveryError, match="behind the chain"):
            net.send_public_transaction("N3", "cc", "put", {"key": "p", "value": 2})

        net.recover("N3")
        assert audit_convergence(net).converged
        assert not net.managers["N3"].has_payload(result.payload_hash)
        net.clock.advance_to(now + 1)  # the cut heals
        net.send_public_transaction("N3", "cc", "put", {"key": "p", "value": 2})
        assert net.public_states["N2"].get("p") == 2

    def test_timed_sequencer_outage_heals_by_window_end(self):
        wf = loc_workflow(QuorumNetwork)
        wf.network.inject_faults(
            FaultPlan().orderer_outage(SEQUENCER_NODE, start=0.0, end=1.0)
        )
        with pytest.raises(OrderingError, match="down"):
            wf.apply_for_credit("LC-Q4", amount=1000)
        wf.network.clock.advance_to(1.0)
        wf.apply_for_credit("LC-Q4", amount=1000)
        assert wf.status_of("LC-Q4", "SellerCo") == "applied"


class TestLostAnswers:
    """A principal decides in its delivery handler and answers; a
    partition that opens once it has answered drops the answer in flight.
    Without resilient delivery the call raises a typed error; with it the
    call asks again, and the principal re-sends the answer it kept
    instead of deciding twice."""

    @staticmethod
    def cut_after(fault_after, platform, node, kind, other):
        fault_after(
            platform, node, kind,
            lambda at: FaultPlan().partition_between(node, other, start=at, end=at + 0.2),
        )

    @staticmethod
    def fabric(resilient: bool) -> FabricNetwork:
        net = FabricNetwork(seed="chaos-answers", resilient_delivery=resilient)
        for org in ("A", "B"):
            net.onboard(org)
        net.create_channel("ch", ["A", "B"])

        def put(view, args):
            view.put(args["key"], args["value"])

        net.deploy_chaincode(
            "ch", SmartContract("cc", 1, "python-chaincode", {"put": put}), ["A", "B"]
        )
        return net

    @staticmethod
    def corda(resilient: bool) -> CordaNetwork:
        net = CordaNetwork(seed="chaos-answers", resilient_delivery=resilient)
        for org in ("A", "B"):
            net.onboard(org)
        net.register_contract("deal", lambda wire: None, language="kotlin")
        return net

    @staticmethod
    def deal(net: CordaNetwork, inputs=()):
        return net.run_flow("A", net.build_transaction(
            inputs=list(inputs),
            outputs=[ContractState("deal", ("A", "B"), {"n": len(inputs)})],
            commands=[Command(name="Agree", signers=("A", "B"))],
        ))

    def test_lost_endorsement_fails_the_call(self, fault_after):
        net = self.fabric(resilient=False)
        self.cut_after(fault_after, net, "B", "proposal", "A")
        with pytest.raises(DeliveryError, match="no answer to 'proposal'"):
            net.invoke("ch", "A", "cc", "put", {"key": "k", "value": 1})
        assert not net.channel("ch").states["B"].exists("k")

    def test_lost_endorsement_is_asked_again(self, fault_after):
        net = self.fabric(resilient=True)
        self.cut_after(fault_after, net, "B", "proposal", "A")
        net.invoke("ch", "A", "cc", "put", {"key": "k", "value": 1})
        assert net.channel("ch").states["B"].get("k") == 1
        stats = net.network.stats
        assert stats.dropped_by_partition >= 1 and stats.deduplicated >= 1
        counters = net.telemetry.metrics.snapshot()["counters"]
        # B endorsed once: the second copy of the proposal got the kept answer.
        assert counters["crypto.ops{mechanism=endorsement-signature}"] == 2

    def test_lost_signature_is_asked_again(self, fault_after):
        net = self.corda(resilient=True)
        self.cut_after(fault_after, net, "B", "flow-proposal", "A")
        result = self.deal(net)
        assert result.stx.wire.tx_id in net.vaults["B"].transactions

    def test_lost_receipt_fails_the_call_after_the_spend(self, fault_after):
        """The notary consumed the inputs before its receipt was lost: the
        initiator cannot finalise, and the inputs stay spent."""
        net = self.corda(resilient=False)
        issued = self.deal(net)
        self.cut_after(fault_after, net, NOTARY_NODE, "notarise-filtered", "A")
        with pytest.raises(DeliveryError, match="no answer to 'notarise-filtered'"):
            self.deal(net, issued.output_refs)
        assert net.notary.is_spent(issued.output_refs[0])

    def test_lost_receipt_is_asked_again(self, fault_after):
        net = self.corda(resilient=True)
        issued = self.deal(net)
        self.cut_after(fault_after, net, NOTARY_NODE, "notarise-filtered", "A")
        spent = self.deal(net, issued.output_refs)
        assert spent.receipt.tx_id == spent.stx.wire.tx_id
        assert net.notary.total_notarised == 2  # decided once per flow
        assert spent.stx.wire.tx_id in net.vaults["B"].transactions


class TestPrivacyInvarianceUnderFaults:
    """Faults must never widen what any observer learns (the L1 audit)."""

    def test_audit_reports_identical_with_faults_on(self):
        # Latency spikes everywhere, plus a partitioned and fully lossy
        # link between two uninvolved orgs: disruptive, but none of it may
        # change a single principal's accumulated knowledge.
        plan = (
            FaultPlan()
            .slow_all(8.0)
            .partition_between("OrgC", "OrgD")
            .set_link_loss("OrgC", "OrgD", 1.0)
        )
        clean = audit_all(seed="chaos-audit")
        faulted = audit_all(seed="chaos-audit", fault_plan=plan)
        for clean_report, faulted_report in zip(clean, faulted):
            assert clean_report.platform == faulted_report.platform
            assert clean_report.summary_row() == faulted_report.summary_row()
            for clean_k, faulted_k in zip(
                clean_report.uninvolved, faulted_report.uninvolved
            ):
                assert faulted_k.identities == clean_k.identities
                assert faulted_k.data_keys == clean_k.data_keys
                assert faulted_k.code_ids == clean_k.code_ids
            assert (
                faulted_report.ordering_principal.identities
                == clean_report.ordering_principal.identities
            )
            assert (
                faulted_report.ordering_principal.data_keys
                == clean_report.ordering_principal.data_keys
            )

    def test_uninvolved_orgs_stay_ignorant_under_faults(self):
        plan = FaultPlan().slow_all(4.0)
        for report in audit_all(seed="chaos-audit-2", fault_plan=plan):
            if report.platform == "quorum":
                continue  # participant-list broadcast is a platform leak
            assert report.uninvolved_identity_leaks() == 0
            assert report.uninvolved_data_leaks() == 0
