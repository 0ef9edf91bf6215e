"""Fault injection across subsystem boundaries.

Tampering, partitions, equivocation, replay — every failure path a
production deployment would hit, exercised end-to-end.
"""

from __future__ import annotations

import pytest

from repro.common.errors import (
    DeliveryError,
    DoubleSpendError,
    EndorsementError,
    MPCError,
    ProofError,
    ValidationError,
)
from repro.crypto.mpc import AdditiveSharingProtocol
from repro.execution.contracts import SmartContract
from repro.ledger.transaction import Endorsement, Transaction, WriteEntry
from repro.platforms.corda import Command, ContractState, CordaNetwork
from repro.platforms.fabric import FabricNetwork


class TestFabricFaults:
    @pytest.fixture
    def net(self):
        network = FabricNetwork(seed="fault-fabric")
        for org in ("Org1", "Org2"):
            network.onboard(org)
        network.create_channel("ch", ["Org1", "Org2"])

        def put(view, args):
            view.put(args["key"], args["value"])
            return args["value"]

        contract = SmartContract("cc", 1, "python-chaincode", {"put": put})
        network.deploy_chaincode("ch", contract, ["Org1", "Org2"])
        return network

    def test_partition_blocks_endorsement(self, net):
        net.network.partition("Org1", "Org2")
        with pytest.raises(DeliveryError, match="partition"):
            net.invoke("ch", "Org1", "cc", "put", {"key": "k", "value": 1})

    def test_healed_partition_recovers(self, net):
        net.network.partition("Org1", "Org2")
        net.network.heal("Org1", "Org2")
        result = net.invoke("ch", "Org1", "cc", "put", {"key": "k", "value": 1})
        assert result.valid

    def test_divergent_endorser_detected(self, net):
        # Install a different version on Org2 that writes different data.
        def evil_put(view, args):
            view.put(args["key"], "corrupted")
            return "corrupted"

        evil = SmartContract("cc", 1, "python-chaincode", {"put": evil_put})
        net.engine.registry.install("Org2", evil)
        with pytest.raises(EndorsementError, match="divergent"):
            net.invoke("ch", "Org1", "cc", "put", {"key": "k", "value": 1})

    def test_chain_remains_verifiable_after_faults(self, net):
        net.invoke("ch", "Org1", "cc", "put", {"key": "k", "value": 1})
        try:
            net.network.partition("Org1", "Org2")
            net.invoke("ch", "Org1", "cc", "put", {"key": "j", "value": 2})
        except DeliveryError:
            pass
        net.channel("ch").chain.verify()
        assert net.channel("ch").replicas_consistent()


class TestCordaFaults:
    @pytest.fixture
    def net(self):
        network = CordaNetwork(seed="fault-corda")
        for org in ("Alice", "Bob"):
            network.onboard(org)
        network.register_contract("iou", lambda wire: None)
        return network

    def _issue(self, net):
        state = ContractState("iou", ("Alice", "Bob"), {"amount": 1})
        wire = net.build_transaction(
            inputs=[], outputs=[state],
            commands=[Command(name="Issue", signers=("Alice", "Bob"))],
        )
        return net.run_flow("Alice", wire)

    def test_replayed_spend_rejected(self, net):
        issued = self._issue(net)
        spend = net.build_transaction(
            inputs=[issued.output_refs[0]],
            outputs=[ContractState("iou", ("Alice", "Bob"), {"amount": 1, "n": 1})],
            commands=[Command(name="Move", signers=("Alice", "Bob"))],
        )
        net.run_flow("Alice", spend)
        replay = net.build_transaction(
            inputs=[issued.output_refs[0]],
            outputs=[ContractState("iou", ("Alice", "Bob"), {"amount": 1, "n": 2})],
            commands=[Command(name="Move", signers=("Alice", "Bob"))],
        )
        with pytest.raises(DoubleSpendError):
            net.run_flow("Alice", replay)

    def test_missing_required_signature_rejected(self, net):
        state = ContractState("iou", ("Alice", "Bob"), {"amount": 1})
        wire = net.build_transaction(
            inputs=[], outputs=[state],
            commands=[Command(name="Issue", signers=("Alice", "Bob", "ghost-key"))],
        )
        with pytest.raises(ValidationError, match="missing signatures"):
            net.run_flow("Alice", wire)

    def test_tampered_tear_off_rejected_by_notary(self, net):
        from repro.crypto.merkle import TearOff
        from repro.platforms.corda.transactions import (
            ComponentGroup,
            FilteredTransaction,
        )

        state = ContractState("iou", ("Alice", "Bob"), {"amount": 1})
        wire = net.build_transaction(
            inputs=[], outputs=[state],
            commands=[Command(name="Issue", signers=("Alice", "Bob"))],
        )
        honest = wire.filtered([ComponentGroup.INPUTS, ComponentGroup.NOTARY])
        forged = FilteredTransaction(
            tx_id=honest.tx_id,
            root=b"\x00" * 32,  # wrong root
            tear_off=honest.tear_off,
            revealed_groups=honest.revealed_groups,
        )
        with pytest.raises(ProofError):
            net.notary.notarise_filtered(forged)


class TestMPCFaults:
    def test_equivocation_aborts_before_result(self):
        protocol = AdditiveSharingProtocol(["a", "b", "c"])
        for name, value in {"a": 10, "b": 20, "c": 30}.items():
            protocol.set_input(name, value)
        protocol.run_share_phase()
        protocol.corrupt_share("b", "c", delta=7)
        partials = protocol.run_combine_phase()
        with pytest.raises(MPCError):
            protocol.run_reconstruct_phase(partials)


class TestLedgerTamperFaults:
    def test_endorsement_replay_across_transactions_fails(self, scheme):
        key = scheme.keygen_from_seed("replayer")
        tx1 = Transaction(
            channel="ch", submitter="a",
            writes=(WriteEntry(key="k", value=1),),
        )
        tx2 = Transaction(
            channel="ch", submitter="a",
            writes=(WriteEntry(key="k", value=999),),
        )
        signature = scheme.sign(key, tx1.signing_bytes())
        replayed = tx2.with_endorsements([Endorsement("a", signature)])
        from repro.ledger.validation import EndorsementPolicy, verify_endorsements

        with pytest.raises(EndorsementError):
            verify_endorsements(
                replayed, EndorsementPolicy.k_of(1, ["a"]), scheme,
                lambda n: key.public,
            )
