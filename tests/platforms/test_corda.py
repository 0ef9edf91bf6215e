"""Corda simulation: flows, notaries, tear-offs, confidential identities."""

from __future__ import annotations

import pytest

from repro.common.errors import (
    ContractError,
    DoubleSpendError,
    MembershipError,
    ProofError,
    ValidationError,
)
from repro.platforms.corda import (
    Command,
    ComponentGroup,
    ContractState,
    CordaNetwork,
    Oracle,
    StateRef,
)


@pytest.fixture
def net():
    network = CordaNetwork(seed="corda-test")
    for org in ("Alice", "Bob", "Carol"):
        network.onboard(org)

    def verify_iou(wire):
        for state in wire.outputs:
            if state.contract_id == "iou" and state.data.get("amount", 0) <= 0:
                raise ContractError("amount must be positive")

    network.register_contract("iou", verify_iou, language="kotlin")
    return network


def issue_iou(net, amount=10, participants=("Alice", "Bob")):
    state = ContractState(
        contract_id="iou", participants=tuple(participants),
        data={"amount": amount},
    )
    wire = net.build_transaction(
        inputs=[], outputs=[state],
        commands=[Command(name="Issue", signers=tuple(participants))],
    )
    return net.run_flow(participants[0], wire)


class TestFlows:
    def test_flow_records_in_participant_vaults(self, net):
        result = issue_iou(net)
        assert net.vault("Alice").knows_transaction(result.stx.wire.tx_id)
        assert net.vault("Bob").knows_transaction(result.stx.wire.tx_id)

    def test_uninvolved_vault_empty(self, net):
        result = issue_iou(net)
        assert not net.vault("Carol").knows_transaction(result.stx.wire.tx_id)
        assert len(net.vault("Carol")) == 0

    def test_all_signers_collected(self, net):
        result = issue_iou(net)
        assert set(result.stx.signatures) == {"Alice", "Bob"}

    def test_signatures_verify_over_root(self, net):
        result = issue_iou(net)
        root = result.stx.wire.signing_payload()
        for signer in ("Alice", "Bob"):
            assert net.scheme.verify(
                net.party(signer).public_key, root, result.stx.signatures[signer]
            )

    def test_contract_verification_runs(self, net):
        with pytest.raises(ContractError, match="positive"):
            issue_iou(net, amount=-5)

    def test_unregistered_contract_rejected(self, net):
        state = ContractState(
            contract_id="ghost", participants=("Alice", "Bob"), data={}
        )
        wire = net.build_transaction(
            inputs=[], outputs=[state],
            commands=[Command(name="X", signers=("Alice",))],
        )
        with pytest.raises(ContractError, match="no verifier"):
            net.run_flow("Alice", wire)

    def test_unknown_initiator_rejected(self, net):
        wire = net.build_transaction(inputs=[], outputs=[], commands=[])
        with pytest.raises(MembershipError):
            net.run_flow("Mallory", wire)

    def test_spend_consumes_state(self, net):
        issued = issue_iou(net)
        spend = net.build_transaction(
            inputs=[issued.output_refs[0]],
            outputs=[ContractState("iou", ("Alice", "Bob"), {"amount": 10, "settled": True})],
            commands=[Command(name="Settle", signers=("Alice", "Bob"))],
        )
        net.run_flow("Alice", spend)
        assert issued.output_refs[0] not in net.vault("Alice").unconsumed


class TestNotary:
    def test_double_spend_rejected(self, net):
        issued = issue_iou(net)

        def spend_tx(tag):
            return net.build_transaction(
                inputs=[issued.output_refs[0]],
                outputs=[ContractState("iou", ("Alice", "Bob"), {"amount": 10, "tag": tag})],
                commands=[Command(name="Settle", signers=("Alice", "Bob"))],
            )

        net.run_flow("Alice", spend_tx("first"))
        with pytest.raises(DoubleSpendError):
            net.run_flow("Alice", spend_tx("second"))

    def test_non_validating_notary_sees_nothing(self, net):
        issue_iou(net, amount=777)
        assert net.network.node("corda-notary").observer.seen_identities == set()
        assert net.network.node("corda-notary").observer.seen_data_keys == set()
        assert net.notary.total_notarised == 1

    def test_validating_notary_sees_everything(self):
        net = CordaNetwork(seed="corda-validating", validating_notary=True)
        for org in ("Alice", "Bob"):
            net.onboard(org)
        net.register_contract("iou", lambda wire: None)
        issue_iou(net)
        assert {"Alice", "Bob"} <= net.network.node("corda-notary").observer.seen_identities
        assert "amount" in net.network.node("corda-notary").observer.seen_data_keys

    def test_validating_notary_reruns_contracts(self):
        net = CordaNetwork(seed="corda-validating2", validating_notary=True)
        for org in ("Alice", "Bob"):
            net.onboard(org)

        def strict(wire):
            for state in wire.outputs:
                if state.data.get("amount", 0) > 100:
                    raise ContractError("too large")

        net.register_contract("iou", strict)
        with pytest.raises(ContractError, match="too large"):
            issue_iou(net, amount=1000)

    def test_notary_spent_ref_tracking(self, net):
        issued = issue_iou(net)
        assert not net.notary.is_spent(issued.output_refs[0])
        spend = net.build_transaction(
            inputs=[issued.output_refs[0]],
            outputs=[ContractState("iou", ("Alice", "Bob"), {"amount": 10, "x": 1})],
            commands=[Command(name="Settle", signers=("Alice", "Bob"))],
        )
        net.run_flow("Alice", spend)
        assert net.notary.is_spent(issued.output_refs[0])


class TestTearOffs:
    def test_filtered_transaction_verifies(self, net):
        issued = issue_iou(net)
        filtered = issued.stx.wire.filtered(
            [ComponentGroup.COMMANDS, ComponentGroup.NOTARY]
        )
        assert filtered.verify()

    def test_hidden_groups_absent(self, net):
        issued = issue_iou(net)
        filtered = issued.stx.wire.filtered([ComponentGroup.COMMANDS])
        assert filtered.visible_of_group("outputs") == []
        assert len(filtered.visible_of_group("commands")) == 1

    def test_root_matches_full_transaction(self, net):
        issued = issue_iou(net)
        filtered = issued.stx.wire.filtered([ComponentGroup.NOTARY])
        assert filtered.signing_payload() == issued.stx.wire.signing_payload()

    def test_component_indices_partition(self, net):
        issued = issue_iou(net)
        wire = issued.stx.wire
        all_indices = []
        for group in ComponentGroup:
            all_indices.extend(wire.component_indices(group))
        leaf_count = wire.filtered([]).tear_off.leaf_count
        assert sorted(all_indices) == list(range(leaf_count))


class TestOracle:
    @pytest.fixture
    def rate_wire(self, net):
        state = ContractState(
            contract_id="iou", participants=("Alice", "Bob"),
            data={"amount": 50, "notional": 1_000_000},
        )
        return net.build_transaction(
            inputs=[], outputs=[state],
            commands=[
                Command(name="Issue", signers=("Alice", "Bob")),
                Command(name="Rate", signers=("oracle",),
                        payload={"fact": "EUR/USD", "value": 1.25}),
            ],
        )

    def test_oracle_attests_correct_fact(self, net, rate_wire):
        oracle = Oracle("oracle", net, {"EUR/USD": 1.25})
        filtered = rate_wire.filtered([ComponentGroup.COMMANDS, ComponentGroup.NOTARY])
        attestation = oracle.attest("Alice", filtered, "EUR/USD")
        assert net.scheme.verify(
            oracle.key.public, rate_wire.signing_payload(), attestation.signature
        )

    def test_oracle_rejects_wrong_value(self, net, rate_wire):
        oracle = Oracle("oracle", net, {"EUR/USD": 1.30})
        filtered = rate_wire.filtered([ComponentGroup.COMMANDS, ComponentGroup.NOTARY])
        with pytest.raises(ValidationError, match="oracle says"):
            oracle.attest("Alice", filtered, "EUR/USD")

    def test_oracle_rejects_missing_fact(self, net, rate_wire):
        oracle = Oracle("oracle", net, {"EUR/USD": 1.25})
        filtered = rate_wire.filtered([ComponentGroup.NOTARY])
        with pytest.raises(ValidationError, match="no visible command"):
            oracle.attest("Alice", filtered, "EUR/USD")

    def test_oracle_never_sees_torn_off_outputs(self, net, rate_wire):
        oracle = Oracle("oracle", net, {"EUR/USD": 1.25})
        filtered = rate_wire.filtered([ComponentGroup.COMMANDS, ComponentGroup.NOTARY])
        oracle.attest("Alice", filtered, "EUR/USD")
        assert "notional" not in oracle.node.observer.seen_data_keys

    def test_oracle_signature_usable_in_flow(self, net, rate_wire):
        oracle = Oracle("oracle", net, {"EUR/USD": 1.25})
        filtered = rate_wire.filtered([ComponentGroup.COMMANDS, ComponentGroup.NOTARY])
        attestation = oracle.attest("Alice", filtered, "EUR/USD")
        result = net.run_flow(
            "Alice", rate_wire,
            extra_signatures={"oracle": attestation.signature},
        )
        assert "oracle" in result.stx.signatures

    def test_attest_message_is_the_oracle_account(self, net, rate_wire):
        """The oracle learns exactly what its delivered ``attest`` request
        exposes; a tear-off that leaves the outputs in shows it them."""
        oracle = Oracle("oracle", net, {"EUR/USD": 1.25})
        arrived = []
        oracle.node.on("attest", arrived.append)
        exposed = rate_wire.filtered([
            ComponentGroup.OUTPUTS, ComponentGroup.COMMANDS, ComponentGroup.NOTARY,
        ])
        oracle.attest("Alice", exposed, "EUR/USD")
        assert [(m.sender, m.recipient) for m in arrived] == [("Alice", "oracle")]
        assert oracle.node.observer.seen_data_keys == {"amount", "notional"}
        assert not hasattr(oracle, "observer")


class TestConfidentialIdentities:
    def test_one_time_keys_unlinkable(self, net):
        a = net.create_confidential_identity("Alice")
        b = net.create_confidential_identity("Alice")
        assert a.public.y != b.public.y

    def test_owner_resolvable_with_certificate(self, net):
        identity = net.create_confidential_identity("Alice")
        assert net.reveal_owner("Bob", identity.public.y) == "Alice"

    def test_unknown_key_unresolvable(self, net):
        with pytest.raises(MembershipError, match="no linking certificate"):
            net.reveal_owner("Bob", 12345)

    def test_state_owned_by_one_time_key(self, net):
        identity = net.create_confidential_identity("Alice")
        state = ContractState(
            contract_id="iou", participants=("Alice", "Bob"),
            data={"amount": 5}, owner_key_y=identity.public.y,
        )
        wire = net.build_transaction(
            inputs=[], outputs=[state],
            commands=[Command(name="Issue", signers=("Alice", "Bob"))],
        )
        result = net.run_flow("Alice", wire)
        recorded = net.vault("Bob").state_at(result.output_refs[0])
        assert recorded.owner_key_y == identity.public.y
        assert recorded.owner_key_y != net.party("Alice").public_key.y


class TestP2PPrivacy:
    def test_uninvolved_node_receives_no_messages(self, net):
        issue_iou(net, amount=42)
        carol = net.network.node("Carol")
        assert carol.observer.messages_observed == 0
        assert carol.observer.seen_identities == set()
