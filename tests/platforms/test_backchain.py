"""Corda backchain resolution and its privacy cost."""

from __future__ import annotations

import pytest

from repro.common.errors import StateError, ValidationError
from repro.platforms.corda import (
    Command,
    ContractState,
    CordaNetwork,
    StateRef,
    collect_backchain,
    disclosure_of,
    verify_backchain,
)


@pytest.fixture
def net():
    network = CordaNetwork(seed="backchain-test")
    for org in ("Alice", "Bob", "Carol", "Dave"):
        network.onboard(org)
    network.register_contract("asset", lambda wire: None)
    return network


def issue(net, owner, counterparty, data=None):
    state = ContractState(
        contract_id="asset", participants=(owner, counterparty),
        data=data or {"value": 100},
    )
    wire = net.build_transaction(
        inputs=[], outputs=[state],
        commands=[Command(name="Issue", signers=(owner, counterparty))],
    )
    return net.run_flow(owner, wire)


def transfer(net, ref, seller, buyer, data=None):
    state = ContractState(
        contract_id="asset", participants=(seller, buyer),
        data=data or {"value": 100},
    )
    wire = net.build_transaction(
        inputs=[ref], outputs=[state],
        commands=[Command(name="Transfer", signers=(seller, buyer))],
    )
    return net.run_flow(seller, wire)


@pytest.fixture
def three_hop(net):
    """Alice issues with Bob; Bob transfers to Carol; Carol to Dave."""
    issued = issue(net, "Alice", "Bob")
    hop1 = transfer(net, issued.output_refs[0], "Bob", "Carol")
    hop2 = transfer(net, hop1.output_refs[0], "Carol", "Dave")
    return issued, hop1, hop2


class TestCollection:
    def test_backchain_ordered_oldest_first(self, net, three_hop):
        issued, hop1, hop2 = three_hop
        chain = collect_backchain(net.vault("Dave"), hop2.stx.wire.tx_id)
        assert [stx.wire.tx_id for stx in chain] == [
            issued.stx.wire.tx_id, hop1.stx.wire.tx_id, hop2.stx.wire.tx_id,
        ]

    def test_missing_ancestor_detected(self, net, three_hop):
        __, __h, hop2 = three_hop
        vault = net.vault("Dave")
        # Remove the genesis transaction from the vault: provenance broken.
        genesis = collect_backchain(vault, hop2.stx.wire.tx_id)[0]
        del vault.transactions[genesis.wire.tx_id]
        with pytest.raises(StateError, match="cannot resolve ancestor"):
            collect_backchain(vault, hop2.stx.wire.tx_id)

    def test_verify_backchain_accepts_honest_chain(self, net, three_hop):
        __, __h, hop2 = three_hop
        chain = collect_backchain(net.vault("Dave"), hop2.stx.wire.tx_id)
        assert verify_backchain(chain, hop2.output_refs[0])

    def test_verify_rejects_reordered_chain(self, net, three_hop):
        __, __h, hop2 = three_hop
        chain = collect_backchain(net.vault("Dave"), hop2.stx.wire.tx_id)
        assert not verify_backchain(list(reversed(chain)), hop2.output_refs[0])

    def test_verify_rejects_wrong_tip(self, net, three_hop):
        issued, __h, hop2 = three_hop
        chain = collect_backchain(net.vault("Dave"), hop2.stx.wire.tx_id)
        assert not verify_backchain(chain, issued.output_refs[0])

    def test_verify_rejects_empty_chain(self, net, three_hop):
        __, __h, hop2 = three_hop
        assert not verify_backchain([], hop2.output_refs[0])


class TestDisclosure:
    def test_new_owner_learns_full_history(self, net, three_hop):
        """The backchain privacy cost: Dave learns Alice traded this."""
        __, __h, hop2 = three_hop
        chain = collect_backchain(net.vault("Dave"), hop2.stx.wire.tx_id)
        disclosure = disclosure_of(chain)
        assert disclosure.depth == 3
        assert {"Alice", "Bob", "Carol", "Dave"} <= disclosure.identities

    def test_disclosure_grows_with_hops(self, net):
        issued = issue(net, "Alice", "Bob")
        refs = [issued.output_refs[0]]
        parties = ["Bob", "Carol", "Dave"]
        for seller, buyer in zip(parties, parties[1:]):
            result = transfer(net, refs[-1], seller, buyer)
            refs.append(result.output_refs[0])
        depth_after_one = disclosure_of(
            collect_backchain(net.vault("Carol"), refs[1].tx_id)
        ).depth
        depth_after_two = disclosure_of(
            collect_backchain(net.vault("Dave"), refs[2].tx_id)
        ).depth
        assert depth_after_two == depth_after_one + 1

    def test_one_time_keys_hide_historic_identities(self, net):
        """The Section 2.1 mitigation: pseudonymous owners in the chain."""
        anon_alice = net.create_confidential_identity("Alice")
        anon_bob = net.create_confidential_identity("Bob")
        state = ContractState(
            contract_id="asset",
            participants=("Alice", "Bob"),
            data={"value": 100},
            owner_key_y=anon_alice.public.y,
        )
        wire = net.build_transaction(
            inputs=[], outputs=[state],
            commands=[Command(name="Issue", signers=("Alice", "Bob"))],
        )
        issued = net.run_flow("Alice", wire)
        moved = ContractState(
            contract_id="asset",
            participants=("Bob", "Carol"),
            data={"value": 100},
            owner_key_y=anon_bob.public.y,
        )
        wire2 = net.build_transaction(
            inputs=[issued.output_refs[0]], outputs=[moved],
            commands=[Command(name="Transfer", signers=("Bob", "Carol"))],
        )
        result = net.run_flow("Bob", wire2)
        disclosure = disclosure_of(
            collect_backchain(net.vault("Carol"), result.stx.wire.tx_id)
        )
        # The pseudonymous keys are visible; they are not identities.
        assert len(disclosure.pseudonymous_keys) == 2
        assert anon_alice.public.y in disclosure.pseudonymous_keys


class TestNetworkResolution:
    def test_resolution_populates_requester_vault(self, net, three_hop):
        __, __h, hop2 = three_hop
        tip = hop2.output_refs[0]
        net.onboard("Eve")
        disclosure = net.resolve_backchain("Dave", "Eve", tip)
        for stx in disclosure.transactions:
            assert net.vault("Eve").knows_transaction(stx.wire.tx_id)

    def test_resolution_exposure_accounted(self, net, three_hop):
        __, __h, hop2 = three_hop
        net.onboard("Eve")
        net.resolve_backchain("Dave", "Eve", hop2.output_refs[0])
        observer = net.network.node("Eve").observer
        assert {"Alice", "Bob", "Carol"} <= observer.seen_identities

    def test_resolution_rejects_bad_tip(self, net, three_hop):
        issued, __h, hop2 = three_hop
        net.onboard("Eve")
        bad_tip = StateRef(tx_id=hop2.stx.wire.tx_id, index=99)
        with pytest.raises(ValidationError, match="structural"):
            net.resolve_backchain("Dave", "Eve", bad_tip)
