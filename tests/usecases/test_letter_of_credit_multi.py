"""The one Section 4 workflow, executed on Fabric, Corda and Quorum."""

from __future__ import annotations

import pytest

from repro.common.errors import DoubleSpendError, PlatformError
from repro.platforms.corda import CordaNetwork
from repro.platforms.fabric import FabricNetwork
from repro.platforms.quorum import QuorumNetwork
from repro.usecases.letter_of_credit import PARTIES, LetterOfCreditWorkflow

PLATFORMS = {"fabric": FabricNetwork, "corda": CordaNetwork, "quorum": QuorumNetwork}


def make_workflow(platform: str) -> LetterOfCreditWorkflow:
    workflow = LetterOfCreditWorkflow(PLATFORMS[platform](seed=f"loc-{platform}"))
    workflow.setup(extra_network_members=("OtherBank",))
    return workflow


@pytest.fixture(scope="module", params=sorted(PLATFORMS))
def any_loc(request):
    return make_workflow(request.param)


@pytest.fixture(scope="module")
def corda_loc():
    return make_workflow("corda")


@pytest.fixture(scope="module")
def quorum_loc():
    return make_workflow("quorum")


def messages_observed(workflow) -> dict[str, int]:
    net = workflow.network.network
    return {node: net.node(node).observer.messages_observed for node in net.nodes()}


class TestEveryPlatform:
    def test_full_lifecycle(self, any_loc):
        loc = any_loc.run_full_lifecycle("LC-100")
        assert loc.status == "paid"
        assert loc.amount == 250_000
        assert {any_loc.status_of("LC-100", p) for p in PARTIES} == {"paid"}

    def test_outsider_sees_no_letter(self, any_loc):
        any_loc.run_full_lifecycle("LC-101")
        assert any_loc.letter("LC-101", "OtherBank") is None
        outsider = any_loc.network.network.node("OtherBank").observer
        assert outsider.seen_data_keys == set()
        # Only Quorum names the parties to everyone (its participant list).
        leaked = set(PARTIES) & outsider.seen_identities
        assert bool(leaked) == isinstance(any_loc.network, QuorumNetwork)

    def test_reapplying_is_refused_before_anything_is_sent(self, any_loc):
        any_loc.run_full_lifecycle("LC-102")
        observed = messages_observed(any_loc)
        with pytest.raises(PlatformError, match="already exists"):
            any_loc.apply_for_credit("LC-102", amount=10)
        assert messages_observed(any_loc) == observed
        assert {any_loc.status_of("LC-102", p) for p in PARTIES} == {"paid"}

    @pytest.mark.parametrize("stage", ["issue", "ship", "pay"])
    def test_unknown_letter_is_refused_before_anything_is_sent(
        self, any_loc, stage
    ):
        observed = messages_observed(any_loc)
        with pytest.raises(PlatformError, match="unknown letter of credit"):
            getattr(any_loc, stage)("LC-NEVER-APPLIED")
        assert messages_observed(any_loc) == observed

    def test_paid_letter_is_refused_before_anything_is_sent(self, any_loc):
        any_loc.run_full_lifecycle("LC-103")
        observed = messages_observed(any_loc)
        with pytest.raises(PlatformError, match="already 'paid'"):
            any_loc.pay("LC-103")
        assert messages_observed(any_loc) == observed


class TestCordaVariant:
    def test_all_parties_hold_final_state(self, corda_loc):
        corda_loc.run_full_lifecycle("LC-C-101")
        statuses = {corda_loc.status_of("LC-C-101", p) for p in PARTIES}
        assert statuses == {"paid"}

    def test_pii_off_platform_and_erasable(self, corda_loc):
        corda_loc.apply_for_credit("LC-C-103", amount=10, buyer_passport="P-X")
        assert not corda_loc.pii_is_erased("LC-C-103")
        corda_loc.erase_pii("LC-C-103")
        assert corda_loc.pii_is_erased("LC-C-103")

    def test_anchor_in_state_survives_erasure(self, corda_loc):
        corda_loc.apply_for_credit("LC-C-104", amount=10, buyer_passport="P-Y")
        corda_loc.erase_pii("LC-C-104")
        assert corda_loc.letter("LC-C-104", "SellerCo")["kyc_anchor"]

    def test_terminal_state_cannot_advance(self, corda_loc):
        corda_loc.apply_for_credit("LC-C-105", amount=10, buyer_passport="P-Z")
        corda_loc.issue("LC-C-105")
        corda_loc.ship("LC-C-105")
        corda_loc.pay("LC-C-105")
        with pytest.raises(PlatformError, match="already"):
            corda_loc.pay("LC-C-105")

    def test_every_stage_consumes_the_tip_signed_by_all_three(self, corda_loc):
        corda_loc.run_full_lifecycle("LC-C-107")
        vault = corda_loc.network.vault("BuyerCo")
        stages = [
            stx.wire for stx in vault.transactions.values()
            if any(s.data.get("loc_id") == "LC-C-107" for s in stx.wire.outputs)
        ]
        assert [len(wire.inputs) for wire in stages] == [0, 1, 1, 1]
        for previous, wire in zip(stages, stages[1:]):
            assert [ref.tx_id for ref in wire.inputs] == [previous.tx_id]
        for wire in stages:
            assert {s for c in wire.commands for s in c.signers} == set(PARTIES)

    def test_replaying_consumed_state_rejected_by_notary(self, corda_loc):
        """Advancing from a stale ref is a notary-level double spend."""
        from repro.platforms.corda import Command, ContractState

        corda_loc.apply_for_credit("LC-C-106", amount=10, buyer_passport="P-W")
        (applied_ref,) = [
            ref for ref, state
            in corda_loc.network.vault("BuyerCo").unconsumed.items()
            if state.data.get("loc_id") == "LC-C-106"
        ]
        corda_loc.issue("LC-C-106")  # consumes applied_ref
        replay = corda_loc.network.build_transaction(
            inputs=[applied_ref],
            outputs=[ContractState("loc", PARTIES, {"status": "issued", "amount": 10})],
            commands=[Command(name="Advance", signers=PARTIES)],
        )
        with pytest.raises(DoubleSpendError):
            corda_loc.network.run_flow("BuyerCo", replay)


class TestQuorumVariant:
    def test_participant_list_leaks_network_wide(self, quorum_loc):
        """The design's residual on this platform (paper Section 5)."""
        quorum_loc.run_full_lifecycle("LC-Q-102")
        outsider = quorum_loc.network.network.node("OtherBank").observer
        assert set(PARTIES) & outsider.seen_identities

    def test_pii_storage_refused(self, quorum_loc):
        """The platform mismatch the design guide's scoring predicts."""
        observed = messages_observed(quorum_loc)
        with pytest.raises(PlatformError, match="deletable PII"):
            quorum_loc.apply_for_credit(
                "LC-Q-103", amount=10, buyer_passport="P-Q"
            )
        assert messages_observed(quorum_loc) == observed
        with pytest.raises(PlatformError, match="deletable PII"):
            quorum_loc.erase_pii("LC-Q-103")

    def test_private_states_replayable(self, quorum_loc):
        quorum_loc.run_full_lifecycle("LC-Q-104")
        for party in PARTIES:
            assert quorum_loc.network.verify_private_state(party)

    def test_terminal_state_refused_before_any_send(self, quorum_loc):
        quorum_loc.run_full_lifecycle("LC-Q-105")
        stats = quorum_loc.network.network.stats
        sent = stats.messages_sent
        height = quorum_loc.network.chain.height
        with pytest.raises(PlatformError, match="already 'paid'"):
            quorum_loc.pay("LC-Q-105")
        assert stats.messages_sent == sent
        assert quorum_loc.network.chain.height == height


class TestCrossPlatformAgreement:
    def test_same_terminal_status_everywhere(self):
        statuses = {
            make_workflow(platform).run_full_lifecycle("LC-200").status
            for platform in PLATFORMS
        }
        assert statuses == {"paid"}


def test_workflow_refuses_an_unhosted_platform():
    from repro.platforms.base import Platform

    with pytest.raises(PlatformError, match="no letter-of-credit hosting"):
        LetterOfCreditWorkflow(Platform(seed="bare"))
