"""The Section 4 design executed on Corda and Quorum."""

from __future__ import annotations

import pytest

from repro.common.errors import DoubleSpendError, PlatformError
from repro.usecases.letter_of_credit_multi import (
    PARTIES,
    CordaLetterOfCredit,
    QuorumLetterOfCredit,
)


@pytest.fixture(scope="module")
def corda_loc():
    workflow = CordaLetterOfCredit()
    workflow.setup(extra_network_members=("OtherBank",))
    return workflow


@pytest.fixture(scope="module")
def quorum_loc():
    workflow = QuorumLetterOfCredit()
    workflow.setup(extra_network_members=("OtherBank",))
    return workflow


class TestCordaVariant:
    def test_full_lifecycle(self, corda_loc):
        assert corda_loc.run_full_lifecycle("LC-C-100") == "paid"
        assert corda_loc.status_of("LC-C-100", "SellerCo") == "paid"

    def test_all_parties_hold_final_state(self, corda_loc):
        corda_loc.run_full_lifecycle("LC-C-101")
        statuses = {corda_loc.status_of("LC-C-101", p) for p in PARTIES}
        assert statuses == {"paid"}

    def test_outsider_sees_nothing(self, corda_loc):
        corda_loc.run_full_lifecycle("LC-C-102")
        outsider = corda_loc.network.network.node("OtherBank").observer
        assert outsider.seen_data_keys == set()
        assert not (set(PARTIES) & outsider.seen_identities)

    def test_pii_off_platform_and_erasable(self, corda_loc):
        corda_loc.apply_for_credit("LC-C-103", amount=10, buyer_passport="P-X")
        assert not corda_loc.pii_is_erased("LC-C-103")
        corda_loc.erase_pii("LC-C-103")
        assert corda_loc.pii_is_erased("LC-C-103")

    def test_anchor_in_state_survives_erasure(self, corda_loc):
        result = corda_loc.apply_for_credit(
            "LC-C-104", amount=10, buyer_passport="P-Y"
        )
        corda_loc.erase_pii("LC-C-104")
        recorded = corda_loc.network.vault("SellerCo").state_at(
            result.output_refs[0]
        )
        assert recorded.data["kyc_anchor"]

    def test_terminal_state_cannot_advance(self, corda_loc):
        corda_loc.apply_for_credit("LC-C-105", amount=10, buyer_passport="P-Z")
        corda_loc.advance("IssuingBank", "LC-C-105")
        corda_loc.advance("SellerCo", "LC-C-105")
        corda_loc.advance("IssuingBank", "LC-C-105")
        with pytest.raises(PlatformError, match="already"):
            corda_loc.advance("IssuingBank", "LC-C-105")

    def test_replaying_consumed_state_rejected_by_notary(self, corda_loc):
        """Advancing from a stale ref is a notary-level double spend."""
        from repro.platforms.corda import Command, ContractState

        result = corda_loc.apply_for_credit(
            "LC-C-106", amount=10, buyer_passport="P-W"
        )
        applied_ref = result.output_refs[0]
        corda_loc.advance("IssuingBank", "LC-C-106")  # consumes applied_ref
        replay = corda_loc.network.build_transaction(
            inputs=[applied_ref],
            outputs=[ContractState("loc", PARTIES, {"status": "issued", "amount": 10})],
            commands=[Command(name="Advance", signers=PARTIES)],
        )
        with pytest.raises(DoubleSpendError):
            corda_loc.network.run_flow("BuyerCo", replay)


class TestQuorumVariant:
    def test_full_lifecycle(self, quorum_loc):
        assert quorum_loc.run_full_lifecycle("LC-Q-100") == "paid"
        for party in PARTIES:
            assert quorum_loc.status_of("LC-Q-100", party) == "paid"

    def test_outsider_has_no_private_state(self, quorum_loc):
        quorum_loc.run_full_lifecycle("LC-Q-101")
        assert not quorum_loc.network.private_states["OtherBank"].exists(
            "loc/LC-Q-101"
        )

    def test_participant_list_leaks_network_wide(self, quorum_loc):
        """The design's residual on this platform (paper Section 5)."""
        quorum_loc.run_full_lifecycle("LC-Q-102")
        outsider = quorum_loc.network.network.node("OtherBank").observer
        assert set(PARTIES) & outsider.seen_identities

    def test_pii_storage_refused(self, quorum_loc):
        """The platform mismatch the design guide's scoring predicts."""
        with pytest.raises(PlatformError, match="deletable PII"):
            quorum_loc.store_pii("LC-Q-103", {"passport": "P-Q"})

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
            quorum_loc.advance("IssuingBank", "LC-Q-105")
        assert stats.messages_sent == sent
        assert quorum_loc.network.chain.height == height


class TestCrossPlatformAgreement:
    def test_same_terminal_status_everywhere(self, corda_loc, quorum_loc):
        from repro.usecases.letter_of_credit import LetterOfCreditWorkflow

        fabric = LetterOfCreditWorkflow()
        fabric.setup()
        fabric_status = fabric.run_full_lifecycle("LC-F-1").status
        corda_status = corda_loc.run_full_lifecycle("LC-C-200")
        quorum_status = quorum_loc.run_full_lifecycle("LC-Q-200")
        assert fabric_status == corda_status == quorum_status == "paid"
