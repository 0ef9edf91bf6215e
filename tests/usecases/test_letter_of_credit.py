"""Letter of credit (Section 4): design agreement + executable workflow."""

from __future__ import annotations

import pytest

from repro.core.mechanisms import Mechanism
from repro.platforms.fabric import FabricNetwork
from repro.usecases.letter_of_credit import (
    LetterOfCreditWorkflow,
    design_letter_of_credit,
    expected_paper_design,
    letter_of_credit_requirements,
)


class TestDesignAgreement:
    """U1: the guide must reach the paper's own conclusions."""

    def test_pii_goes_off_chain(self):
        design = design_letter_of_credit()
        expected = expected_paper_design()
        assert design.recommendation_for("pii").primary is expected["pii_primary"]

    def test_trade_data_uses_segregated_ledger(self):
        design = design_letter_of_credit()
        expected = expected_paper_design()
        assert (
            design.recommendation_for("trade-data").primary
            is expected["trade_primary"]
        )

    def test_interactions_use_separate_ledger(self):
        design = design_letter_of_credit()
        assert Mechanism.SEPARATION_OF_LEDGERS_PARTIES in design.interaction_mechanisms

    def test_untrusted_orderer_adds_encryption(self):
        """'If a third party is trusted to run the ordering service...
        transaction data can be encrypted' — the contrapositive."""
        design = design_letter_of_credit(orderer_trusted=False)
        assert (
            Mechanism.SYMMETRIC_ENCRYPTION
            in design.recommendation_for("trade-data").supplementary
        )

    def test_trusted_orderer_needs_no_encryption(self):
        design = design_letter_of_credit(orderer_trusted=True)
        assert (
            Mechanism.SYMMETRIC_ENCRYPTION
            not in design.recommendation_for("trade-data").supplementary
        )

    def test_logic_is_not_confidential(self):
        """'logic contained in a letter of credit is highly standardized
        and non-confidential'."""
        design = design_letter_of_credit()
        assert design.logic_mechanism is None

    def test_requirements_have_two_data_classes(self):
        requirements = letter_of_credit_requirements()
        assert {dc.name for dc in requirements.data_classes} == {"pii", "trade-data"}


@pytest.fixture(scope="module")
def workflow():
    wf = LetterOfCreditWorkflow(FabricNetwork(seed="loc"))
    wf.setup(extra_network_members=("OtherBank",))
    return wf


class TestWorkflow:
    def test_full_lifecycle(self, workflow):
        loc = workflow.run_full_lifecycle("LC-100")
        assert loc.status == "paid"
        assert loc.amount == 250_000

    def test_all_parties_see_same_status(self, workflow):
        workflow.run_full_lifecycle("LC-101")
        statuses = {
            workflow.status_of("LC-101", party)
            for party in workflow.PARTIES
        }
        assert statuses == {"paid"}

    def test_lifecycle_order_enforced(self, workflow):
        from repro.common.errors import ReproError

        workflow.apply_for_credit("LC-102", amount=10, buyer_passport="P-1")
        workflow.issue("LC-102")
        workflow.ship("LC-102")
        workflow.pay("LC-102")
        with pytest.raises(Exception, match="already"):
            workflow.pay("LC-102")

    def test_pii_never_on_chain(self, workflow):
        workflow.apply_for_credit("LC-103", amount=10, buyer_passport="P-SECRET-42")
        channel = workflow.network.channel(workflow.host.channel_name)
        for tx in channel.chain.transactions():
            for write in tx.writes:
                assert "P-SECRET-42" not in str(write.value)

    def test_pii_anchored_by_hash(self, workflow):
        workflow.apply_for_credit("LC-104", amount=10, buyer_passport="P-2")
        channel = workflow.network.channel(workflow.host.channel_name)
        anchored = [
            tx for tx in channel.chain.transactions()
            if any(k.startswith("kyc-pii/") for k in tx.private_hashes)
        ]
        assert anchored

    def test_gdpr_erasure(self, workflow):
        workflow.apply_for_credit("LC-105", amount=10, buyer_passport="P-3")
        assert not workflow.pii_is_erased("LC-105")
        workflow.erase_pii("LC-105")
        assert workflow.pii_is_erased("LC-105")

    def test_network_outsider_sees_nothing(self, workflow):
        workflow.run_full_lifecycle("LC-106")
        outsider = workflow.network.network.node("OtherBank").observer
        assert outsider.seen_data_keys == set()
        assert not (set(workflow.PARTIES) & outsider.seen_identities)

    def test_orderer_sees_loc_parties(self, workflow):
        """The trusted-third-party-orderer trade-off made visible."""
        workflow.run_full_lifecycle("LC-107")
        assert set(workflow.PARTIES) <= workflow.network.network.node("fabric-orderer").observer.seen_identities
