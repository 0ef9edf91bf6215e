"""Deployment builder: the design is enforced end to end."""

from __future__ import annotations

import pytest

from repro.common.errors import GuideError, PrivacyError
from repro.core.deploy import build_deployment
from repro.core.guide import design_solution
from repro.core.requirements import (
    DataClassRequirements,
    DeploymentContext,
    InteractionPrivacy,
    UseCaseRequirements,
)

PARTIES = ["OrgA", "OrgB", "OrgC"]


def make_requirements(**overrides):
    base = dict(
        name="deploy-case",
        interaction_privacy=InteractionPrivacy.GROUP_PRIVATE,
        data_classes=(
            DataClassRequirements(name="pii", deletion_required=True),
            DataClassRequirements(name="trade"),
            DataClassRequirements(name="balance", private_from_counterparties=True),
            DataClassRequirements(
                name="votes",
                private_from_counterparties=True,
                shared_function_on_private_inputs=True,
            ),
        ),
        deployment=DeploymentContext(ordering_service_trusted=False),
    )
    base.update(overrides)
    return UseCaseRequirements(**base)


@pytest.fixture(scope="module")
def deployment():
    requirements = make_requirements()
    design = design_solution(requirements)
    return build_deployment(
        design, requirements, PARTIES,
        extra_network_members=["Outsider"], seed="test-deploy",
    )


class TestConstruction:
    def test_channel_scoped_to_parties(self, deployment):
        channel = deployment.network.channel(deployment.channel_name)
        assert channel.members == frozenset(PARTIES)

    def test_collection_per_deletable_class(self, deployment):
        channel = deployment.network.channel(deployment.channel_name)
        assert "col-pii" in channel.collections

    def test_untrusted_orderer_is_member_operated(self, deployment):
        assert deployment.network.orderer.operator in PARTIES

    def test_encryption_configured_for_untrusted_orderer(self, deployment):
        assert "trade" in deployment.encrypted_classes
        assert set(deployment._key_wraps["trade"]) == set(PARTIES)

    def test_too_few_parties_rejected(self):
        requirements = make_requirements()
        design = design_solution(requirements)
        with pytest.raises(GuideError, match="two parties"):
            build_deployment(design, requirements, ["solo"])


class TestRouting:
    def test_pii_goes_to_collection_and_erases(self, deployment):
        deployment.record("pii", "OrgA", "passport-1", {"num": "P-9"})
        assert deployment.read("pii", "OrgB", "passport-1") == {"num": "P-9"}
        deployment.erase("pii", "passport-1")
        with pytest.raises(Exception):
            deployment.read("pii", "OrgB", "passport-1")

    def test_pii_value_never_on_chain(self, deployment):
        deployment.record("pii", "OrgA", "passport-2", {"num": "SECRET-77"})
        chain = deployment.network.channel(deployment.channel_name).chain
        for tx in chain.transactions():
            for write in tx.writes:
                assert "SECRET-77" not in str(write.value)

    def test_trade_encrypted_on_chain_decrypted_for_members(self, deployment):
        deployment.record("trade", "OrgA", "t1", {"amount": 42})
        assert deployment.read("trade", "OrgB", "t1") == {"amount": 42}
        stored = deployment.network.channel(
            deployment.channel_name
        ).reference_state().get("trade/t1")
        assert set(stored) == {"nonce_hex", "body_hex", "tag_hex"}
        assert "42" not in stored["body_hex"]

    def test_non_party_cannot_decrypt(self, deployment):
        from repro.common.errors import MembershipError

        deployment.record("trade", "OrgA", "t2", {"amount": 7})
        # Outsiders are stopped at the channel boundary already...
        with pytest.raises(MembershipError):
            deployment.read("trade", "Outsider", "t2")
        # ...and even a channel member without a key wrap cannot decrypt.
        wrap = deployment._key_wraps["trade"].pop("OrgC")
        try:
            with pytest.raises(PrivacyError, match="no key wrap"):
                deployment.read("trade", "OrgC", "t2")
        finally:
            deployment._key_wraps["trade"]["OrgC"] = wrap

    def test_zkp_class_refuses_plain_record(self, deployment):
        with pytest.raises(PrivacyError, match="commit_value"):
            deployment.record("balance", "OrgA", "b1", 100)

    def test_mpc_class_refuses_plain_record(self, deployment):
        with pytest.raises(PrivacyError, match="compute_sum"):
            deployment.record("votes", "OrgA", "v1", 1)

    def test_erase_refused_for_onledger_classes(self, deployment):
        with pytest.raises(PrivacyError, match="off-chain"):
            deployment.erase("trade", "t1")


class TestZkpPath:
    def test_commit_and_prove_threshold(self, deployment):
        deployment.commit_value("balance", "OrgA", "acct", 900)
        proof = deployment.prove_at_least("balance", "acct", 500)
        assert deployment.verify_at_least("balance", "OrgB", "acct", proof)

    def test_onchain_record_is_commitment_only(self, deployment):
        deployment.commit_value("balance", "OrgA", "acct2", 1234)
        stored = deployment.network.channel(
            deployment.channel_name
        ).reference_state().get("balance/acct2")
        assert set(stored) == {"commitment"}
        assert stored["commitment"] != 1234


class TestMpcPath:
    def test_aggregate_committed_votes_private(self, deployment):
        total, stats, __ = deployment.compute_sum(
            "votes", "OrgA", "motion-1",
            {"OrgA": 1, "OrgB": 0, "OrgC": 1},
        )
        assert total == 2
        stored = deployment.network.channel(
            deployment.channel_name
        ).reference_state().get("votes/motion-1")
        assert stored == {"aggregate": 2, "parties": 3}


class TestEndToEndPrivacy:
    def test_outsider_learns_nothing_from_operations(self, deployment):
        outsider = deployment.network.network.node("Outsider").observer
        assert outsider.seen_data_keys == set()
        assert not (set(PARTIES) & outsider.seen_identities)

    def test_member_orderer_sees_only_ciphertext_for_trade(self, deployment):
        # The orderer observed the key names but the value is ciphertext;
        # the encrypted classes' plaintext never crossed the wire.
        orderer = deployment.network.orderer.observer
        assert "trade/t1" in orderer.seen_data_keys
