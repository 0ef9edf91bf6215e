"""Anonymous credentials: issuance policy, verification, unlinkability."""

from __future__ import annotations

import pytest

from repro.common.errors import MembershipError, ProofError
from repro.crypto.anoncred import (
    CredentialHolder,
    CredentialIssuer,
    Presentation,
    verify_presentation,
)


@pytest.fixture
def issuer():
    issuer = CredentialIssuer("test-msp")
    issuer.enroll("alice", {"org": "BankA", "role": "trader"})
    issuer.enroll("bob", {"org": "BankB", "role": "auditor"})
    return issuer


@pytest.fixture
def alice(issuer):
    return CredentialHolder("alice", issuer)


class TestIssuancePolicy:
    def test_satisfying_template_issued(self, issuer, alice):
        presentation = alice.obtain_presentation({"org": "BankA"})
        assert verify_presentation(issuer, presentation)

    def test_non_satisfying_template_refused(self, issuer, alice):
        with pytest.raises(MembershipError):
            alice.obtain_presentation({"org": "BankB"})

    def test_unenrolled_holder_refused(self, issuer):
        mallory = CredentialHolder("mallory", issuer)
        with pytest.raises(MembershipError):
            mallory.obtain_presentation({"org": "BankA"})

    def test_multi_attribute_template(self, issuer, alice):
        presentation = alice.obtain_presentation(
            {"org": "BankA", "role": "trader"}
        )
        assert verify_presentation(issuer, presentation)

    def test_session_cannot_be_reused(self, issuer):
        session_id, __ = issuer.begin_issuance("alice", {"org": "BankA"})
        issuer.finish_issuance(session_id, 12345)
        with pytest.raises(ProofError, match="completed"):
            issuer.finish_issuance(session_id, 12345)

    def test_unknown_session_rejected(self, issuer):
        with pytest.raises(ProofError, match="unknown"):
            issuer.finish_issuance(999, 1)


class TestVerification:
    def test_disclosed_attributes_visible_to_verifier(self, issuer, alice):
        presentation = alice.obtain_presentation({"org": "BankA"})
        assert presentation.disclosed == {"org": "BankA"}

    def test_undisclosed_attributes_absent(self, issuer, alice):
        presentation = alice.obtain_presentation({"org": "BankA"})
        assert "role" not in presentation.disclosed

    def test_identity_absent_from_presentation(self, issuer, alice):
        presentation = alice.obtain_presentation({"org": "BankA"})
        # Nothing in the token names the holder.
        assert "alice" not in str(presentation.disclosed)
        assert b"alice" not in presentation.nonce

    def test_forged_attributes_rejected(self, issuer, alice):
        presentation = alice.obtain_presentation({"org": "BankA"})
        forged = Presentation(
            disclosed={"org": "BankB"},
            nonce=presentation.nonce,
            commitment=presentation.commitment,
            response=presentation.response,
        )
        assert not verify_presentation(issuer, forged)

    def test_tampered_nonce_rejected(self, issuer, alice):
        presentation = alice.obtain_presentation({"org": "BankA"})
        forged = Presentation(
            disclosed=presentation.disclosed,
            nonce=b"\x00" * 16,
            commitment=presentation.commitment,
            response=presentation.response,
        )
        assert not verify_presentation(issuer, forged)

    def test_wrong_issuer_rejected(self, alice, issuer):
        other = CredentialIssuer("other-msp")
        presentation = alice.obtain_presentation({"org": "BankA"})
        assert not verify_presentation(other, presentation)

    def test_verification_by_key_only(self, issuer, alice):
        # A verifier holding only the issuer's public material can verify.
        presentation = alice.obtain_presentation({"org": "BankA"})
        template_key = issuer.template_public_key(presentation.disclosed)
        assert verify_presentation(
            issuer.public_key, presentation,
            group=issuer.group, template_key=template_key,
        )

    def test_verification_requires_keys(self, issuer, alice):
        presentation = alice.obtain_presentation({"org": "BankA"})
        with pytest.raises(ProofError):
            verify_presentation(issuer.public_key, presentation)


class TestUnlinkability:
    def test_presentations_share_no_values(self, issuer, alice):
        p1 = alice.obtain_presentation({"org": "BankA"})
        p2 = alice.obtain_presentation({"org": "BankA"})
        assert p1.nonce != p2.nonce
        assert p1.commitment != p2.commitment
        assert p1.response != p2.response

    def test_two_holders_indistinguishable_by_structure(self, issuer):
        issuer.enroll("carol", {"org": "BankA", "role": "trader"})
        alice = CredentialHolder("alice", issuer)
        carol = CredentialHolder("carol", issuer)
        pa = alice.obtain_presentation({"org": "BankA"})
        pc = carol.obtain_presentation({"org": "BankA"})
        # Same disclosed template, both verify, nothing else to compare.
        assert pa.disclosed == pc.disclosed
        assert verify_presentation(issuer, pa)
        assert verify_presentation(issuer, pc)


class TestRevocation:
    def test_revoked_holder_refused_new_tokens(self, issuer, alice):
        alice.obtain_presentation({"org": "BankA"})
        issuer.revoke("alice")
        with pytest.raises(MembershipError):
            alice.obtain_presentation({"org": "BankA"})

    def test_existing_tokens_remain_valid(self, issuer, alice):
        """The scheme's honest limitation: unlinkable tokens cannot be
        recalled — only fresh issuance stops."""
        presentation = alice.obtain_presentation({"org": "BankA"})
        issuer.revoke("alice")
        assert verify_presentation(issuer, presentation)

    def test_revoking_unknown_identity_rejected(self, issuer):
        with pytest.raises(MembershipError, match="not enrolled"):
            issuer.revoke("nobody")

    def test_reenrollment_clears_revocation(self, issuer, alice):
        issuer.revoke("alice")
        issuer.enroll("alice", {"org": "BankA", "role": "trader"})
        presentation = alice.obtain_presentation({"org": "BankA"})
        assert verify_presentation(issuer, presentation)

    def test_revocation_is_per_identity(self, issuer):
        issuer.revoke("alice")
        bob = CredentialHolder("bob", issuer)
        presentation = bob.obtain_presentation({"org": "BankB"})
        assert verify_presentation(issuer, presentation)
