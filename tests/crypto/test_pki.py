"""PKI: issuance, verification, revocation, expiry, membership."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.common.clock import SimClock
import repro.common.serialization as serialization
from repro.common.errors import CertificateError
from repro.crypto.pki import (
    Certificate,
    CertificateAuthority,
    MembershipService,
    make_identity,
)


@pytest.fixture
def ca(scheme, clock):
    return CertificateAuthority("TestCA", scheme, clock)


@pytest.fixture
def identity(ca, scheme):
    return make_identity("alice", ca, scheme, attributes={"org": "BankA"})


class TestIssuance:
    def test_issue_and_verify(self, ca, identity):
        __, cert = identity
        ca.verify(cert)

    def test_subject_and_issuer_recorded(self, ca, identity):
        __, cert = identity
        assert cert.subject == "alice"
        assert cert.issuer == "TestCA"

    def test_attributes_carried(self, ca, identity):
        __, cert = identity
        assert cert.attributes == {"org": "BankA"}

    def test_serials_increment(self, ca, scheme):
        __, c1 = make_identity("a", ca, scheme)
        __, c2 = make_identity("b", ca, scheme)
        assert c2.serial == c1.serial + 1

    def test_public_key_embedded(self, ca, scheme):
        key, cert = make_identity("a", ca, scheme)
        assert cert.public_key.y == key.public.y


class TestVerification:
    def test_unsigned_rejected(self, ca, identity):
        __, cert = identity
        unsigned = replace(cert, signature=None)
        with pytest.raises(CertificateError, match="unsigned"):
            ca.verify(unsigned)

    def test_wrong_issuer_rejected(self, ca, identity):
        __, cert = identity
        forged = replace(cert, issuer="EvilCA")
        with pytest.raises(CertificateError, match="issued by"):
            ca.verify(forged)

    def test_tampered_subject_rejected(self, ca, identity):
        __, cert = identity
        forged = replace(cert, subject="mallory")
        with pytest.raises(CertificateError, match="signature invalid"):
            ca.verify(forged)

    def test_expired_rejected(self, ca, identity, clock):
        __, cert = identity
        clock.advance(ca.DEFAULT_VALIDITY + 1)
        with pytest.raises(CertificateError, match="validity"):
            ca.verify(cert)

    def test_at_parameter(self, ca, identity):
        __, cert = identity
        ca.verify(cert, at=cert.not_after)
        with pytest.raises(CertificateError):
            ca.verify(cert, at=cert.not_after + 1)


class TestRevocation:
    def test_revoked_cert_rejected(self, ca, identity):
        __, cert = identity
        ca.revoke(cert.serial)
        with pytest.raises(CertificateError, match="revoked"):
            ca.verify(cert)

    def test_revoking_unknown_serial_rejected(self, ca):
        with pytest.raises(CertificateError, match="unknown serial"):
            ca.revoke(9999)

    def test_revocation_is_per_serial(self, ca, scheme):
        __, c1 = make_identity("a", ca, scheme)
        __, c2 = make_identity("b", ca, scheme)
        ca.revoke(c1.serial)
        ca.verify(c2)


class TestLinkingCertificates:
    def test_linking_certificate_attributes(self, ca, scheme, identity):
        __, root_cert = identity
        one_time = scheme.keygen_from_seed("one-time")
        linking = ca.issue_linking_certificate(root_cert, one_time.public)
        assert linking.attributes["linking"] is True
        assert linking.attributes["root_serial"] == root_cert.serial
        assert linking.attributes["root_key_y"] == root_cert.public_key_y
        ca.verify(linking)


class TestMembershipService:
    def test_enroll_and_lookup(self, ca, identity):
        __, cert = identity
        service = MembershipService()
        service.register_authority(ca)
        service.enroll(cert)
        assert service.certificate_of("alice") is cert
        assert service.members() == ["alice"]

    def test_enroll_unknown_issuer_rejected(self, identity):
        __, cert = identity
        service = MembershipService()
        with pytest.raises(CertificateError, match="unknown issuer"):
            service.enroll(cert)

    def test_unenrolled_lookup_rejected(self, ca):
        service = MembershipService()
        service.register_authority(ca)
        with pytest.raises(CertificateError, match="not an enrolled member"):
            service.certificate_of("nobody")

    def test_hidden_global_list(self, ca, identity):
        __, cert = identity
        service = MembershipService(expose_global_list=False)
        service.register_authority(ca)
        service.enroll(cert)
        with pytest.raises(CertificateError, match="hides the global list"):
            service.members()
        # Direct lookup still works — only the list is hidden.
        assert service.certificate_of("alice") is cert

    def test_verify_member_signature(self, ca, scheme, identity):
        key, cert = identity
        service = MembershipService()
        service.register_authority(ca)
        service.enroll(cert)
        sig = scheme.sign(key, b"msg")
        assert service.verify_member_signature(scheme, "alice", b"msg", sig)
        assert not service.verify_member_signature(scheme, "alice", b"other", sig)


class TestChainCache:
    def test_repeat_verification_hits_cache(self, ca, identity):
        __, cert = identity
        ca.verify(cert)
        before = ca.cache_info()
        ca.verify(cert)
        after = ca.cache_info()
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]

    def test_expiry_still_enforced_after_cache_warm(self, ca, identity, clock):
        """Only the issuer-signature check is memoized: the validity
        window is evaluated live on every call."""
        __, cert = identity
        ca.verify(cert)  # warm the chain cache
        clock.advance(cert.not_after + 1.0)
        with pytest.raises(CertificateError, match="expired|valid"):
            ca.verify(cert)

    def test_revocation_still_enforced_after_cache_warm(self, ca, identity):
        __, cert = identity
        ca.verify(cert)  # warm the chain cache
        ca.revoke(cert.serial)
        with pytest.raises(CertificateError, match="revoked"):
            ca.verify(cert)

    def test_tampered_cert_misses_cached_true(self, ca, identity):
        """A copy made with ``replace`` encodes its own signed bytes, so it
        cannot alias the genuine certificate's cached verdict."""
        __, cert = identity
        ca.verify(cert)  # warm the chain cache
        for change in (
            {"subject": "mallory"},
            {"attributes": {"org": "BankB"}},
            {"not_after": cert.not_after + 1.0},
        ):
            tampered = replace(cert, **change)
            assert tampered.to_be_signed() != cert.to_be_signed()
            with pytest.raises(CertificateError, match="signature"):
                ca.verify(tampered)
        ca.verify(cert)

    def test_repeat_verification_encodes_nothing(self, ca, identity, monkeypatch):
        __, cert = identity
        ca.verify(cert)
        encodes = []
        encode = serialization.canonical_json

        def counted(value):
            encodes.append(value)
            return encode(value)

        monkeypatch.setattr(serialization, "canonical_json", counted)
        ca.verify(cert)
        assert encodes == []
        assert ca.cache_info()["hits"] == 1

    def test_issue_after_unsigned_bytes_were_read(self, ca, scheme, monkeypatch):
        """``issue`` reads the unsigned certificate's signed bytes, which
        caches them on it, and then builds the signed copy from it."""
        read = []
        to_be_signed = Certificate.to_be_signed

        def spy(cert):
            read.append(cert.signature)
            return to_be_signed(cert)

        monkeypatch.setattr(Certificate, "to_be_signed", spy)
        key = scheme.keygen_from_seed("late-reader")
        cert = ca.issue("bob", key.public, attributes={"role": "peer"})
        assert None in read
        ca.verify(cert)
        fresh = replace(cert, attributes=dict(cert.attributes))
        assert fresh.to_be_signed() == cert.to_be_signed()

    def test_reset_cache(self, ca, identity):
        __, cert = identity
        ca.verify(cert)
        ca.verify(cert)
        ca.reset_cache()
        assert ca.cache_info() == {"hits": 0, "misses": 0, "size": 0}
        ca.verify(cert)
        assert ca.cache_info()["misses"] == 1
