"""Public key infrastructure.

Implements the membership substrate the paper's Section 2.1 assumes: a
certificate authority that maps public keys to verified identities, with
certificate chains, expiry, revocation, and an optional global membership
list.  Linking certificates for one-time public keys (Section 2.1) are also
issued here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.clock import SimClock
from repro.common.errors import CertificateError
from repro.common.rng import DeterministicRNG
from repro.common.serialization import canonical_bytes
from repro.crypto.hashing import tagged_hash
from repro.crypto.signatures import (
    PrivateKey,
    PublicKey,
    Signature,
    SignatureScheme,
)


@dataclass(frozen=True)
class Certificate:
    """A signed binding of a public key to an identity.

    ``attributes`` may carry role, organization, or linking information.
    ``issuer`` is the CA's common name; the signature is over the canonical
    form of everything except the signature itself.
    """

    subject: str
    public_key_y: int
    issuer: str
    serial: int
    not_before: float
    not_after: float
    attributes: dict = field(default_factory=dict)
    signature: Signature | None = None

    def to_be_signed(self) -> bytes:
        """Canonical bytes covered by the issuer's signature."""
        return canonical_bytes(
            {
                "subject": self.subject,
                "public_key_y": self.public_key_y,
                "issuer": self.issuer,
                "serial": self.serial,
                "not_before": self.not_before,
                "not_after": self.not_after,
                "attributes": self.attributes,
            }
        )

    @property
    def public_key(self) -> PublicKey:
        return PublicKey(y=self.public_key_y)


class CertificateAuthority:
    """Issues, verifies, and revokes certificates.

    One CA per organization is the common deployment; a root CA can
    cross-sign organization CAs to form chains.
    """

    DEFAULT_VALIDITY = 10 * 365 * 24 * 3600.0

    def __init__(
        self,
        name: str,
        scheme: SignatureScheme,
        clock: SimClock,
        rng: DeterministicRNG | None = None,
    ) -> None:
        self.name = name
        self.scheme = scheme
        self.clock = clock
        self._rng = rng or DeterministicRNG("ca:" + name)
        self._key = scheme.keygen(self._rng)
        self._serial = 0
        self._revoked: set[int] = set()
        self._issued: dict[int, Certificate] = {}
        # Chain-validation cache: the issuer-signature check is the costly,
        # immutable part of verify(); validity windows and revocation are
        # time/state dependent and stay live.  Keyed on the serial, a digest
        # of the signed bytes, and the signature so tampering cannot alias.
        self._chain_cache: dict[tuple[int, bytes, int, int], bool] = {}
        self._chain_hits = 0
        self._chain_misses = 0

    @property
    def public_key(self) -> PublicKey:
        """The CA's verification key, distributed to all relying parties."""
        return self._key.public

    def issue(
        self,
        subject: str,
        public_key: PublicKey,
        attributes: dict | None = None,
        validity: float | None = None,
    ) -> Certificate:
        """Issue a certificate binding *public_key* to *subject*."""
        self._serial += 1
        not_before = self.clock.now
        not_after = not_before + (validity or self.DEFAULT_VALIDITY)
        cert = Certificate(
            subject=subject,
            public_key_y=public_key.y,
            issuer=self.name,
            serial=self._serial,
            not_before=not_before,
            not_after=not_after,
            attributes=dict(attributes or {}),
        )
        signature = self.scheme.sign(self._key, cert.to_be_signed())
        signed = Certificate(**{**cert.__dict__, "signature": signature})
        self._issued[signed.serial] = signed
        return signed

    def issue_linking_certificate(
        self, root_cert: Certificate, one_time_key: PublicKey
    ) -> Certificate:
        """Issue a certificate linking a one-time key to a root identity.

        Per Section 2.1: 'Transacting parties and any entity that needs to
        verify signatures are then provided with a certificate that links
        the pseudonymous public key with an identity.'  The linking
        certificate is only handed to authorized verifiers, never published.
        """
        return self.issue(
            subject=root_cert.subject,
            public_key=one_time_key,
            attributes={
                "linking": True,
                "root_serial": root_cert.serial,
                "root_key_y": root_cert.public_key_y,
            },
        )

    def revoke(self, serial: int) -> None:
        """Add *serial* to the revocation list."""
        if serial not in self._issued:
            raise CertificateError(f"unknown serial {serial}")
        self._revoked.add(serial)

    def verify(self, cert: Certificate, at: float | None = None) -> None:
        """Raise :class:`CertificateError` unless *cert* is currently valid."""
        if cert.signature is None:
            raise CertificateError("certificate is unsigned")
        if cert.issuer != self.name:
            raise CertificateError(
                f"certificate issued by {cert.issuer!r}, not {self.name!r}"
            )
        when = self.clock.now if at is None else at
        if not (cert.not_before <= when <= cert.not_after):
            raise CertificateError("certificate outside validity window")
        if cert.serial in self._revoked:
            raise CertificateError(f"certificate serial {cert.serial} revoked")
        if not self._signature_chain_ok(cert):
            raise CertificateError("issuer signature invalid")

    def _signature_chain_ok(self, cert: Certificate) -> bool:
        """Memoized issuer-signature check over the certificate's bytes."""
        if cert.signature is None:
            return False
        signed = cert.to_be_signed()
        cache_key = (
            cert.serial,
            tagged_hash("repro/pki/chain-cache", signed),
            cert.signature.challenge,
            cert.signature.response,
        )
        cached = self._chain_cache.get(cache_key)
        if cached is not None:
            self._chain_hits += 1
            return cached
        self._chain_misses += 1
        result = self.scheme.verify(self.public_key, signed, cert.signature)
        self._chain_cache[cache_key] = result
        return result

    def cache_info(self) -> dict[str, int]:
        """Chain-validation cache statistics: hits, misses, current size."""
        return {
            "hits": self._chain_hits,
            "misses": self._chain_misses,
            "size": len(self._chain_cache),
        }

    def reset_cache(self) -> None:
        """Drop memoized chain validations and zero the counters."""
        self._chain_cache.clear()
        self._chain_hits = 0
        self._chain_misses = 0


class MembershipService:
    """Maps verified identities to certificates across organizations.

    The paper (Section 2.1): 'This service may optionally expose a global
    membership list so that parties may establish relationships.'  Whether
    the global list is exposed is a privacy-relevant deployment choice, so
    it is an explicit flag here.
    """

    def __init__(self, expose_global_list: bool = True) -> None:
        self.expose_global_list = expose_global_list
        self._authorities: dict[str, CertificateAuthority] = {}
        self._members: dict[str, Certificate] = {}

    def register_authority(self, ca: CertificateAuthority) -> None:
        self._authorities[ca.name] = ca

    def enroll(self, cert: Certificate) -> None:
        """Record a verified member certificate."""
        ca = self._authorities.get(cert.issuer)
        if ca is None:
            raise CertificateError(f"unknown issuer {cert.issuer!r}")
        ca.verify(cert)
        self._members[cert.subject] = cert

    def certificate_of(self, subject: str) -> Certificate:
        if subject not in self._members:
            raise CertificateError(f"{subject!r} is not an enrolled member")
        return self._members[subject]

    def members(self) -> list[str]:
        """The global membership list, if this deployment exposes one."""
        if not self.expose_global_list:
            raise CertificateError("this membership service hides the global list")
        return sorted(self._members)

    def verify_member_signature(
        self,
        scheme: SignatureScheme,
        subject: str,
        message: bytes,
        signature: Signature,
    ) -> bool:
        """Check a signature against the enrolled certificate of *subject*."""
        cert = self.certificate_of(subject)
        return scheme.verify(cert.public_key, message, signature)


def make_identity(
    name: str,
    ca: CertificateAuthority,
    scheme: SignatureScheme,
    attributes: dict | None = None,
) -> tuple[PrivateKey, Certificate]:
    """Convenience: generate a key pair and have *ca* certify it."""
    key = scheme.keygen_from_seed(f"{ca.name}/{name}")
    cert = ca.issue(name, key.public, attributes=attributes)
    return key, cert
