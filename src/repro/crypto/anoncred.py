"""Anonymous credentials (Idemix stand-in).

The paper (Sections 2.1 and 5) describes Fabric's Idemix: "zero-knowledge
proof of identity using the public key of the issuing certificate authority
to verify the credentials rather than disclosing the identity", with
signatures "completely unlinkable to each other and to an identity".

We reproduce those properties with a **blind Schnorr credential scheme**:

1. Enrolment: the issuer verifies the holder's real identity (via PKI) and
   records their attributes.  The issuer knows identities at issuance,
   exactly as an Idemix issuer does.
2. Presentation tokens: the holder obtains tokens through the three-move
   *blind* Schnorr protocol, so the issuer cannot link a token to the
   session that produced it, and tokens are mutually unlinkable.
3. Selective disclosure: tokens are signed under a per-disclosure-template
   key ``y_T = y * g^{H(T)}`` derived from the issuer key; the issuer only
   signs under a template the holder's enrolled attributes satisfy, and a
   verifier checks the token against the template key — learning only the
   disclosed attributes.

Substitution note (see DESIGN.md): production Idemix uses CL signatures
over bilinear groups.  The blind-Schnorr construction preserves the three
properties the design guide reasons about — issuer-verified attributes,
holder anonymity at presentation, and unlinkability — in the same Schnorr
group as the rest of the library.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import MembershipError, ProofError
from repro.common.rng import DeterministicRNG
from repro.common.serialization import canonical_bytes
from repro.crypto.groups import SchnorrGroup, cached_test_group
from repro.crypto.signatures import PrivateKey, PublicKey, SignatureScheme


def _template_scalar(group: SchnorrGroup, template: dict) -> int:
    """Deterministic scalar for a disclosure template (sorted attributes)."""
    return group.hash_to_scalar("repro/anoncred/template", canonical_bytes(template))


@dataclass(frozen=True)
class Presentation:
    """An unlinkable credential presentation.

    ``disclosed`` is the attribute subset the verifier learns.  ``nonce``
    is a holder-chosen fresh value making each token unique.  The Schnorr
    pair (commitment, response) verifies under the template key.
    """

    disclosed: dict
    nonce: bytes
    commitment: int
    response: int

    def message(self) -> bytes:
        return canonical_bytes({"disclosed": self.disclosed, "nonce": self.nonce})


@dataclass
class _IssuanceSession:
    """Issuer-side state for one blind signing session."""

    nonce: int
    template_key: int
    finished: bool = False


class CredentialIssuer:
    """Enrolls members and blind-signs presentation tokens.

    Plays the role of the Idemix issuer / Fabric Idemix MSP.  The issuer
    sees identities at enrolment and the disclosure template at signing
    time, but never the token it produces — that is what makes
    presentations unlinkable.
    """

    def __init__(
        self,
        name: str,
        scheme: SignatureScheme | None = None,
        rng: DeterministicRNG | None = None,
    ) -> None:
        self.name = name
        self.scheme = scheme or SignatureScheme()
        self.group = self.scheme.group
        self._rng = rng or DeterministicRNG("anoncred-issuer:" + name)
        self._key = self.scheme.keygen(self._rng)
        self._members: dict[str, dict] = {}
        self._revoked: set[str] = set()
        self._sessions: dict[int, _IssuanceSession] = {}
        self._session_counter = 0

    @property
    def public_key(self) -> PublicKey:
        return self._key.public

    def enroll(self, identity: str, attributes: dict) -> None:
        """Record a verified member's attributes (identity-revealing step)."""
        self._members[identity] = dict(attributes)
        self._revoked.discard(identity)

    def revoke(self, identity: str) -> None:
        """Revoke a member's credential.

        Issuance is the revocation chokepoint in this scheme: already-held
        presentation tokens remain valid (they are unlinkable, so the
        issuer cannot recall them), but the holder can obtain no new ones.
        Verifiers that need immediate revocation should demand fresh
        tokens per interaction — the trade-off production Idemix
        deployments face with revocation epochs.
        """
        if identity not in self._members:
            raise MembershipError(f"{identity!r} is not enrolled")
        self._revoked.add(identity)

    def template_public_key(self, template: dict) -> PublicKey:
        """Publicly derivable verification key for a disclosure template."""
        shift = self.group.exp(self.group.g, _template_scalar(self.group, template))
        return PublicKey(y=self.group.mul(self._key.public.y, shift))

    def _satisfies(self, identity: str, template: dict) -> bool:
        if identity in self._revoked:
            return False
        attributes = self._members.get(identity)
        if attributes is None:
            return False
        return all(attributes.get(k) == v for k, v in template.items())

    def begin_issuance(self, identity: str, template: dict) -> tuple[int, int]:
        """Move 1 of blind Schnorr: returns (session id, R = g^k).

        Refuses unless *identity* is enrolled with attributes satisfying
        the template — the issuer's policy check happens here, on the
        identity-revealing channel.
        """
        if not self._satisfies(identity, template):
            raise MembershipError(
                f"{identity!r} does not hold attributes satisfying {template!r}"
            )
        k = self.group.random_scalar(self._rng)
        self._session_counter += 1
        session_id = self._session_counter
        template_key = (
            self._key.x + _template_scalar(self.group, template)
        ) % self.group.q
        self._sessions[session_id] = _IssuanceSession(nonce=k, template_key=template_key)
        return session_id, self.group.exp(self.group.g, k)

    def finish_issuance(self, session_id: int, blinded_challenge: int) -> int:
        """Move 3 of blind Schnorr: returns s = k + e*x_T mod q."""
        session = self._sessions.get(session_id)
        if session is None or session.finished:
            raise ProofError("unknown or completed issuance session")
        session.finished = True
        return (
            session.nonce + blinded_challenge * session.template_key
        ) % self.group.q


class CredentialHolder:
    """Holder-side blinding logic producing unlinkable presentations."""

    def __init__(
        self,
        identity: str,
        issuer: CredentialIssuer,
        rng: DeterministicRNG | None = None,
    ) -> None:
        self.identity = identity
        self.issuer = issuer
        self.group = issuer.group
        self._rng = rng or DeterministicRNG("anoncred-holder:" + identity)

    def obtain_presentation(self, template: dict) -> Presentation:
        """Run the blind protocol and return a fresh presentation token."""
        group = self.group
        session_id, issuer_commitment = self.issuer.begin_issuance(
            self.identity, template
        )
        alpha = group.random_scalar(self._rng)
        beta = group.random_scalar(self._rng)
        template_y = self.issuer.template_public_key(template).y
        blinded_commitment = group.mul(
            group.mul(issuer_commitment, group.exp(group.g, alpha)),
            group.exp(template_y, beta),
        )
        nonce = self._rng.randbytes(16)
        presentation_message = canonical_bytes(
            {"disclosed": template, "nonce": nonce}
        )
        e_prime = group.hash_to_scalar(
            "repro/anoncred/present",
            blinded_commitment.to_bytes((group.p.bit_length() + 7) // 8, "big")
            + presentation_message,
        )
        blinded_challenge = (e_prime + beta) % group.q
        issuer_response = self.issuer.finish_issuance(session_id, blinded_challenge)
        response = (issuer_response + alpha) % group.q
        return Presentation(
            disclosed=dict(template),
            nonce=nonce,
            commitment=blinded_commitment,
            response=response,
        )


def verify_presentation(
    issuer: CredentialIssuer | PublicKey,
    presentation: Presentation,
    group: SchnorrGroup | None = None,
    template_key: PublicKey | None = None,
) -> bool:
    """Verify a presentation against the issuer's (template) public key.

    A verifier learns only: the issuer vouches that *someone* enrolled with
    the disclosed attributes produced this token.
    """
    if isinstance(issuer, CredentialIssuer):
        group = issuer.group
        template_key = issuer.template_public_key(presentation.disclosed)
    if group is None or template_key is None:
        raise ProofError("verification requires the group and template key")
    e_prime = group.hash_to_scalar(
        "repro/anoncred/present",
        presentation.commitment.to_bytes((group.p.bit_length() + 7) // 8, "big")
        + presentation.message(),
    )
    lhs = group.exp(group.g, presentation.response)
    rhs = group.mul(
        presentation.commitment, group.exp(template_key.y, e_prime)
    )
    return lhs == rhs
