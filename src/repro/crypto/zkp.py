"""Zero-knowledge proofs.

The paper uses ZKPs in two roles:

- **Identity** (Section 2.1): prove possession of a credential/key without
  revealing which one.  :class:`SchnorrIdentification` implements the
  classic proof of knowledge of a discrete log, both interactively and
  non-interactively (Fiat-Shamir).
- **Data** (Section 2.2): "prove that a certain fact is true (e.g. 'the
  party has the appropriate funds') without revealing raw values".
  :class:`RangeProver` implements a bit-decomposition range proof over
  Pedersen commitments, and :func:`prove_sufficient_funds` specializes it
  to the paper's example.

Also provided: Chaum-Pedersen proof of discrete-log equality, used by the
one-time-key module to prove two pseudonymous keys share an owner without
naming the owner.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ProofError
from repro.common.rng import DeterministicRNG
from repro.crypto.commitments import Commitment, Opening, PedersenScheme
from repro.crypto.groups import SchnorrGroup, cached_test_group
from repro.crypto.signatures import PrivateKey, PublicKey


def _encode(group: SchnorrGroup, *values: int | bytes) -> bytes:
    parts = []
    for value in values:
        if isinstance(value, bytes):
            parts.append(value)
        else:
            width = (group.p.bit_length() + 7) // 8
            parts.append(value.to_bytes(width, "big"))
    return b"|".join(parts)


# ---------------------------------------------------------------------------
# Proof of knowledge of a discrete log (Schnorr identification)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DlogProof:
    """Non-interactive Schnorr proof of knowledge of x with y = g^x."""

    commitment: int
    response: int
    context: bytes


class SchnorrIdentification:
    """Interactive and Fiat-Shamir Schnorr identification."""

    def __init__(self, group: SchnorrGroup | None = None) -> None:
        self.group = group or cached_test_group()

    # -- interactive (three moves), exposed for the C1 round-count ablation

    def commit(self, rng: DeterministicRNG) -> tuple[int, int]:
        """Prover move 1: returns (nonce k, commitment R = g^k)."""
        k = self.group.random_scalar(rng)
        return k, self.group.exp(self.group.g, k)

    def challenge(self, rng: DeterministicRNG) -> int:
        """Verifier move 2: random challenge."""
        return self.group.random_scalar(rng)

    def respond(self, key: PrivateKey, nonce: int, challenge: int) -> int:
        """Prover move 3: s = k + e*x mod q."""
        return (nonce + challenge * key.x) % self.group.q

    def check(self, public: PublicKey, commitment: int, challenge: int, response: int) -> bool:
        """Verifier: g^s == R * y^e."""
        lhs = self.group.exp(self.group.g, response)
        rhs = self.group.mul(commitment, self.group.exp(public.y, challenge))
        return lhs == rhs

    # -- non-interactive (Fiat-Shamir)

    def prove(self, key: PrivateKey, context: bytes, rng: DeterministicRNG) -> DlogProof:
        """One-message ZK proof of knowledge of the secret key, bound to *context*."""
        k = self.group.random_scalar(rng)
        commitment = self.group.exp(self.group.g, k)
        e = self.group.hash_to_scalar(
            "repro/zkp/dlog", _encode(self.group, commitment, key.public.y, context)
        )
        response = (k + e * key.x) % self.group.q
        return DlogProof(commitment=commitment, response=response, context=context)

    def verify(self, public: PublicKey, proof: DlogProof) -> bool:
        """Verify a Fiat-Shamir proof against *public* and its bound context."""
        # y = 1 is in the subgroup but makes R = g^s a proof for any s.
        if public.y == 1 or not self.group.contains(public.y):
            return False
        e = self.group.hash_to_scalar(
            "repro/zkp/dlog",
            _encode(self.group, proof.commitment, public.y, proof.context),
        )
        return self.check(public, proof.commitment, e, proof.response)


# ---------------------------------------------------------------------------
# Chaum-Pedersen proof of discrete-log equality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DlogEqualityProof:
    """Proof that log_g(y1) == log_{base2}(y2) without revealing the log."""

    commitment_g: int
    commitment_base2: int
    response: int
    context: bytes


class ChaumPedersen:
    """Prove two public values share the same exponent (same owner)."""

    def __init__(self, group: SchnorrGroup | None = None) -> None:
        self.group = group or cached_test_group()

    def prove(
        self,
        secret: int,
        base2: int,
        context: bytes,
        rng: DeterministicRNG,
    ) -> DlogEqualityProof:
        """Prove knowledge of x with (g^x, base2^x), bound to *context*."""
        k = self.group.random_scalar(rng)
        a1 = self.group.exp(self.group.g, k)
        a2 = self.group.exp(base2, k)
        y1 = self.group.exp(self.group.g, secret)
        y2 = self.group.exp(base2, secret)
        e = self.group.hash_to_scalar(
            "repro/zkp/dleq", _encode(self.group, a1, a2, y1, y2, base2, context)
        )
        response = (k + e * secret) % self.group.q
        return DlogEqualityProof(
            commitment_g=a1, commitment_base2=a2, response=response, context=context
        )

    def verify(self, y1: int, y2: int, base2: int, proof: DlogEqualityProof) -> bool:
        e = self.group.hash_to_scalar(
            "repro/zkp/dleq",
            _encode(
                self.group,
                proof.commitment_g,
                proof.commitment_base2,
                y1,
                y2,
                base2,
                proof.context,
            ),
        )
        lhs1 = self.group.exp(self.group.g, proof.response)
        rhs1 = self.group.mul(proof.commitment_g, self.group.exp(y1, e))
        lhs2 = self.group.exp(base2, proof.response)
        rhs2 = self.group.mul(proof.commitment_base2, self.group.exp(y2, e))
        return lhs1 == rhs1 and lhs2 == rhs2


# ---------------------------------------------------------------------------
# Bit proof (OR-composition) and range proof
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BitProof:
    """CDS OR-proof that a Pedersen commitment opens to 0 or 1."""

    commitment_zero: int
    commitment_one: int
    challenge_zero: int
    challenge_one: int
    response_zero: int
    response_one: int


@dataclass(frozen=True)
class RangeProof:
    """Proof that a committed value lies in [0, 2^bits).

    Contains one bit commitment + OR-proof per bit plus the aggregate
    blinding response tying the bits to the target commitment.
    """

    bits: int
    bit_commitments: tuple[int, ...]
    bit_proofs: tuple[BitProof, ...]
    aggregate_blinding: int

    def wire_size(self) -> int:
        """Approximate proof size in group elements (for C1 benchmarks)."""
        return 1 + len(self.bit_commitments) + 6 * len(self.bit_proofs)


class RangeProver:
    """Bit-decomposition range proofs over Pedersen commitments.

    This is the classic pre-Bulletproofs construction the paper's reference
    [20] surveys; linear in the bit length, which the C1 benchmark measures.
    """

    def __init__(self, group: SchnorrGroup | None = None) -> None:
        self.group = group or cached_test_group()
        self.pedersen = PedersenScheme(self.group)

    def _bit_challenge(self, target: int, a0: int, a1: int, context: bytes) -> int:
        return self.group.hash_to_scalar(
            "repro/zkp/bit", _encode(self.group, target, a0, a1, context)
        )

    def _prove_bit(
        self, bit: int, blinding: int, commitment: int, context: bytes, rng: DeterministicRNG
    ) -> BitProof:
        """OR-proof: commitment = h^r (bit 0)  OR  commitment/g = h^r (bit 1)."""
        g, h = self.group.g, self.group.h
        target_zero = commitment
        target_one = self.group.mul(commitment, self.group.inv(g))
        if bit == 0:
            # Real proof on branch 0, simulated on branch 1.
            w = self.group.random_scalar(rng)
            a0 = self.group.exp(h, w)
            e1 = self.group.random_scalar(rng)
            z1 = self.group.random_scalar(rng)
            a1 = self.group.mul(
                self.group.exp(h, z1), self.group.inv(self.group.exp(target_one, e1))
            )
            e = self._bit_challenge(commitment, a0, a1, context)
            e0 = (e - e1) % self.group.q
            z0 = (w + e0 * blinding) % self.group.q
        elif bit == 1:
            w = self.group.random_scalar(rng)
            a1 = self.group.exp(h, w)
            e0 = self.group.random_scalar(rng)
            z0 = self.group.random_scalar(rng)
            a0 = self.group.mul(
                self.group.exp(h, z0), self.group.inv(self.group.exp(target_zero, e0))
            )
            e = self._bit_challenge(commitment, a0, a1, context)
            e1 = (e - e0) % self.group.q
            z1 = (w + e1 * blinding) % self.group.q
        else:
            raise ProofError("bit must be 0 or 1")
        return BitProof(
            commitment_zero=a0,
            commitment_one=a1,
            challenge_zero=e0,
            challenge_one=e1,
            response_zero=z0,
            response_one=z1,
        )

    def _verify_bit(self, commitment: int, proof: BitProof, context: bytes) -> bool:
        g, h = self.group.g, self.group.h
        e = self._bit_challenge(
            commitment, proof.commitment_zero, proof.commitment_one, context
        )
        if (proof.challenge_zero + proof.challenge_one) % self.group.q != e:
            return False
        target_zero = commitment
        target_one = self.group.mul(commitment, self.group.inv(g))
        ok_zero = self.group.exp(h, proof.response_zero) == self.group.mul(
            proof.commitment_zero, self.group.exp(target_zero, proof.challenge_zero)
        )
        ok_one = self.group.exp(h, proof.response_one) == self.group.mul(
            proof.commitment_one, self.group.exp(target_one, proof.challenge_one)
        )
        return ok_zero and ok_one

    def prove_range(
        self,
        value: int,
        opening: Opening,
        bits: int,
        context: bytes,
        rng: DeterministicRNG,
    ) -> RangeProof:
        """Prove the commitment with *opening* holds a value in [0, 2^bits)."""
        if not (0 <= value < (1 << bits)):
            raise ProofError(f"value {value} outside [0, 2^{bits})")
        if opening.value != value % self.group.q:
            raise ProofError("opening does not match the claimed value")
        bit_values = [(value >> i) & 1 for i in range(bits)]
        # Choose per-bit blindings whose weighted sum equals the target blinding,
        # so the product of C_i^{2^i} reconstructs the target commitment exactly.
        blindings = [self.group.random_scalar(rng) for __ in range(bits)]
        weighted = sum(blindings[i] << i for i in range(bits)) % self.group.q
        correction = (opening.blinding - weighted) % self.group.q
        blindings[0] = (blindings[0] + correction) % self.group.q
        commitments = []
        proofs = []
        for i in range(bits):
            commitment, __ = self.pedersen.commit_with(bit_values[i], blindings[i])
            commitments.append(commitment.element)
            proofs.append(
                self._prove_bit(bit_values[i], blindings[i], commitment.element, context, rng)
            )
        return RangeProof(
            bits=bits,
            bit_commitments=tuple(commitments),
            bit_proofs=tuple(proofs),
            aggregate_blinding=opening.blinding,
        )

    def verify_range(self, commitment: Commitment, proof: RangeProof, context: bytes) -> bool:
        """Verify a range proof against the target *commitment*."""
        if len(proof.bit_commitments) != proof.bits or len(proof.bit_proofs) != proof.bits:
            return False
        for element, bit_proof in zip(proof.bit_commitments, proof.bit_proofs):
            if not self.group.contains(element):
                return False
            if not self._verify_bit(element, bit_proof, context):
                return False
        # Aggregate check: prod C_i^(2^i) must equal the target commitment.
        aggregate = 1
        for i, element in enumerate(proof.bit_commitments):
            aggregate = self.group.mul(aggregate, self.group.exp(element, 1 << i))
        return aggregate == commitment.element


@dataclass(frozen=True)
class FundsProof:
    """Boolean affirmation of 'balance >= threshold' (Section 2.2 example)."""

    threshold: int
    range_proof: RangeProof


def prove_sufficient_funds(
    prover: RangeProver,
    balance: int,
    opening: Opening,
    threshold: int,
    bits: int,
    context: bytes,
    rng: DeterministicRNG,
) -> FundsProof:
    """Prove ``balance >= threshold`` given a commitment to *balance*.

    Works by proving ``balance - threshold`` lies in [0, 2^bits) against the
    homomorphically shifted commitment C / g^threshold.
    """
    if balance < threshold:
        raise ProofError("cannot prove sufficient funds: balance below threshold")
    diff = balance - threshold
    shifted_opening = Opening(
        value=diff % prover.group.q, blinding=opening.blinding
    )
    range_proof = prover.prove_range(diff, shifted_opening, bits, context, rng)
    return FundsProof(threshold=threshold, range_proof=range_proof)


def verify_sufficient_funds(
    prover: RangeProver,
    balance_commitment: Commitment,
    proof: FundsProof,
    context: bytes,
) -> bool:
    """Verify a :class:`FundsProof` against the public balance commitment."""
    shifted = Commitment(
        element=prover.group.mul(
            balance_commitment.element,
            prover.group.inv(prover.group.exp(prover.group.g, proof.threshold)),
        )
    )
    return prover.verify_range(shifted, proof.range_proof, context)
