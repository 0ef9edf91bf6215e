"""Zero-knowledge proofs: Schnorr id, dlog equality, range, funds."""

from __future__ import annotations

import pytest

from repro.common.errors import ProofError
from repro.common.rng import DeterministicRNG
from repro.crypto.commitments import Opening, PedersenScheme
from repro.crypto.signatures import PublicKey
from repro.crypto.zkp import (
    ChaumPedersen,
    DlogProof,
    RangeProver,
    SchnorrIdentification,
    prove_sufficient_funds,
    verify_sufficient_funds,
)


@pytest.fixture
def ident(group):
    return SchnorrIdentification(group)


@pytest.fixture
def keypair(scheme, rng):
    return scheme.keygen(rng)


class TestInteractiveSchnorr:
    def test_three_move_protocol(self, ident, keypair, rng):
        nonce, commitment = ident.commit(rng)
        challenge = ident.challenge(rng)
        response = ident.respond(keypair, nonce, challenge)
        assert ident.check(keypair.public, commitment, challenge, response)

    def test_wrong_secret_fails(self, ident, keypair, scheme, rng):
        other = scheme.keygen(rng)
        nonce, commitment = ident.commit(rng)
        challenge = ident.challenge(rng)
        response = ident.respond(other, nonce, challenge)
        assert not ident.check(keypair.public, commitment, challenge, response)


class TestFiatShamir:
    def test_prove_verify(self, ident, keypair, rng):
        proof = ident.prove(keypair, b"context", rng)
        assert ident.verify(keypair.public, proof)

    def test_wrong_key_fails(self, ident, keypair, scheme, rng):
        other = scheme.keygen(rng)
        proof = ident.prove(keypair, b"context", rng)
        assert not ident.verify(other.public, proof)

    def test_context_binding(self, ident, keypair, rng):
        proof = ident.prove(keypair, b"tx-1", rng)
        replayed = DlogProof(
            commitment=proof.commitment,
            response=proof.response,
            context=b"tx-2",
        )
        assert not ident.verify(keypair.public, replayed)

    def test_tampered_response_fails(self, ident, keypair, rng):
        proof = ident.prove(keypair, b"c", rng)
        bad = DlogProof(
            commitment=proof.commitment,
            response=(proof.response + 1) % ident.group.q,
            context=proof.context,
        )
        assert not ident.verify(keypair.public, bad)

    def test_proofs_are_randomized(self, ident, keypair, rng):
        p1 = ident.prove(keypair, b"c", rng)
        p2 = ident.prove(keypair, b"c", rng)
        assert p1.commitment != p2.commitment


class TestIdentityKeyForgery:
    def test_identity_key_proof_rejected(self, ident, group):
        """With y = 1, R = g^s passes g^s == R * y^e for any s."""
        response = 4242
        forged = DlogProof(commitment=group.exp(group.g, response),
                           response=response, context=b"login")
        assert not ident.verify(PublicKey(y=1), forged)


class TestChaumPedersen:
    def test_equality_proof(self, group, rng):
        cp = ChaumPedersen(group)
        secret = group.random_scalar(rng)
        base2 = group.hash_to_element("base", b"2")
        y1 = group.exp(group.g, secret)
        y2 = group.exp(base2, secret)
        proof = cp.prove(secret, base2, b"ctx", rng)
        assert cp.verify(y1, y2, base2, proof)

    def test_unequal_exponents_fail(self, group, rng):
        cp = ChaumPedersen(group)
        secret = group.random_scalar(rng)
        base2 = group.hash_to_element("base", b"2")
        y1 = group.exp(group.g, secret)
        y2 = group.exp(base2, secret + 1)
        proof = cp.prove(secret, base2, b"ctx", rng)
        assert not cp.verify(y1, y2, base2, proof)


class TestRangeProofs:
    @pytest.fixture
    def prover(self, group):
        return RangeProver(group)

    @pytest.fixture
    def pedersen(self, prover):
        return PedersenScheme(prover.group)

    def test_valid_range_proof(self, prover, pedersen, rng):
        commitment, opening = pedersen.commit(100, rng)
        proof = prover.prove_range(100, opening, 8, b"ctx", rng)
        assert prover.verify_range(commitment, proof, b"ctx")

    def test_boundary_values(self, prover, pedersen, rng):
        for value in (0, 1, 254, 255):
            commitment, opening = pedersen.commit(value, rng)
            proof = prover.prove_range(value, opening, 8, b"ctx", rng)
            assert prover.verify_range(commitment, proof, b"ctx")

    def test_value_outside_range_rejected_at_prove(self, prover, pedersen, rng):
        commitment, opening = pedersen.commit(256, rng)
        with pytest.raises(ProofError, match="outside"):
            prover.prove_range(256, opening, 8, b"ctx", rng)

    def test_mismatched_opening_rejected(self, prover, pedersen, rng):
        __, opening = pedersen.commit(5, rng)
        with pytest.raises(ProofError, match="does not match"):
            prover.prove_range(6, opening, 8, b"ctx", rng)

    def test_proof_bound_to_commitment(self, prover, pedersen, rng):
        __, opening = pedersen.commit(100, rng)
        other_commitment, __ = pedersen.commit(100, rng)
        proof = prover.prove_range(100, opening, 8, b"ctx", rng)
        assert not prover.verify_range(other_commitment, proof, b"ctx")

    def test_proof_bound_to_context(self, prover, pedersen, rng):
        commitment, opening = pedersen.commit(100, rng)
        proof = prover.prove_range(100, opening, 8, b"tx-1", rng)
        assert not prover.verify_range(commitment, proof, b"tx-2")

    def test_wire_size_linear_in_bits(self, prover, pedersen, rng):
        commitment, opening = pedersen.commit(3, rng)
        p4 = prover.prove_range(3, opening, 4, b"c", rng)
        p8 = prover.prove_range(3, opening, 8, b"c", rng)
        assert p8.wire_size() > p4.wire_size()


class TestSufficientFunds:
    @pytest.fixture
    def prover(self, group):
        return RangeProver(group)

    @pytest.fixture
    def pedersen(self, prover):
        return PedersenScheme(prover.group)

    def test_funds_proof_verifies(self, prover, pedersen, rng):
        commitment, opening = pedersen.commit(1000, rng)
        proof = prove_sufficient_funds(prover, 1000, opening, 750, 10, b"tx", rng)
        assert verify_sufficient_funds(prover, commitment, proof, b"tx")

    def test_exact_threshold(self, prover, pedersen, rng):
        commitment, opening = pedersen.commit(750, rng)
        proof = prove_sufficient_funds(prover, 750, opening, 750, 10, b"tx", rng)
        assert verify_sufficient_funds(prover, commitment, proof, b"tx")

    def test_insufficient_funds_cannot_prove(self, prover, pedersen, rng):
        __, opening = pedersen.commit(100, rng)
        with pytest.raises(ProofError, match="balance below threshold"):
            prove_sufficient_funds(prover, 100, opening, 750, 10, b"tx", rng)

    def test_proof_does_not_reveal_balance(self, prover, pedersen, rng):
        # Two different balances above the same threshold yield proofs the
        # verifier accepts equally — the proof is a boolean affirmation.
        c1, o1 = pedersen.commit(800, rng)
        c2, o2 = pedersen.commit(9999, rng)
        p1 = prove_sufficient_funds(prover, 800, o1, 750, 14, b"tx", rng)
        p2 = prove_sufficient_funds(prover, 9999, o2, 750, 14, b"tx", rng)
        assert verify_sufficient_funds(prover, c1, p1, b"tx")
        assert verify_sufficient_funds(prover, c2, p2, b"tx")

    def test_proof_rejected_against_other_balance(self, prover, pedersen, rng):
        commitment, opening = pedersen.commit(1000, rng)
        other_commitment, __ = pedersen.commit(1000, rng)
        proof = prove_sufficient_funds(prover, 1000, opening, 750, 10, b"tx", rng)
        assert not verify_sufficient_funds(prover, other_commitment, proof, b"tx")
