"""Cryptographic substrate.

From-scratch, deterministic implementations of every primitive the paper's
mechanism catalog (Section 2) relies on: hashing, Schnorr signatures, an
authenticated symmetric cipher, PKI, Merkle trees with tear-offs, Pedersen
commitments, zero-knowledge proofs (identity, dlog equality, range /
sufficient-funds), Idemix-style anonymous credentials, one-time public
keys, additive-sharing MPC, Paillier homomorphic encryption, and a
simulated TEE with remote attestation.

Every name below is re-exported lazily via module ``__getattr__``, so
importing one primitive's module (as the platforms do) does not load the
primitives no platform uses (ElGamal, MPC, Paillier).
"""

_LAZY = {
    "CredentialHolder": "repro.crypto.anoncred",
    "CredentialIssuer": "repro.crypto.anoncred",
    "Presentation": "repro.crypto.anoncred",
    "verify_presentation": "repro.crypto.anoncred",
    "Commitment": "repro.crypto.commitments",
    "Opening": "repro.crypto.commitments",
    "PedersenScheme": "repro.crypto.commitments",
    "ElGamal": "repro.crypto.elgamal",
    "WrappedKey": "repro.crypto.elgamal",
    "receive_encrypted": "repro.crypto.elgamal",
    "share_encrypted": "repro.crypto.elgamal",
    "SchnorrGroup": "repro.crypto.groups",
    "cached_test_group": "repro.crypto.groups",
    "small_group": "repro.crypto.groups",
    "hash_hex": "repro.crypto.hashing",
    "hash_value": "repro.crypto.hashing",
    "hkdf": "repro.crypto.hashing",
    "sha256": "repro.crypto.hashing",
    "tagged_hash": "repro.crypto.hashing",
    "InclusionProof": "repro.crypto.merkle",
    "MerkleTree": "repro.crypto.merkle",
    "TearOff": "repro.crypto.merkle",
    "leaf_digest": "repro.crypto.merkle",
    "AdditiveSharingProtocol": "repro.crypto.mpc",
    "MPCStats": "repro.crypto.mpc",
    "secret_ballot": "repro.crypto.mpc",
    "secure_mean": "repro.crypto.mpc",
    "secure_sum": "repro.crypto.mpc",
    "CoOwnershipProof": "repro.crypto.onetime",
    "OneTimeIdentity": "repro.crypto.onetime",
    "OneTimeKeyFactory": "repro.crypto.onetime",
    "prove_co_ownership": "repro.crypto.onetime",
    "resolve_owner": "repro.crypto.onetime",
    "verify_co_ownership": "repro.crypto.onetime",
    "Paillier": "repro.crypto.paillier",
    "PaillierCiphertext": "repro.crypto.paillier",
    "PaillierPrivateKey": "repro.crypto.paillier",
    "PaillierPublicKey": "repro.crypto.paillier",
    "Certificate": "repro.crypto.pki",
    "CertificateAuthority": "repro.crypto.pki",
    "MembershipService": "repro.crypto.pki",
    "make_identity": "repro.crypto.pki",
    "PrivateKey": "repro.crypto.signatures",
    "PublicKey": "repro.crypto.signatures",
    "Signature": "repro.crypto.signatures",
    "SignatureScheme": "repro.crypto.signatures",
    "Ciphertext": "repro.crypto.symmetric",
    "SymmetricKey": "repro.crypto.symmetric",
    "Attestation": "repro.crypto.tee",
    "Enclave": "repro.crypto.tee",
    "Manufacturer": "repro.crypto.tee",
    "measure_code": "repro.crypto.tee",
    "ChaumPedersen": "repro.crypto.zkp",
    "DlogEqualityProof": "repro.crypto.zkp",
    "DlogProof": "repro.crypto.zkp",
    "FundsProof": "repro.crypto.zkp",
    "RangeProof": "repro.crypto.zkp",
    "RangeProver": "repro.crypto.zkp",
    "SchnorrIdentification": "repro.crypto.zkp",
    "prove_sufficient_funds": "repro.crypto.zkp",
    "verify_sufficient_funds": "repro.crypto.zkp",
}

__all__ = sorted(_LAZY)


def __getattr__(name: str):
    if name in _LAZY:
        import importlib

        module = importlib.import_module(_LAZY[name])
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
