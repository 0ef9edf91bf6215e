"""Cryptographic substrate.

From-scratch, deterministic implementations of every primitive the paper's
mechanism catalog (Section 2) relies on: hashing, Schnorr signatures, an
authenticated symmetric cipher, PKI, Merkle trees with tear-offs, Pedersen
commitments, zero-knowledge proofs (identity, dlog equality, range /
sufficient-funds), Idemix-style anonymous credentials, one-time public
keys, additive-sharing MPC, Paillier homomorphic encryption, and a
simulated TEE with remote attestation.
"""

from repro.crypto.anoncred import (
    CredentialHolder,
    CredentialIssuer,
    Presentation,
    verify_presentation,
)
from repro.crypto.commitments import Commitment, Opening, PedersenScheme
from repro.crypto.elgamal import (
    ElGamal,
    WrappedKey,
    receive_encrypted,
    share_encrypted,
)
from repro.crypto.groups import (
    SchnorrGroup,
    cached_test_group,
    small_group,
)
from repro.crypto.hashing import hash_hex, hash_value, hkdf, sha256, tagged_hash
from repro.crypto.merkle import InclusionProof, MerkleTree, TearOff, leaf_digest
from repro.crypto.mpc import (
    AdditiveSharingProtocol,
    MPCStats,
    secret_ballot,
    secure_mean,
    secure_sum,
)
from repro.crypto.onetime import (
    CoOwnershipProof,
    OneTimeIdentity,
    OneTimeKeyFactory,
    prove_co_ownership,
    resolve_owner,
    verify_co_ownership,
)
from repro.crypto.paillier import (
    Paillier,
    PaillierCiphertext,
    PaillierPrivateKey,
    PaillierPublicKey,
)
from repro.crypto.pki import (
    Certificate,
    CertificateAuthority,
    MembershipService,
    make_identity,
)
from repro.crypto.signatures import (
    PrivateKey,
    PublicKey,
    Signature,
    SignatureScheme,
)
from repro.crypto.symmetric import Ciphertext, SymmetricKey
from repro.crypto.tee import Attestation, Enclave, Manufacturer, measure_code
from repro.crypto.zkp import (
    ChaumPedersen,
    DlogEqualityProof,
    DlogProof,
    FundsProof,
    RangeProof,
    RangeProver,
    SchnorrIdentification,
    prove_sufficient_funds,
    verify_sufficient_funds,
)

__all__ = [name for name in dir() if not name.startswith("_")]
