"""Exception hierarchy shared by every subsystem.

All library errors derive from :class:`ReproError` so callers can catch one
base class.  Subsystem bases (crypto, ledger, platform, guide) exist so that
integration code can distinguish a cryptographic failure from, say, a
validation failure without string matching.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the library."""


class CryptoError(ReproError):
    """Base class for cryptographic failures."""


class SignatureError(CryptoError):
    """A signature failed to verify."""


class DecryptionError(CryptoError):
    """Ciphertext could not be authenticated or decrypted."""


class ProofError(CryptoError):
    """A zero-knowledge proof or Merkle proof failed to verify."""


class CertificateError(CryptoError):
    """A certificate was invalid, expired, revoked, or had a broken chain."""


class AttestationError(CryptoError):
    """A TEE attestation failed verification."""


class MPCError(CryptoError):
    """A multiparty computation protocol aborted."""


class LedgerError(ReproError):
    """Base class for ledger failures."""


class ValidationError(LedgerError):
    """A transaction or block failed validation."""


class StateError(LedgerError):
    """World-state access failed (missing key, version conflict)."""


class OrderingError(LedgerError):
    """The ordering service rejected or could not order a transaction."""


class NetworkError(ReproError):
    """Base class for simulated-network failures."""


class DeliveryError(NetworkError):
    """A message could not be delivered (unknown node, partition)."""


class DeliveryTimeout(DeliveryError):
    """Resilient delivery exhausted its retry budget without an ack."""


class PlatformError(ReproError):
    """Base class for platform-simulation failures."""


class MembershipError(PlatformError):
    """An identity was not authorized for the attempted operation."""


class EndorsementError(PlatformError):
    """A transaction did not satisfy its endorsement policy."""


class ContractError(PlatformError):
    """Smart-contract installation, lookup, or execution failed."""


class DoubleSpendError(PlatformError):
    """An asset was spent twice (raised only by platforms that detect it)."""


class PrivacyError(PlatformError):
    """An operation would have violated a configured privacy boundary."""


class GuideError(ReproError):
    """Base class for design-guide failures."""


class RequirementsError(GuideError):
    """A requirements specification was inconsistent or incomplete."""


class OffChainError(ReproError):
    """Base class for off-chain store failures."""


class AnchorMismatchError(OffChainError):
    """Off-chain data no longer matches its on-chain hash anchor."""


class DataDeletedError(OffChainError):
    """The requested off-chain data was deleted (e.g. GDPR erasure)."""
