"""Transaction validation pipeline.

Platform-neutral validation: endorsement-policy evaluation, signature
checks against a certificate resolver, and MVCC read-set staleness checks
against a :class:`WorldState`.  Platforms compose these into their own
commit paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.common.errors import EndorsementError, ValidationError
from repro.crypto.signatures import PublicKey, SignatureScheme
from repro.ledger.state import WorldState
from repro.ledger.transaction import Transaction


@dataclass(frozen=True)
class EndorsementPolicy:
    """Which signers must endorse a transaction.

    ``required`` is the eligible set; ``threshold`` how many of them must
    sign.  ``threshold=len(required)`` is AND, ``threshold=1`` is OR.
    """

    required: frozenset[str]
    threshold: int

    def __post_init__(self) -> None:
        if self.threshold < 1 or self.threshold > len(self.required):
            raise ValidationError("threshold outside [1, |required|]")

    @classmethod
    def all_of(cls, names: list[str]) -> "EndorsementPolicy":
        return cls(required=frozenset(names), threshold=len(names))

    @classmethod
    def k_of(cls, k: int, names: list[str]) -> "EndorsementPolicy":
        return cls(required=frozenset(names), threshold=k)

    def satisfied_by(self, endorsers: set[str]) -> bool:
        return len(endorsers & self.required) >= self.threshold


KeyResolver = Callable[[str], PublicKey]


def verify_endorsements(
    tx: Transaction,
    policy: EndorsementPolicy,
    scheme: SignatureScheme,
    resolve_key: KeyResolver,
) -> None:
    """Raise unless the transaction carries valid signatures satisfying *policy*."""
    message = tx.signing_bytes()
    valid_endorsers: set[str] = set()
    for endorsement in tx.endorsements:
        public = resolve_key(endorsement.endorser)
        if scheme.verify(public, message, endorsement.signature):
            valid_endorsers.add(endorsement.endorser)
        else:
            raise EndorsementError(
                f"invalid signature from endorser {endorsement.endorser!r}"
            )
    if not policy.satisfied_by(valid_endorsers):
        raise EndorsementError(
            f"policy requires {policy.threshold} of {sorted(policy.required)}, "
            f"got valid endorsements from {sorted(valid_endorsers)}"
        )


def check_read_set(tx: Transaction, state: WorldState) -> None:
    """MVCC check: every read version must still be current."""
    for read in tx.reads:
        current = state.version(read.key)
        if current != read.version:
            raise ValidationError(
                f"stale read of {read.key!r}: read version {read.version}, "
                f"current {current}"
            )


def apply_writes(tx: Transaction, state: WorldState) -> None:
    """Apply the write set to the world state (after validation)."""
    for write in tx.writes:
        if write.is_delete:
            if state.exists(write.key):
                state.delete(write.key)
        else:
            state.put(write.key, write.value)

