"""Pedersen commitments.

Hiding and binding commitments over the shared Schnorr group.  Used by the
ZKP module (range proofs for "sufficient funds" affirmations) and by the MPC
protocol to commit parties to their shares before opening.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.rng import DeterministicRNG
from repro.crypto.groups import SchnorrGroup, cached_test_group


@dataclass(frozen=True)
class Commitment:
    """A Pedersen commitment C = g^value * h^blinding."""

    element: int


@dataclass(frozen=True)
class Opening:
    """The (value, blinding) pair that opens a commitment."""

    value: int
    blinding: int


class PedersenScheme:
    """Commit/open over a :class:`SchnorrGroup`.

    Commitments are additively homomorphic: the product of two commitments
    commits to the sum of the values — the property range proofs and MPC
    auditing rely on.
    """

    def __init__(self, group: SchnorrGroup | None = None) -> None:
        self.group = group or cached_test_group()

    def commit(self, value: int, rng: DeterministicRNG) -> tuple[Commitment, Opening]:
        """Commit to *value* with fresh blinding; returns (commitment, opening)."""
        blinding = self.group.random_scalar(rng)
        return self.commit_with(value, blinding)

    def commit_with(self, value: int, blinding: int) -> tuple[Commitment, Opening]:
        """Commit with caller-chosen blinding (used by proof protocols)."""
        element = self.group.commit(value % self.group.q, blinding % self.group.q)
        return Commitment(element=element), Opening(
            value=value % self.group.q, blinding=blinding % self.group.q
        )

    def verify(self, commitment: Commitment, opening: Opening) -> bool:
        """True iff the opening matches the commitment."""
        expected = self.group.commit(opening.value, opening.blinding)
        return expected == commitment.element

    def add(self, a: Commitment, b: Commitment) -> Commitment:
        """Homomorphic addition: commits to (value_a + value_b)."""
        return Commitment(element=self.group.mul(a.element, b.element))

    def scale(self, c: Commitment, factor: int) -> Commitment:
        """Homomorphic scalar multiplication: commits to factor*value."""
        return Commitment(element=self.group.exp(c.element, factor))
