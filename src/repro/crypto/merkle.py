"""Merkle trees with tear-offs.

Implements the paper's Section 2.2 "Merkle tree tear-offs" mechanism
(as used by Corda): a transaction is a list of component groups, the
signers sign the Merkle root, and a *filtered* (torn-off) view of the tree
can be given to a party that must verify or sign the root without seeing
confidential components.

Three artifacts:

- :class:`MerkleTree`      — full tree over canonicalized leaves.
- :class:`InclusionProof`  — classic audit path for one leaf.
- :class:`TearOff`         — a partial tree revealing a chosen subset of
  leaves; hidden branches are replaced by their digests.  A verifier can
  recompute the root from a tear-off, which is exactly what lets an oracle
  or a non-validating notary sign without seeing hidden data.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Any

from repro.common.errors import ProofError
from repro.common.serialization import canonical_bytes
from repro.crypto.hashing import tagged_hash

_LEAF_TAG = "repro/merkle/leaf"
_NODE_TAG = "repro/merkle/node"
_EMPTY_TAG = "repro/merkle/empty"


def leaf_digest(value: Any) -> bytes:
    """Digest of one leaf (canonical serialization, domain separated)."""
    return tagged_hash(_LEAF_TAG, canonical_bytes(value))


def encoded_merkle_root(encoded_leaves: Iterable[bytes]) -> bytes:
    """Root over leaves that are already canonical bytes.

    ``encoded_merkle_root(canonical_bytes(v) for v in values)`` equals
    ``MerkleTree(values).root``; callers that hold the encodings skip
    re-encoding them.
    """
    return _build_levels(_leaf_digests(encoded_leaves))[-1][0]


def _leaf_digests(encoded_leaves: Iterable[bytes]) -> list[bytes]:
    return [tagged_hash(_LEAF_TAG, data) for data in encoded_leaves]


def _node_digest(left: bytes, right: bytes) -> bytes:
    return tagged_hash(_NODE_TAG, left + right)


_EMPTY_DIGEST = tagged_hash(_EMPTY_TAG, b"")


def _build_levels(leaves: list[bytes]) -> list[list[bytes]]:
    """All levels bottom-up; odd nodes are paired with the empty digest."""
    if not leaves:
        return [[_EMPTY_DIGEST]]
    levels = [list(leaves)]
    while len(levels[-1]) > 1:
        current = levels[-1]
        parents = []
        for i in range(0, len(current), 2):
            left = current[i]
            right = current[i + 1] if i + 1 < len(current) else _EMPTY_DIGEST
            parents.append(_node_digest(left, right))
        levels.append(parents)
    return levels


@dataclass(frozen=True)
class InclusionProof:
    """Audit path proving one leaf is under a given root."""

    leaf_index: int
    leaf_count: int
    path: tuple[bytes, ...]  # sibling digests, bottom-up

    def verify(self, value: Any, root: bytes) -> bool:
        """Check that *value* sits at ``leaf_index`` under *root*."""
        if not (0 <= self.leaf_index < self.leaf_count):
            return False
        digest = leaf_digest(value)
        index = self.leaf_index
        for sibling in self.path:
            if index % 2 == 0:
                digest = _node_digest(digest, sibling)
            else:
                digest = _node_digest(sibling, digest)
            index //= 2
        return digest == root


@dataclass(frozen=True)
class TearOff:
    """A filtered Merkle tree: some leaves visible, others torn off.

    ``visible`` maps leaf index -> leaf value.  ``hidden`` maps leaf
    index -> leaf digest.  Together they cover every index in
    ``range(leaf_count)``; the verifier rebuilds the root from them.
    """

    leaf_count: int
    visible: dict[int, Any] = field(default_factory=dict)
    hidden: dict[int, bytes] = field(default_factory=dict)
    # Bytes of the visible leaves' encodings, from the tree that tore
    # this off; ``None`` encodes them when :meth:`wire_size` is asked.
    visible_bytes: int | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        covered = set(self.visible) | set(self.hidden)
        if covered != set(range(self.leaf_count)):
            raise ProofError("tear-off must cover every leaf exactly once")
        if set(self.visible) & set(self.hidden):
            raise ProofError("a leaf cannot be both visible and hidden")

    def computed_root(self) -> bytes:
        """Recompute the Merkle root from the visible + hidden leaves."""
        leaves = []
        for index in range(self.leaf_count):
            if index in self.visible:
                leaves.append(leaf_digest(self.visible[index]))
            else:
                leaves.append(self.hidden[index])
        return _build_levels(leaves)[-1][0]

    def verify(self, root: bytes) -> bool:
        """True iff this tear-off reconstructs *root*."""
        return self.computed_root() == root

    def disclosure_ratio(self) -> float:
        """Fraction of leaves disclosed — the audit metric for tear-offs."""
        if self.leaf_count == 0:
            return 0.0
        return len(self.visible) / self.leaf_count

    def wire_size(self) -> int:
        """Serialized size in bytes: the leaf count, each visible leaf's
        encoding and each hidden digest, with an 8-byte index apiece."""
        visible = self.visible_bytes
        if visible is None:
            visible = sum(len(canonical_bytes(v)) for v in self.visible.values())
        return 8 + visible + 8 * len(self.visible) + (32 + 8) * len(self.hidden)


class MerkleTree:
    """Merkle tree over an ordered list of canonicalizable values."""

    def __init__(self, values: list[Any]) -> None:
        self._values = list(values)
        encoded = [canonical_bytes(v) for v in self._values]
        self._leaf_sizes = [len(data) for data in encoded]
        self._levels = _build_levels(_leaf_digests(encoded))

    @property
    def root(self) -> bytes:
        """The Merkle root all signers commit to."""
        return self._levels[-1][0]

    @property
    def leaf_count(self) -> int:
        return len(self._values)

    def wire_size(self) -> int:
        """Total bytes of the leaves' canonical encodings."""
        return sum(self._leaf_sizes)

    def inclusion_proof(self, index: int) -> InclusionProof:
        """Audit path for the leaf at *index*."""
        if not (0 <= index < len(self._values)):
            raise ProofError(f"leaf index {index} out of range")
        path = []
        position = index
        for level in self._levels[:-1]:
            sibling_index = position ^ 1
            if sibling_index < len(level):
                path.append(level[sibling_index])
            else:
                path.append(_EMPTY_DIGEST)
            position //= 2
        return InclusionProof(
            leaf_index=index, leaf_count=len(self._values), path=tuple(path)
        )

    def tear_off(self, reveal: set[int] | list[int]) -> TearOff:
        """Build a filtered tree revealing only the leaves in *reveal*.

        Every other leaf is replaced by its digest.  The recipient can
        verify the root and read only the revealed components.
        """
        reveal_set = set(reveal)
        out_of_range = reveal_set - set(range(len(self._values)))
        if out_of_range:
            raise ProofError(f"leaf indices out of range: {sorted(out_of_range)}")
        visible = {i: self._values[i] for i in reveal_set}
        hidden = {
            i: self._levels[0][i]
            for i in range(len(self._values))
            if i not in reveal_set
        }
        return TearOff(
            leaf_count=len(self._values), visible=visible, hidden=hidden,
            visible_bytes=sum(self._leaf_sizes[i] for i in reveal_set),
        )
