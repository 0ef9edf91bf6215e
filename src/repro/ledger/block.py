"""Blocks and the hash-linked chain.

An append-only sequence of blocks, each committing to its predecessor's
digest and to a Merkle root over its transactions.  The chain validates
linkage on append and supports the paper's §3.2 note on pruning: blocks
below a checkpoint can be archived, leaving a checkpoint record so the
chain remains verifiable while old entries move to an archive that parties
query on request.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.common.errors import ValidationError
from repro.crypto.hashing import hash_value
from repro.crypto.merkle import encoded_merkle_root
from repro.ledger.transaction import Transaction

GENESIS_DIGEST = b"\x00" * 32


@dataclass(frozen=True)
class BlockHeader:
    """Height, previous-block digest, and transaction Merkle root."""

    height: int
    previous_digest: bytes
    tx_root: bytes
    timestamp: float

    def digest(self) -> bytes:
        return hash_value(
            "repro/block",
            {
                "height": self.height,
                "previous_digest": self.previous_digest,
                "tx_root": self.tx_root,
                "timestamp": self.timestamp,
            },
        )


@dataclass(frozen=True)
class Block:
    """A block: header plus the ordered transactions it commits."""

    header: BlockHeader
    transactions: tuple[Transaction, ...]

    @property
    def height(self) -> int:
        return self.header.height

    def digest(self) -> bytes:
        return self.header.digest()


def _transactions_root(transactions: Iterable[Transaction]) -> bytes:
    """Merkle root over the transactions' core content.

    The leaves are each transaction's signing bytes, the canonical encoding
    of its core content it already holds, so no transaction is re-encoded.
    """
    return encoded_merkle_root(tx.signing_bytes() for tx in transactions)


def build_block(
    height: int,
    previous_digest: bytes,
    transactions: list[Transaction],
    timestamp: float,
) -> Block:
    """Assemble a block, computing the transaction Merkle root."""
    header = BlockHeader(
        height=height,
        previous_digest=previous_digest,
        tx_root=_transactions_root(transactions),
        timestamp=timestamp,
    )
    return Block(header=header, transactions=tuple(transactions))


@dataclass(frozen=True)
class Checkpoint:
    """Summary left behind when blocks below it are archived."""

    height: int
    digest: bytes
    archived_tx_count: int


class Chain:
    """Append-only chain of blocks with verification and pruning."""

    def __init__(self, channel: str) -> None:
        self.channel = channel
        self._blocks: list[Block] = []
        self._archive: list[Block] = []
        self._checkpoint: Checkpoint | None = None

    @property
    def height(self) -> int:
        """Height of the latest block (0 when empty)."""
        if self._blocks:
            return self._blocks[-1].height
        if self._checkpoint is not None:
            return self._checkpoint.height
        return 0

    def tip_digest(self) -> bytes:
        if self._blocks:
            return self._blocks[-1].digest()
        if self._checkpoint is not None:
            return self._checkpoint.digest
        return GENESIS_DIGEST

    def append(self, transactions: list[Transaction], timestamp: float) -> Block:
        """Build and append the next block."""
        block = build_block(
            height=self.height + 1,
            previous_digest=self.tip_digest(),
            transactions=transactions,
            timestamp=timestamp,
        )
        self._blocks.append(block)
        return block

    def blocks(self) -> list[Block]:
        """Live (non-archived) blocks, oldest first."""
        return list(self._blocks)

    def transactions(self) -> list[Transaction]:
        """All transactions in live blocks."""
        return [tx for block in self._blocks for tx in block.transactions]

    def verify(self) -> None:
        """Re-verify every hash link; raises on any tamper."""
        previous = (
            self._checkpoint.digest if self._checkpoint is not None else GENESIS_DIGEST
        )
        expected_height = (
            self._checkpoint.height if self._checkpoint is not None else 0
        )
        for block in self._blocks:
            expected_height += 1
            if block.height != expected_height:
                raise ValidationError(f"height gap at block {block.height}")
            if block.header.previous_digest != previous:
                raise ValidationError(f"broken link at height {block.height}")
            if _transactions_root(block.transactions) != block.header.tx_root:
                raise ValidationError(f"tx root mismatch at height {block.height}")
            previous = block.digest()

    # -- pruning / archiving (paper §3.2: "archived entries are generally
    # still available to parties on request")

    def prune_below(self, height: int) -> Checkpoint:
        """Archive all blocks strictly below *height*."""
        if height > self.height:
            raise ValidationError("cannot prune above the chain tip")
        keep = [b for b in self._blocks if b.height >= height]
        archive = [b for b in self._blocks if b.height < height]
        if not archive:
            raise ValidationError("nothing to prune below that height")
        boundary = archive[-1]
        self._archive.extend(archive)
        self._blocks = keep
        self._checkpoint = Checkpoint(
            height=boundary.height,
            digest=boundary.digest(),
            archived_tx_count=sum(len(b.transactions) for b in self._archive),
        )
        return self._checkpoint

    def archived_blocks(self) -> list[Block]:
        """Archived blocks — available on request, not deleted."""
        return list(self._archive)
