"""Blocks and chains: linkage, verification, tamper detection, pruning."""

from __future__ import annotations

import pytest

from repro.common.errors import ValidationError
from repro.crypto.merkle import MerkleTree
from repro.crypto.signatures import Signature
from repro.ledger.block import Chain, build_block
from repro.ledger.transaction import Endorsement, Transaction, WriteEntry


def make_tx(n: int) -> Transaction:
    return Transaction(
        channel="ch", submitter=f"org{n}",
        writes=(WriteEntry(key=f"k{n}", value=n),),
        timestamp=float(n),
    )


@pytest.fixture
def chain():
    chain = Chain("ch")
    for height in range(1, 6):
        chain.append([make_tx(height)], timestamp=float(height))
    return chain


class TestAppend:
    def test_heights_increment(self, chain):
        assert chain.height == 5
        assert [b.height for b in chain.blocks()] == [1, 2, 3, 4, 5]

    def test_linkage(self, chain):
        blocks = chain.blocks()
        for prev, block in zip(blocks, blocks[1:]):
            assert block.header.previous_digest == prev.digest()

    def test_verify_accepts_valid_chain(self, chain):
        chain.verify()

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_tx_root_is_merkle_root_of_core_content(self, count):
        txs = [make_tx(n) for n in range(count)]
        txs += [make_tx(7).with_endorsements(
            [Endorsement(endorser="org7", signature=Signature(challenge=1, response=2))]
        )]
        block = build_block(1, b"\x00" * 32, txs, timestamp=1.0)
        assert block.header.tx_root == MerkleTree([tx.core_content() for tx in txs]).root

    def test_transactions_flattened(self, chain):
        assert len(chain.transactions()) == 5

    def test_empty_chain(self):
        chain = Chain("empty")
        assert chain.height == 0
        chain.verify()


class TestTamperDetection:
    def test_modified_transaction_detected(self, chain):
        # Replace a transaction inside an existing block.
        target = chain._blocks[2]
        from repro.ledger.block import Block

        tampered = Block(
            header=target.header, transactions=(make_tx(99),)
        )
        chain._blocks[2] = tampered
        with pytest.raises(ValidationError, match="root mismatch"):
            chain.verify()

    def test_removed_block_detected(self, chain):
        del chain._blocks[2]
        with pytest.raises(ValidationError):
            chain.verify()

    def test_reordered_blocks_detected(self, chain):
        chain._blocks[1], chain._blocks[2] = chain._blocks[2], chain._blocks[1]
        with pytest.raises(ValidationError):
            chain.verify()


class TestPruning:
    def test_prune_archives_blocks(self, chain):
        checkpoint = chain.prune_below(4)
        assert checkpoint.height == 3
        assert [b.height for b in chain.blocks()] == [4, 5]
        assert [b.height for b in chain.archived_blocks()] == [1, 2, 3]
        assert checkpoint.archived_tx_count == 3

    def test_chain_verifies_after_prune(self, chain):
        chain.prune_below(4)
        chain.verify()

    def test_append_after_prune(self, chain):
        chain.prune_below(4)
        chain.append([make_tx(6)], timestamp=6.0)
        assert chain.height == 6
        chain.verify()

    def test_archived_entries_still_available(self, chain):
        """Paper S3.2: archived entries are available on request."""
        chain.prune_below(3)
        archived_txs = [
            tx for block in chain.archived_blocks() for tx in block.transactions
        ]
        assert len(archived_txs) == 2

    def test_prune_above_tip_rejected(self, chain):
        with pytest.raises(ValidationError):
            chain.prune_below(99)

    def test_prune_nothing_rejected(self, chain):
        with pytest.raises(ValidationError):
            chain.prune_below(1)

    def test_double_prune(self, chain):
        chain.prune_below(3)
        chain.prune_below(5)
        assert [b.height for b in chain.blocks()] == [5]
        assert len(chain.archived_blocks()) == 4
        chain.verify()
