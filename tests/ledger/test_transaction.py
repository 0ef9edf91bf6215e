"""Transactions: identity, signing bytes, endorsement carrying."""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from repro.common.ids import content_id
from repro.common.serialization import canonical_bytes
from repro.crypto.hashing import hash_hex
from repro.ledger.transaction import (
    Endorsement,
    ReadEntry,
    Transaction,
    WriteEntry,
)


@pytest.fixture
def tx():
    return Transaction(
        channel="ch1",
        submitter="alice",
        reads=(ReadEntry(key="k", version=1),),
        writes=(WriteEntry(key="k", value=2),),
        private_hashes={"pdc/k": "abc123"},
        metadata={"participants": ["alice", "bob"]},
        timestamp=1.5,
    )


class TestIdentity:
    def test_tx_id_stable(self, tx):
        assert tx.tx_id == tx.tx_id

    def test_tx_id_changes_with_content(self, tx):
        other = Transaction(channel="ch1", submitter="bob")
        assert tx.tx_id != other.tx_id

    def test_tx_id_prefix(self, tx):
        assert tx.tx_id.startswith("tx:")

    def test_endorsements_do_not_change_identity(self, tx, scheme):
        key = scheme.keygen_from_seed("endorser")
        sig = scheme.sign(key, tx.signing_bytes())
        endorsed = tx.with_endorsements([Endorsement("e1", sig)])
        assert endorsed.tx_id == tx.tx_id

    def test_content_hash_differs_from_tx_id(self, tx):
        assert tx.content_hash() != tx.tx_id


class TestComputedOnce:
    def test_identity_matches_fresh_recomputation(self, tx):
        content = tx.core_content()
        encoded = canonical_bytes(content)
        assert tx.signing_bytes() == encoded
        assert tx.tx_id == content_id("tx", content)
        assert tx.tx_id == (
            "tx:" + hashlib.sha256(b"tx\x00" + encoded).hexdigest()[:16]
        )
        assert tx.content_hash() == hash_hex("repro/tx", content)

    def test_bytes_encoded_once_per_object(self, tx):
        assert tx.signing_bytes() is tx.signing_bytes()

    def test_endorsed_copy_reuses_bytes(self, tx, scheme):
        key = scheme.keygen_from_seed("endorser")
        sig = scheme.sign(key, tx.signing_bytes())
        endorsed = tx.with_endorsements([Endorsement("e1", sig)])
        assert endorsed.signing_bytes() is tx.signing_bytes()
        assert endorsed.signing_bytes() == canonical_bytes(endorsed.core_content())

    def test_replaced_copy_encodes_afresh(self, tx):
        tx.signing_bytes()  # fill the original's cache first
        other = replace(tx, metadata={"participants": ["alice"]})
        assert other.signing_bytes() == canonical_bytes(other.core_content())
        assert other.tx_id != tx.tx_id


class TestSigningBytes:
    def test_deterministic(self, tx):
        assert tx.signing_bytes() == tx.signing_bytes()

    def test_covers_writes(self, tx):
        other = replace(tx, writes=(WriteEntry(key="k", value=3),))
        assert tx.signing_bytes() != other.signing_bytes()

    def test_covers_private_hashes(self, tx):
        other = replace(tx, private_hashes={})
        assert tx.signing_bytes() != other.signing_bytes()

    def test_covers_metadata(self, tx):
        other = replace(tx, metadata={})
        assert tx.signing_bytes() != other.signing_bytes()


class TestEndorsements:
    def test_with_endorsements_copies(self, tx, scheme):
        key = scheme.keygen_from_seed("endorser")
        sig = scheme.sign(key, tx.signing_bytes())
        endorsed = tx.with_endorsements([Endorsement("e1", sig)])
        assert len(endorsed.endorsements) == 1
        assert len(tx.endorsements) == 0

    def test_write_entry_delete_flag(self):
        entry = WriteEntry(key="k", is_delete=True)
        assert entry.is_delete
        assert entry.value is None
