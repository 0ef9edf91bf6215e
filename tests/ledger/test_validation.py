"""Validation pipeline: policies, signature checks, MVCC."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.common.errors import EndorsementError, ValidationError
from repro.ledger.state import WorldState
from repro.ledger.transaction import (
    Endorsement,
    ReadEntry,
    Transaction,
    WriteEntry,
)
from repro.ledger.validation import (
    EndorsementPolicy,
    apply_writes,
    check_read_set,
    verify_endorsements,
)


@pytest.fixture
def keys(scheme):
    return {name: scheme.keygen_from_seed(name) for name in ("a", "b", "c")}


def endorse(scheme, keys, tx, endorsers):
    return tx.with_endorsements([
        Endorsement(endorser=e, signature=scheme.sign(keys[e], tx.signing_bytes()))
        for e in endorsers
    ])


class TestPolicies:
    def test_all_of(self):
        policy = EndorsementPolicy.all_of(["a", "b"])
        assert policy.satisfied_by({"a", "b"})
        assert not policy.satisfied_by({"a"})

    def test_any_of(self):
        policy = EndorsementPolicy.k_of(1, ["a", "b"])
        assert policy.satisfied_by({"b"})
        assert not policy.satisfied_by({"z"})

    def test_k_of(self):
        policy = EndorsementPolicy.k_of(2, ["a", "b", "c"])
        assert policy.satisfied_by({"a", "c"})
        assert not policy.satisfied_by({"a"})

    def test_outsiders_do_not_count(self):
        policy = EndorsementPolicy.k_of(2, ["a", "b", "c"])
        assert not policy.satisfied_by({"a", "x", "y", "z"})

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValidationError):
            EndorsementPolicy(required=frozenset({"a"}), threshold=2)
        with pytest.raises(ValidationError):
            EndorsementPolicy(required=frozenset({"a"}), threshold=0)


class TestVerifyEndorsements:
    def test_satisfied_policy_passes(self, scheme, keys):
        tx = Transaction(channel="ch", submitter="a")
        tx = endorse(scheme, keys, tx, ["a", "b"])
        verify_endorsements(
            tx, EndorsementPolicy.all_of(["a", "b"]), scheme,
            lambda n: keys[n].public,
        )

    def test_missing_endorser_rejected(self, scheme, keys):
        tx = Transaction(channel="ch", submitter="a")
        tx = endorse(scheme, keys, tx, ["a"])
        with pytest.raises(EndorsementError, match="policy requires"):
            verify_endorsements(
                tx, EndorsementPolicy.all_of(["a", "b"]), scheme,
                lambda n: keys[n].public,
            )

    def test_forged_signature_rejected(self, scheme, keys):
        tx = Transaction(channel="ch", submitter="a")
        # b's endorsement signed with c's key
        forged = tx.with_endorsements([
            Endorsement("b", scheme.sign(keys["c"], tx.signing_bytes()))
        ])
        with pytest.raises(EndorsementError, match="invalid signature"):
            verify_endorsements(
                forged, EndorsementPolicy.k_of(1, ["b"]), scheme,
                lambda n: keys[n].public,
            )

    def test_signature_over_stale_content_rejected(self, scheme, keys):
        tx = Transaction(channel="ch", submitter="a")
        endorsed = endorse(scheme, keys, tx, ["a"])
        mutated = replace(tx, metadata={"late": "edit"}).with_endorsements(
            list(endorsed.endorsements)
        )
        with pytest.raises(EndorsementError):
            verify_endorsements(
                mutated, EndorsementPolicy.k_of(1, ["a"]), scheme,
                lambda n: keys[n].public,
            )


class TestMVCC:
    def test_current_reads_pass(self):
        state = WorldState()
        state.put("k", 1)
        tx = Transaction(
            channel="ch", submitter="a",
            reads=(ReadEntry(key="k", version=1),),
        )
        check_read_set(tx, state)

    def test_stale_read_rejected(self):
        state = WorldState()
        state.put("k", 1)
        state.put("k", 2)
        tx = Transaction(
            channel="ch", submitter="a",
            reads=(ReadEntry(key="k", version=1),),
        )
        with pytest.raises(ValidationError, match="stale read"):
            check_read_set(tx, state)

    def test_phantom_read_rejected(self):
        state = WorldState()
        tx = Transaction(
            channel="ch", submitter="a",
            reads=(ReadEntry(key="k", version=1),),
        )
        with pytest.raises(ValidationError):
            check_read_set(tx, state)


class TestApply:
    def test_writes_applied(self):
        state = WorldState()
        tx = Transaction(
            channel="ch", submitter="a",
            writes=(WriteEntry(key="k", value=5), WriteEntry(key="j", value=6)),
        )
        apply_writes(tx, state)
        assert state.get("k") == 5
        assert state.get("j") == 6

    def test_deletes_applied(self):
        state = WorldState()
        state.put("k", 1)
        tx = Transaction(
            channel="ch", submitter="a",
            writes=(WriteEntry(key="k", is_delete=True),),
        )
        apply_writes(tx, state)
        assert not state.exists("k")

    def test_delete_of_missing_key_tolerated(self):
        state = WorldState()
        tx = Transaction(
            channel="ch", submitter="a",
            writes=(WriteEntry(key="ghost", is_delete=True),),
        )
        apply_writes(tx, state)

