"""Durable checkpoints: canonical round-trips, sequences, accounting."""

from __future__ import annotations

import pytest

from repro.common.errors import PlatformError
from repro.recovery.checkpoint import CheckpointStore, NodeCheckpoint
from repro.telemetry import Telemetry


def make_checkpoint(node="OrgA", sequence=1, **overrides) -> NodeCheckpoint:
    fields = {
        "node": node,
        "platform": "fabric",
        "sequence": sequence,
        "taken_at": 1.5,
        "heights": {"ch": 3},
        "snapshots": {"ch": {"values": {"k": 1}, "versions": {"k": 2}}},
    }
    fields.update(overrides)
    return NodeCheckpoint(**fields)


@pytest.fixture
def store() -> CheckpointStore:
    return CheckpointStore(telemetry=Telemetry())


class TestRoundTrip:
    def test_save_returns_decoded_copy(self, store):
        saved = store.save(make_checkpoint())
        assert saved == make_checkpoint()

    def test_latest_decodes_from_bytes(self, store):
        store.save(make_checkpoint(sequence=1))
        store.save(make_checkpoint(sequence=2, heights={"ch": 9}))
        latest = store.latest("OrgA")
        assert latest.sequence == 2
        assert latest.height_of("ch") == 9

    def test_latest_of_unknown_node_is_none(self, store):
        assert store.latest("Ghost") is None

    def test_history_preserves_order(self, store):
        for sequence in (1, 2, 3):
            store.save(make_checkpoint(sequence=sequence))
        assert [c.sequence for c in store.history("OrgA")] == [1, 2, 3]

    def test_height_of_unknown_scope_is_zero(self):
        assert make_checkpoint().height_of("other-channel") == 0

    def test_snapshot_values_survive_serialization(self, store):
        snapshot = {"ch": {"values": {"loc/LC-1": {"status": "paid"}},
                           "versions": {"loc/LC-1": 4}}}
        saved = store.save(make_checkpoint(snapshots=snapshot))
        assert saved.snapshots == snapshot


class TestSequences:
    def test_next_sequence_starts_at_one(self, store):
        assert store.next_sequence("OrgA") == 1

    def test_next_sequence_counts_per_node(self, store):
        store.save(make_checkpoint(node="OrgA"))
        store.save(make_checkpoint(node="OrgA", sequence=2))
        store.save(make_checkpoint(node="OrgB"))
        assert store.next_sequence("OrgA") == 3
        assert store.next_sequence("OrgB") == 2


class TestIntegrity:
    def test_corrupt_record_raises(self, store):
        store._records["OrgA"] = [b"42"]
        with pytest.raises(PlatformError, match="corrupt"):
            store.latest("OrgA")

    def test_save_counts_bytes_and_records(self, store):
        store.save(make_checkpoint())
        counters = store.telemetry.metrics.snapshot()["counters"]
        assert counters["recovery.checkpoint.saved"] == 1
        assert counters["recovery.checkpoint.bytes"] > 0

    def test_checkpoint_event_emitted(self, store):
        store.save(make_checkpoint())
        assert store.telemetry.events.named("recovery.checkpoint")
