"""Redaction filter and privacy-aware event log."""

import json

from repro.common.clock import SimClock
from repro.telemetry.events import EventLog
from repro.telemetry.redaction import (
    CLASSIFICATION_CACHE_SIZE,
    RedactionFilter,
    redacted_digest,
)


def test_confidential_keys_are_hashed_not_stored():
    redactor = RedactionFilter()
    out = redactor.redact_attributes(
        {"buyer_passport": "P-99887766", "amount": 250_000}
    )
    assert out["buyer_passport"] == redacted_digest("P-99887766")
    assert "P-99887766" not in json.dumps(out)
    assert out["amount"] == 250_000  # non-confidential survives untouched


def test_digest_is_deterministic_and_unrecognizably_short():
    a, b = redacted_digest({"n": 1}), redacted_digest({"n": 1})
    assert a == b
    assert a.startswith("[REDACTED:") and len(a) < 40
    assert redacted_digest({"n": 2}) != a


def test_payload_keys_become_type_and_size_summaries():
    redactor = RedactionFilter()
    out = redactor.redact_attributes({"payload": {"secret-plan": "x" * 100}})
    summary = out["payload"]
    assert "secret-plan" not in json.dumps(out)
    assert summary["type"] == "dict"
    assert summary["size_bytes"] > 0


def test_redaction_recurses_into_nested_structures():
    redactor = RedactionFilter()
    out = redactor.redact_attributes(
        {"meta": {"ssn": "123-45-6789", "rows": [{"password": "hunter2"}]}}
    )
    blob = json.dumps(out)
    assert "123-45-6789" not in blob
    assert "hunter2" not in blob


def test_custom_marks_extend_the_confidential_set():
    redactor = RedactionFilter()
    assert redactor.redact_attributes({"margin": 7})["margin"] == 7
    redactor.mark("margin")
    assert str(redactor.redact_attributes({"margin": 7})["margin"]).startswith(
        "[REDACTED:"
    )


def test_mark_overrides_a_cached_classification():
    redactor = RedactionFilter()
    assert redactor.redact_attributes({"margin": 7}) == {"margin": 7}
    redactor.mark("margin")
    assert redactor.redact_attributes({"margin": 7}) == {
        "margin": redacted_digest(7)
    }


def test_classification_cache_stops_growing_at_its_bound():
    redactor = RedactionFilter()
    extra = 50
    for index in range(CLASSIFICATION_CACHE_SIZE + extra):
        redactor.is_confidential_key(f"field-{index}")
    assert len(redactor._classified) == CLASSIFICATION_CACHE_SIZE
    # Keys past the bound are still classified, just not remembered.
    late = f"secret-{CLASSIFICATION_CACHE_SIZE + extra}"
    assert redactor.is_confidential_key(late)
    assert not redactor.is_confidential_key(f"field-{CLASSIFICATION_CACHE_SIZE}")
    assert len(redactor._classified) == CLASSIFICATION_CACHE_SIZE


def test_event_log_redacts_and_serializes():
    clock = SimClock()
    log = EventLog(clock=clock, redactor=RedactionFilter())
    clock.advance(1.5)
    log.emit("loc.apply", loc_id="LC-1", buyer_passport="P-1")
    log.emit("net.drop", cause="loss")
    events = log.to_dicts()
    assert events[0]["time"] == 1.5
    assert "P-1" not in log.to_json()
    assert [e.name for e in log.named("net.drop")] == ["net.drop"]
