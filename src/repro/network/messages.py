"""Network message model.

Every byte that crosses the simulated wire is a :class:`Message`.  Privacy
analysis is message-centric: the leakage auditor inspects exactly what each
principal received or could observe.  What a message exposes is derived
from its payload when it is sent (:func:`payload_exposure`): each payload
type declares what it reveals, so the account cannot disagree with what
was carried.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple


class Exposure(NamedTuple):
    """What a message reveals to whoever can read it (a named tuple:
    immutable, and cheap to build once per send).

    - ``identities``: party names visible in the clear.
    - ``data_keys``: business-data identifiers visible in the clear.
    - ``code_ids``: smart-contract identifiers whose logic is visible.

    Encrypted payloads contribute nothing here; that is the point of
    encrypting them.
    """

    identities: frozenset[str] = frozenset()
    data_keys: frozenset[str] = frozenset()
    code_ids: frozenset[str] = frozenset()

    @classmethod
    def of(
        cls,
        identities: set[str] | list[str] = (),
        data_keys: set[str] | list[str] = (),
        code_ids: set[str] | list[str] = (),
    ) -> "Exposure":
        return cls(frozenset(identities), frozenset(data_keys), frozenset(code_ids))


# What a payload that declares nothing reveals (immutable, so one serves all).
NO_EXPOSURE = Exposure()
# Payload items that reveal nothing, skipped without a call.
_OPAQUE = frozenset({str, int, float, bool, type(None)})


def payload_exposure(payload: Any) -> Exposure:
    """What *payload* reveals to whoever reads it: an object's own
    ``exposure``, the union of a tuple's items, else nothing (a string,
    a number, ``None``, a ciphertext, a :class:`Refusal`)."""
    exposure = getattr(payload, "exposure", None)
    if exposure is not None:
        return exposure
    if not isinstance(payload, tuple):
        return NO_EXPOSURE
    parts = []
    for item in payload:
        if type(item) not in _OPAQUE:
            part = payload_exposure(item)
            if part is not NO_EXPOSURE:
                parts.append(part)
    if len(parts) < 2:
        return parts[0] if parts else NO_EXPOSURE
    return Exposure(
        frozenset().union(*(part.identities for part in parts)),
        frozenset().union(*(part.data_keys for part in parts)),
        frozenset().union(*(part.code_ids for part in parts)),
    )


class Message(NamedTuple):
    """One unit of simulated network traffic, built by the network on
    every send (a named tuple: immutable, and cheap on the hot path).

    ``message_id`` is unique among one network's messages.

    ``exposure`` is what an observer of the message learns: what its
    payload reveals, derived once per send or broadcast.

    ``trace`` carries the sender's telemetry trace context —
    ``(trace_id, span_id)`` — across the wire, the way real systems put
    W3C traceparent headers on RPCs.  It holds opaque sequence-number
    ids only (never payload-derived data), so propagation adds no
    exposure: the leakage auditor ignores it and the telemetry
    cross-check test verifies it reveals nothing.

    ``dedup_key`` makes delivery idempotent at the application layer:
    two messages carrying the same key are applied at most once by the
    recipient (the second is acknowledged but not handed to handlers).
    Retransmissions from ``send_with_retry`` and replayed catch-up
    blocks both rely on it.  Like ``trace`` it is an opaque label, never
    payload-derived data, so it widens no observer's knowledge.

    ``caused_by`` is the id of the message whose delivery handler sent
    this one (``None`` for the first hop of a call): the network stamps
    it, so every flow is a tree of causes.  It is an opaque label too.
    """

    sender: str
    recipient: str
    kind: str
    payload: Any
    message_id: int
    exposure: Exposure = NO_EXPOSURE
    size_bytes: int = 0
    sent_at: float = 0.0
    trace: tuple[str, str] | None = None
    dedup_key: str | None = None
    caused_by: int | None = None


@dataclass(frozen=True)
class Refusal:
    """A handler's typed refusal of a request, recorded or sent back in
    place of the answer: the call that sent the request raises *error*."""

    error: Exception

    def wire_size(self) -> int:
        return len(str(self.error))
