"""Stable identifier helpers.

Identifiers for transactions, blocks, parties, and stores are short hex
digests of their canonical content, so they are stable across runs and
meaningful in test assertions.
"""

from __future__ import annotations

import hashlib
from typing import Any

from repro.common.serialization import canonical_bytes


def content_id(kind: str, value: Any, length: int = 16) -> str:
    """Return ``kind:hex`` where hex digests the canonical form of *value*."""
    return encoded_id(kind, canonical_bytes(value), length)


def encoded_id(kind: str, encoded: bytes, length: int = 16) -> str:
    """:func:`content_id` of a value whose canonical bytes are *encoded*."""
    digest = hashlib.sha256(kind.encode("utf-8") + b"\x00" + encoded).hexdigest()
    return f"{kind}:{digest[:length]}"


def short(identifier: str, length: int = 8) -> str:
    """Abbreviate an identifier for human-readable logs."""
    if ":" in identifier:
        kind, digest = identifier.split(":", 1)
        return f"{kind}:{digest[:length]}"
    return identifier[:length]
