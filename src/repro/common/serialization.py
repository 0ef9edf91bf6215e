"""Canonical, deterministic serialization.

Every hash, signature, and Merkle leaf in the library is computed over the
canonical encoding produced here, so two nodes that hold the same logical
value always derive the same digest.  The encoding is JSON with sorted keys,
no insignificant whitespace, and explicit tagging for byte strings (JSON has
no native bytes type).

One :class:`json.JSONEncoder` and one :class:`json.JSONDecoder` are built
at import and shared by every call (``json.dumps`` / ``json.loads`` with
non-default options build a fresh one per call).  Every encoding still
goes through :func:`canonical_json`, so a profile's call count of it is
the number of encodings made.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any

_BYTES_TAG = "__bytes_hex__"


def _default(value: Any) -> Any:
    if isinstance(value, bytes):
        return {_BYTES_TAG: value.hex()}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.asdict(value)
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, tuple):
        return list(value)
    raise TypeError(f"cannot canonically serialize {type(value).__name__}")


_ENCODER = json.JSONEncoder(
    default=_default,
    sort_keys=True,
    separators=(",", ":"),
    allow_nan=False,
    ensure_ascii=True,
)


def canonical_json(value: Any) -> str:
    """Return the canonical JSON text for *value*.

    Dict keys are sorted, floats are rejected implicitly by JSON's default
    repr only when NaN/Inf (``allow_nan=False``), bytes are hex-tagged, and
    dataclasses are serialized as dictionaries.
    """
    return _ENCODER.encode(value)


def canonical_bytes(value: Any) -> bytes:
    """Return the canonical UTF-8 encoding of *value* for hashing/signing."""
    return canonical_json(value).encode("utf-8")


def _restore_bytes(obj: dict) -> Any:
    if len(obj) == 1 and _BYTES_TAG in obj:
        return bytes.fromhex(obj[_BYTES_TAG])
    return obj


_DECODER = json.JSONDecoder(object_hook=_restore_bytes)


def from_canonical_json(text: str) -> Any:
    """Invert :func:`canonical_json`, restoring tagged byte strings."""
    return _DECODER.decode(text)
