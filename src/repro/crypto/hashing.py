"""Hashing with domain separation.

Every hash in the library goes through :func:`tagged_hash` so that a digest
computed in one context (say, a Merkle leaf) can never be confused with a
digest from another (say, a transaction id).  This mirrors the domain
separation practice of production ledger codebases.
"""

from __future__ import annotations

import functools
import hashlib
import hmac
from typing import Any

from repro.common.serialization import canonical_bytes

DIGEST_SIZE = 32

#: How many distinct tags keep a precomputed prefix state.  The library
#: uses a few dozen literal tags; the bound keeps callers that invent
#: tags at run time from growing the cache without limit.
TAG_PREFIX_CACHE_SIZE = 256


def sha256(data: bytes) -> bytes:
    """Plain SHA-256 of *data*."""
    return hashlib.sha256(data).digest()


@functools.lru_cache(maxsize=TAG_PREFIX_CACHE_SIZE)
def _tag_prefix(tag: str):
    """SHA-256 state that has absorbed ``H(tag)||H(tag)``; copy before use."""
    tag_digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return hashlib.sha256(tag_digest + tag_digest)


def tagged_hash(tag: str, data: bytes) -> bytes:
    """SHA-256 with BIP-340-style tag separation: H(H(tag)||H(tag)||data)."""
    state = _tag_prefix(tag).copy()
    state.update(data)
    return state.digest()


def hash_value(tag: str, value: Any) -> bytes:
    """Tagged hash of the canonical serialization of any library value."""
    return tagged_hash(tag, canonical_bytes(value))


def hash_hex(tag: str, value: Any) -> str:
    """Hex form of :func:`hash_value` for embedding in JSON structures."""
    return hash_value(tag, value).hex()


def hmac_sha256(key: bytes, data: bytes) -> bytes:
    """HMAC-SHA-256, used by the symmetric cipher and key derivation."""
    return hmac.digest(key, data, "sha256")


def hkdf(key_material: bytes, info: str, length: int = 32) -> bytes:
    """Minimal HKDF (RFC 5869, empty salt) for deriving subkeys."""
    if length <= 0 or length > 255 * DIGEST_SIZE:
        raise ValueError("invalid HKDF output length")
    prk = hmac_sha256(b"\x00" * DIGEST_SIZE, key_material)
    blocks = bytearray()
    previous = b""
    counter = 1
    info_bytes = info.encode("utf-8")
    while len(blocks) < length:
        previous = hmac_sha256(prk, previous + info_bytes + bytes([counter]))
        blocks.extend(previous)
        counter += 1
    return bytes(blocks[:length])


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Timing-safe comparison (delegates to :func:`hmac.compare_digest`)."""
    return hmac.compare_digest(a, b)
