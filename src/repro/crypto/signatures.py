"""Schnorr digital signatures.

The library's signature scheme for all platforms and identities.  Nonces are
derived deterministically (RFC 6979 style) from the secret key and message,
so signing is reproducible and never reuses a nonce.

Verification is memoized per scheme instance, keyed on the public key, a
digest of the message, and the signature itself.  Platform hot paths
re-verify the same endorsements on every committing peer; the cache turns
those repeats into dictionary hits while staying sound (a different
signature or message can never alias an earlier entry).  Hit/miss counters
are exposed through :meth:`SignatureScheme.cache_info` so benchmarks can
attribute the speedup.

A scheme also keeps a 4-bit comb table (:meth:`SchnorrGroup.comb`) for each
key that passed the subgroup check (successes only, at most
:data:`KEY_TABLE_MAX` keys, emptied by :meth:`SignatureScheme.reset_cache`).
A key pays that check and the table build (~0.3 ms for the 160-bit group)
once; after that ``y^-e`` costs ~40 multiplications instead of a full
``pow``, and ``g^k`` and ``g^s`` come from the group's own tables.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.rng import DeterministicRNG
from repro.crypto.groups import SchnorrGroup, cached_test_group
from repro.crypto.hashing import tagged_hash
from repro.common.errors import SignatureError

#: Entries kept in a scheme's verification cache before the oldest half is
#: evicted.  Large enough to hold every live endorsement in a benchmark run;
#: bounded so long-lived processes cannot grow without limit.
VERIFY_CACHE_MAX = 16384

#: Keys whose comb tables a scheme keeps before the oldest half is evicted.
#: A table is ~35 KB for the 160-bit group, so this caps the memo at ~9 MB;
#: a channel verifies a handful of long-lived endorser keys.
KEY_TABLE_MAX = 256

#: Digit width of a key's comb table.  An 8-bit table would cost ~2 ms and
#: ~290 KB per key, which a key verified only a few times never earns back.
KEY_TABLE_WIDTH = 4


def _remember(cache: dict, key, value, limit: int) -> None:
    """Store *key* in *cache*, first evicting the oldest half if it holds *limit*."""
    if len(cache) >= limit:
        for stale in list(cache)[: limit // 2]:
            del cache[stale]
    cache[key] = value


@dataclass(frozen=True)
class PublicKey:
    """A Schnorr public key: group element y = g^x."""

    y: int

    def fingerprint(self) -> str:
        """Short stable identifier for the key (hex of a tagged hash)."""
        data = self.y.to_bytes((self.y.bit_length() + 7) // 8 or 1, "big")
        return tagged_hash("repro/pubkey", data).hex()[:16]


@dataclass(frozen=True)
class PrivateKey:
    """A Schnorr private key x with its public counterpart."""

    x: int
    public: PublicKey


@dataclass(frozen=True)
class Signature:
    """Schnorr signature (challenge, response)."""

    challenge: int
    response: int

    def wire_size(self) -> int:
        """Bytes of the two scalars, each big-endian and unpadded."""
        return (self.challenge.bit_length() + 7) // 8 + (
            self.response.bit_length() + 7
        ) // 8


class SignatureScheme:
    """Schnorr signatures over a :class:`SchnorrGroup`."""

    def __init__(self, group: SchnorrGroup | None = None) -> None:
        self.group = group or cached_test_group()
        self._verify_cache: dict[tuple[int, bytes, int, int], bool] = {}
        self._key_tables: dict[int, tuple[tuple[int, ...], ...]] = {}
        self._verify_hits = 0
        self._verify_misses = 0

    def keygen(self, rng: DeterministicRNG) -> PrivateKey:
        """Generate a key pair from the supplied randomness source."""
        x = self.group.random_scalar(rng)
        y = self.group.exp(self.group.g, x)
        return PrivateKey(x=x, public=PublicKey(y=y))

    def keygen_from_seed(self, seed: str) -> PrivateKey:
        """Derive a key pair deterministically from a string seed."""
        return self.keygen(DeterministicRNG("keygen:" + seed))

    def _nonce(self, key: PrivateKey, message: bytes) -> int:
        material = key.x.to_bytes((self.group.q.bit_length() + 7) // 8, "big")
        digest = tagged_hash("repro/schnorr/nonce", material + message)
        k = int.from_bytes(digest + tagged_hash("repro/schnorr/nonce2", digest), "big")
        k %= self.group.q - 1
        return k + 1

    def _challenge(self, commitment: int, public: PublicKey, message: bytes) -> int:
        data = b"|".join(
            value.to_bytes((value.bit_length() + 7) // 8 or 1, "big")
            for value in (commitment, public.y)
        )
        return self.group.hash_to_scalar("repro/schnorr/challenge", data + b"|" + message)

    def sign(self, key: PrivateKey, message: bytes) -> Signature:
        """Sign *message*; deterministic for a fixed (key, message)."""
        k = self._nonce(key, message)
        commitment = self.group.exp(self.group.g, k)
        e = self._challenge(commitment, key.public, message)
        s = (k + e * key.x) % self.group.q
        return Signature(challenge=e, response=s)

    def verify(self, public: PublicKey, message: bytes, sig: Signature) -> bool:
        """Return True iff *sig* is a valid signature on *message*.

        Results are memoized on (key, message digest, signature); the full
        signature is part of the key so a forged signature can never hit a
        cached True for the genuine one.
        """
        digest = tagged_hash("repro/schnorr/verify-cache", message)
        cache_key = (public.y, digest, sig.challenge, sig.response)
        cached = self._verify_cache.get(cache_key)
        if cached is not None:
            self._verify_hits += 1
            return cached
        self._verify_misses += 1
        result = self._verify_uncached(public, message, sig)
        _remember(self._verify_cache, cache_key, result, VERIFY_CACHE_MAX)
        return result

    def _verify_uncached(self, public: PublicKey, message: bytes, sig: Signature) -> bool:
        if not (0 <= sig.challenge < self.group.q and 0 <= sig.response < self.group.q):
            return False
        table = self._key_tables.get(public.y)
        if table is None:
            # The identity is in the subgroup but is no key: with y = 1 anyone
            # can sign by choosing s = k.
            if public.y == 1 or not self.group.contains(public.y):
                return False
            table = self.group.comb(public.y, KEY_TABLE_WIDTH)
            _remember(self._key_tables, public.y, table, KEY_TABLE_MAX)
        # Recompute R = g^s * y^-e and check the challenge matches; y has
        # order q, so comb_exp's reduction of -e mod q yields y^-e.
        gs = self.group.exp(self.group.g, sig.response)
        y_inv_e = self.group.comb_exp(table, -sig.challenge)
        commitment = self.group.mul(gs, y_inv_e)
        return self._challenge(commitment, public, message) == sig.challenge

    def cache_info(self) -> dict[str, int]:
        """Verification-cache statistics: hits, misses, current size."""
        return {
            "hits": self._verify_hits,
            "misses": self._verify_misses,
            "size": len(self._verify_cache),
        }

    def reset_cache(self) -> None:
        """Drop memoized verifications and key tables; zero the hit/miss counters."""
        self._verify_cache.clear()
        self._key_tables.clear()
        self._verify_hits = 0
        self._verify_misses = 0

    def require_valid(self, public: PublicKey, message: bytes, sig: Signature) -> None:
        """Raise :class:`SignatureError` unless *sig* verifies."""
        if not self.verify(public, message, sig):
            raise SignatureError("signature verification failed")
