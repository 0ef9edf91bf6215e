"""Schnorr group arithmetic.

All discrete-log based primitives in the library (signatures, Pedersen
commitments, ZK proofs, anonymous credentials, one-time keys) operate in the
same Schnorr group: the prime-order-q subgroup of Z_p* for a safe prime
p = 2q + 1.  Groups are generated deterministically from a seed
(:func:`small_group`); the group is a parameter everywhere, and every
platform uses the memoised 160-bit :func:`cached_test_group`.  That group's
parameters are pinned below as the constants :func:`small_group` derives,
so a process loads them rather than searching for a safe prime (like the
fixed groups of RFC 3526); every load re-checks both primes and re-derives
both generators.

The implementation is plain modular arithmetic: the paper's design guide
reasons about the *capabilities* of these primitives, and a transparent
from-scratch implementation makes the trust boundaries auditable.  The one
speed-up is fixed-base comb tables (:meth:`SchnorrGroup.comb`): a table of a
base's powers answers ``base^e`` with one multiplication per exponent digit
instead of a full ``pow``, with identical results.  :meth:`SchnorrGroup.exp`
answers ``g^e`` and ``h^e`` from 8-bit tables built lazily once per group
(~290 KB per generator for the 160-bit test group); signature schemes keep
4-bit tables of the public keys they verify.  Every other base uses ``pow``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.common.rng import DeterministicRNG
from repro.crypto.hashing import tagged_hash

# Maps the lowercase hex digits of an exponent to 4-bit digit values.
_HEX_DIGITS = bytes.maketrans(b"0123456789abcdef", bytes(range(16)))


@dataclass(frozen=True)
class SchnorrGroup:
    """A prime-order subgroup of Z_p* with independent generators g and h.

    ``h`` is a second generator with unknown discrete log relative to ``g``
    (derived by hashing into the group), as required for Pedersen
    commitments to be binding.
    """

    p: int
    q: int
    g: int
    h: int

    def __post_init__(self) -> None:
        if self.p != 2 * self.q + 1:
            raise ValueError("group requires a safe prime p = 2q + 1")
        for gen in (self.g, self.h):
            if not self.contains(gen) or gen == 1:
                raise ValueError("generator is not in the prime-order subgroup")

    def contains(self, element: int) -> bool:
        """True if *element* lies in the order-q subgroup."""
        return 0 < element < self.p and pow(element, self.q, self.p) == 1

    def exp(self, base: int, exponent: int) -> int:
        """base^exponent mod p (exponent reduced mod q)."""
        if base == self.g:
            return self.comb_exp(self._g_table, exponent)
        if base == self.h:
            return self.comb_exp(self._h_table, exponent)
        return pow(base, exponent % self.q, self.p)

    _g_table = cached_property(lambda self: self.comb(self.g, 8))
    _h_table = cached_property(lambda self: self.comb(self.h, 8))

    def comb(self, base: int, width: int) -> tuple[tuple[int, ...], ...]:
        """Fixed-base table of *base* for :meth:`comb_exp`, *width* 4 or 8.

        One row per *width*-bit exponent digit i: ``row[d] = base^(d * 2^(width*i))``.
        For the 160-bit group a width-8 table is 20 x 256 entries (~290 KB,
        ~3 ms to build), a width-4 table 40 x 16 (~35 KB, ~0.3 ms).
        """
        if width not in (4, 8):
            raise ValueError("comb tables take 4- or 8-bit digits")
        p = self.p
        table = []
        for __ in range(-(-self.q.bit_length() // width)):
            row = [1]
            for __ in range((1 << width) - 1):
                row.append(row[-1] * base % p)
            table.append(tuple(row))
            base = row[-1] * base % p
        return tuple(table)

    def comb_exp(self, table: tuple[tuple[int, ...], ...], exponent: int) -> int:
        """base^exponent mod p from ``comb(base, width)``; exponent reduced mod q."""
        exponent %= self.q
        # Least significant digit first: bytes for 8-bit rows, hex digits
        # for 4-bit rows.
        if len(table[0]) == 256:
            digits = exponent.to_bytes(len(table), "little")
        else:
            digits = f"{exponent:0{len(table)}x}".encode().translate(_HEX_DIGITS)[::-1]
        p = self.p
        result = 1
        for row, digit in zip(table, digits):
            if digit:
                result = result * row[digit] % p
        return result

    def mul(self, a: int, b: int) -> int:
        """Group multiplication a*b mod p."""
        return (a * b) % self.p

    def inv(self, a: int) -> int:
        """Multiplicative inverse of a mod p."""
        return pow(a, -1, self.p)

    def commit(self, value: int, blinding: int) -> int:
        """Pedersen commitment g^value * h^blinding mod p."""
        return self.mul(self.exp(self.g, value), self.exp(self.h, blinding))

    def random_scalar(self, rng: DeterministicRNG) -> int:
        """Uniform non-zero exponent in [1, q)."""
        return 1 + rng.randint_below(self.q - 1)

    def hash_to_scalar(self, tag: str, data: bytes) -> int:
        """Map arbitrary data to a challenge scalar in [0, q)."""
        # The four zero bytes are the counter prefix hash_to_element also uses.
        digest = tagged_hash(tag, bytes(4) + data)
        candidate = int.from_bytes(digest + tagged_hash(tag + "/ext", digest), "big")
        candidate %= 1 << (self.q.bit_length() + 64)
        return candidate % self.q

    def hash_to_element(self, tag: str, data: bytes) -> int:
        """Map arbitrary data to a subgroup element with unknown dlog."""
        counter = 0
        while True:
            digest = tagged_hash(tag, counter.to_bytes(4, "big") + data)
            candidate = int.from_bytes(digest * ((self.p.bit_length() // 256) + 2), "big") % self.p
            if candidate in (0, 1):
                counter += 1
                continue
            element = pow(candidate, 2, self.p)  # square into the subgroup
            if element != 1:
                return element
            counter += 1


def _is_probable_prime(n: int, rounds: int = 40) -> bool:
    """Miller-Rabin primality test with deterministic witnesses first."""
    if n < 2:
        return False
    small_primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    for prime in small_primes:
        if n % prime == 0:
            return n == prime
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    rng = DeterministicRNG(b"miller-rabin:" + n.to_bytes((n.bit_length() + 7) // 8, "big"))
    for __ in range(rounds):
        a = 2 + rng.randint_below(n - 3)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for __ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def _derive_generators(p: int, q: int) -> tuple[int, int]:
    """Find independent subgroup generators g and h by hashing into Z_p*."""
    def find(tag: str) -> int:
        counter = 0
        while True:
            seed = tagged_hash(tag, counter.to_bytes(4, "big") + p.to_bytes((p.bit_length() + 7) // 8, "big"))
            candidate = int.from_bytes(seed * ((p.bit_length() // 256) + 2), "big") % p
            if candidate > 1:
                gen = pow(candidate, 2, p)
                if gen != 1 and pow(gen, q, p) == 1:
                    return gen
            counter += 1

    return find("repro/group/g"), find("repro/group/h")


def small_group(bits: int = 160, seed: str = "repro-test-group") -> SchnorrGroup:
    """Generate a small safe-prime group for fast tests.

    Deterministic for a given (bits, seed), so test vectors are stable.
    """
    if bits < 32:
        raise ValueError("group too small to be meaningful")
    rng = DeterministicRNG(seed)
    while True:
        q = (1 << (bits - 1)) | int.from_bytes(rng.randbytes((bits + 7) // 8), "big") % (1 << (bits - 1))
        q |= 1
        if not _is_probable_prime(q, rounds=20):
            continue
        p = 2 * q + 1
        if _is_probable_prime(p, rounds=20):
            g, h = _derive_generators(p, q)
            return SchnorrGroup(p=p, q=q, g=g, h=h)


# The group ``small_group()`` derives for its defaults (160 bits,
# "repro-test-group"); a test pins that the derivation still yields them.
TEST_GROUP_P = 0x1A4789ADE4DD9BD3B5E64E7D0E3995EC615870D07
TEST_GROUP_Q = 0xD23C4D6F26ECDE9DAF3273E871CCAF630AC38683
TEST_GROUP_G = 0xCA961959396C33B3EFE90BD27283B69179267929
TEST_GROUP_H = 0x4CECE4522FA3EB975FE5270AFA908990728ECEDD

_CACHED_TEST: SchnorrGroup | None = None


def cached_test_group() -> SchnorrGroup:
    """Memoized small group shared by the test suite and fast simulations.

    Loaded from the pinned constants.  ``SchnorrGroup`` checks
    ``p = 2q + 1`` and that both generators lie in the subgroup; then both
    primes are checked (~5 ms) and both generators re-derived from ``p``
    (~0.2 ms; a flipped bit of ``g`` or ``h`` can still land in the
    subgroup).  A corrupted constant is refused rather than used.
    """
    global _CACHED_TEST
    if _CACHED_TEST is None:
        group = SchnorrGroup(p=TEST_GROUP_P, q=TEST_GROUP_Q, g=TEST_GROUP_G, h=TEST_GROUP_H)
        if not (_is_probable_prime(group.q, rounds=20) and _is_probable_prime(group.p, rounds=20)):
            raise ValueError("pinned test group is not a safe-prime group")
        if _derive_generators(group.p, group.q) != (group.g, group.h):
            raise ValueError("pinned test group's generators are not derived from p")
        _CACHED_TEST = group
    return _CACHED_TEST
