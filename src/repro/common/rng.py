"""Deterministic randomness.

Cryptographic stand-ins in this library need unpredictable-looking values,
but the simulation needs reproducibility.  :class:`DeterministicRNG` derives
an unbounded stream from SHA-256 in counter mode, seeded explicitly.  Two
runs with the same seed produce identical networks, keys, and nonces.
"""

from __future__ import annotations

import hashlib


class DeterministicRNG:
    """SHA-256 counter-mode pseudo-random generator with an explicit seed."""

    def __init__(self, seed: bytes | str | int = 0) -> None:
        if isinstance(seed, int):
            seed = seed.to_bytes(32, "big", signed=False)
        elif isinstance(seed, str):
            seed = seed.encode("utf-8")
        self._seed = hashlib.sha256(b"repro-rng:" + seed).digest()
        self._counter = 0

    def _block(self) -> bytes:
        block = hashlib.sha256(
            self._seed + self._counter.to_bytes(16, "big")
        ).digest()
        self._counter += 1
        return block

    def randbytes(self, n: int) -> bytes:
        """Return *n* pseudo-random bytes."""
        if n < 0:
            raise ValueError("cannot draw a negative number of bytes")
        out = bytearray()
        while len(out) < n:
            out.extend(self._block())
        return bytes(out[:n])

    def randint_below(self, bound: int) -> int:
        """Return a uniform integer in ``[0, bound)`` via rejection sampling."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        nbits = bound.bit_length()
        nbytes = (nbits + 7) // 8
        mask = (1 << nbits) - 1
        while True:
            candidate = int.from_bytes(self.randbytes(nbytes), "big") & mask
            if candidate < bound:
                return candidate

    def uniform(self, low: float, high: float) -> float:
        """Return a float uniform in ``[low, high)`` with 53-bit resolution."""
        if high < low:
            raise ValueError("empty range")
        # The first 8 bytes of the next block, as randbytes(8) would draw.
        frac = int.from_bytes(self._block()[:8], "big") >> 11
        return low + (high - low) * (frac / float(1 << 53))

    def choice(self, seq):
        """Return a uniformly chosen element of the non-empty sequence."""
        if not seq:
            raise ValueError("cannot choose from an empty sequence")
        return seq[self.randint_below(len(seq))]

    def fork(self, label: str) -> "DeterministicRNG":
        """Derive an independent child generator keyed by *label*.

        Forking lets subsystems (network, keygen, workload) consume
        randomness without perturbing each other's streams.
        """
        return DeterministicRNG(self._seed + b"|fork|" + label.encode("utf-8"))
