"""A fixed reference task that gauges how fast the host runs right now.

On a shared host the speed of one core drifts with what other tenants
run: a plain Python loop takes up to 1.7x longer for stretches of 0.1 s
to minutes, and even its fastest stretch moves by 10-30% over an hour.
The benchmark interleaves this task with its rounds and divides the
program's times by the task's tenth-percentile time, which removes most
of the host's speed from the ratio; ``REFERENCE_MS`` turns the ratio
back into milliseconds.

The task uses none of the program's code, so no change to the program
moves it.  It mixes the kinds of work the program's hot path does:
modular exponentiation on 2048-bit integers (signatures), sorted JSON
encoding and SHA-256 (canonical encoding and hashing), and building and
copying small dicts (world state, messages).
"""

from __future__ import annotations

import hashlib
import json
import random
import time

#: The benchmark reports times scaled to a host on which the
#: tenth-percentile pass of the task takes this long (a shared 2-vCPU
#: x86-64 cloud VM running CPython 3.11 takes 11-15 ms).
REFERENCE_MS = 10.0

_MODULUS = (1 << 2048) - 159
_RNG = random.Random(20240101)
_OPERANDS = [
    (_RNG.getrandbits(2000), _RNG.getrandbits(256)) for __ in range(3)
]
_RECORD = {f"key-{i:03d}": [i, str(i), {"value": i}] for i in range(60)}


def measure() -> float:
    """Seconds one pass of the reference task takes."""
    started = time.perf_counter()
    digest = 0
    for base, exponent in _OPERANDS:
        digest ^= pow(base, exponent, _MODULUS)
        encoded = json.dumps(_RECORD, sort_keys=True).encode()
        digest ^= int.from_bytes(hashlib.sha256(encoded).digest()[:4], "big")
        copy = dict(_RECORD)
        copy.update({f"{key}-next": value for key, value in _RECORD.items()})
    if digest == 0:
        raise RuntimeError("reference task computed nothing")
    return time.perf_counter() - started
