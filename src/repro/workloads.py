"""Synthetic workload generation.

The paper (§3.4): "custom scalability tests may need to be designed to
fit the particular use case".  This module provides the parameterized
workloads the benchmark harness drives: key-value update streams with
uniform or Zipfian key popularity (hot keys produce MVCC conflicts),
multi-party trade scenarios, and letter-of-credit application mixes.
All draws come from a :class:`DeterministicRNG`, so a workload is fully
described by (generator, parameters, seed).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterator

from repro.common.rng import DeterministicRNG


@dataclass(frozen=True)
class KVOperation:
    """One key-value update by one submitter."""

    submitter: str
    key: str
    value: int


@dataclass(frozen=True)
class TradeScenario:
    """One bilateral trade among a wider network."""

    buyer: str
    seller: str
    instrument: str
    notional: int
    confidential: bool


class ZipfianKeys:
    """Zipf-distributed key popularity (rank-frequency ~ 1/rank^s).

    ``skew=0`` degenerates to uniform; higher skew concentrates traffic
    on few keys, which is what produces read-write contention.
    """

    def __init__(self, key_count: int, skew: float = 1.0) -> None:
        if key_count < 1:
            raise ValueError("need at least one key")
        if skew < 0:
            raise ValueError("skew must be non-negative")
        self.key_count = key_count
        self.skew = skew
        weights = [1.0 / ((rank + 1) ** skew) for rank in range(key_count)]
        total = sum(weights)
        cumulative = 0.0
        self._cdf: list[float] = []
        for weight in weights:
            cumulative += weight / total
            self._cdf.append(cumulative)

    def draw(self, rng: DeterministicRNG) -> str:
        # Binary search over the CDF; this sits on the inner loop of every
        # Zipfian workload, where a linear scan costs O(key_count) per op.
        # bisect_left finds the first rank whose cumulative bound reaches
        # the drawn point — identical to the previous linear `point <=
        # bound` scan, including ties.
        point = rng.uniform(0.0, 1.0)
        rank = bisect.bisect_left(self._cdf, point)
        if rank >= self.key_count:  # guard against float round-off at 1.0
            rank = self.key_count - 1
        return f"key-{rank:04d}"


def kv_update_stream(
    submitters: list[str],
    operations: int,
    key_count: int = 64,
    skew: float = 0.0,
    seed: str = "kv-workload",
) -> Iterator[KVOperation]:
    """A stream of key-value updates with configurable contention."""
    if not submitters:
        raise ValueError("need at least one submitter")
    rng = DeterministicRNG(seed)
    keys = ZipfianKeys(key_count, skew)
    for __ in range(operations):
        yield KVOperation(
            submitter=rng.choice(submitters),
            key=keys.draw(rng),
            value=rng.randint_below(1_000_000),
        )


def trade_stream(
    parties: list[str],
    trades: int,
    confidential_fraction: float = 0.5,
    seed: str = "trade-workload",
) -> Iterator[TradeScenario]:
    """Bilateral trades among *parties*; a fraction are confidential."""
    if len(parties) < 2:
        raise ValueError("need at least two parties to trade")
    if not (0.0 <= confidential_fraction <= 1.0):
        raise ValueError("confidential_fraction must be in [0, 1]")
    rng = DeterministicRNG(seed)
    instruments = ["FX-SWAP", "IRS", "BOND-REPO", "CDS", "EQ-OPT"]
    for __ in range(trades):
        buyer = rng.choice(parties)
        seller = rng.choice([p for p in parties if p != buyer])
        yield TradeScenario(
            buyer=buyer,
            seller=seller,
            instrument=rng.choice(instruments),
            notional=(1 + rng.randint_below(100)) * 100_000,
            confidential=rng.uniform(0.0, 1.0) < confidential_fraction,
        )


#: The full letter-of-credit lifecycle, in order (paper §4 use case).
LOC_STAGES = ("apply", "issue", "ship", "pay")


@dataclass(frozen=True)
class LoCApplication:
    """One letter-of-credit application and how far it progresses.

    ``stages`` is a prefix of :data:`LOC_STAGES`: every application is
    applied for, but only a fraction are issued, shipped against, and
    paid — the mix a trade-finance platform actually sees.
    """

    loc_id: str
    applicant: str
    beneficiary: str
    amount: int
    stages: tuple[str, ...]

    @property
    def completed(self) -> bool:
        return self.stages == LOC_STAGES


def loc_stream(
    applicants: list[str],
    beneficiaries: list[str],
    applications: int,
    completion_fraction: float = 0.75,
    seed: str = "loc-workload",
) -> Iterator[LoCApplication]:
    """Letter-of-credit applications with a configurable completion mix.

    A ``completion_fraction`` of applications run the full
    apply/issue/ship/pay lifecycle; the rest stop uniformly at an earlier
    stage (rejected, in transit, or awaiting payment).
    """
    if not applicants or not beneficiaries:
        raise ValueError("need at least one applicant and one beneficiary")
    if not (0.0 <= completion_fraction <= 1.0):
        raise ValueError("completion_fraction must be in [0, 1]")
    rng = DeterministicRNG(seed)
    for index in range(applications):
        applicant = rng.choice(applicants)
        beneficiary = rng.choice(
            [b for b in beneficiaries if b != applicant] or beneficiaries
        )
        if rng.uniform(0.0, 1.0) < completion_fraction:
            depth = len(LOC_STAGES)
        else:
            depth = 1 + rng.randint_below(len(LOC_STAGES) - 1)
        yield LoCApplication(
            loc_id=f"loc-{index:05d}",
            applicant=applicant,
            beneficiary=beneficiary,
            amount=(1 + rng.randint_below(500)) * 10_000,
            stages=LOC_STAGES[:depth],
        )
