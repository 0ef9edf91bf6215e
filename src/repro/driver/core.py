"""The workload driver: batched submission over the unified pipeline.

One :class:`Driver` instance drives one platform.  It chunks a request
list into in-flight batches of ``batch_size`` and hands each chunk to
:meth:`Platform.submit_many`.  With ``force_cut=False`` the chunk is left
to the ordering service's own cutting policy, so a drip-feeding client
(small batches) pays the orderer's ``batch_timeout`` per cut while full
batches release at service time — the backpressure the S1-S3 benchmarks
measure, now reachable from one knob.

Every run emits ``driver.*`` metrics into the platform's telemetry
registry: a ``driver.batch_size`` histogram, a ``driver.latency``
histogram of per-transaction submit-to-commit simulated time, and a
``driver.last_throughput_tps`` gauge, left unset by a run that took no
simulated time.  Outcome counts are the platform's own
``pipeline.submitted`` / ``pipeline.committed`` / ``pipeline.failed``
counters, which every receipt already feeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.platforms.base import Platform, TxReceipt, TxRequest

#: Histogram bounds: per-transaction simulated latency (seconds), in-flight batch sizes.
BOUNDS = {"driver.latency": (0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0),
          "driver.batch_size": (1, 2, 5, 10, 25, 50, 100, 250)}


@dataclass(frozen=True)
class DriverConfig:
    """How the driver feeds the platform.

    ``batch_size`` requests are kept in flight together per
    :meth:`~repro.platforms.base.Platform.submit_many` call;
    ``force_cut=False`` leaves batch release to the orderer's size/timeout
    policy instead of flushing synchronously.
    """

    batch_size: int = 1
    force_cut: bool = True

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")


@dataclass
class DriverReport:
    """Outcome of one driver run, in simulated time."""

    platform: str
    config: DriverConfig
    receipts: list[TxReceipt]
    started_at: float
    finished_at: float
    cache_stats: dict = field(default_factory=dict)

    @property
    def operations(self) -> int:
        return len(self.receipts)

    @property
    def committed(self) -> int:
        return sum(1 for receipt in self.receipts if receipt.committed)

    @property
    def failed(self) -> int:
        return self.operations - self.committed

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at

    @property
    def throughput_tps(self) -> float | None:
        """Committed transactions per simulated second.

        ``None`` when no simulated time passed: there is no rate to report.
        """
        if self.duration <= 0.0:
            return None
        return self.committed / self.duration

    @property
    def mean_latency(self) -> float | None:
        """Mean simulated latency of committed receipts; ``None`` if none."""
        latencies = [
            receipt.latency
            for receipt in self.receipts
            if receipt.latency is not None
        ]
        if not latencies:
            return None
        return sum(latencies) / len(latencies)

    def status_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for receipt in self.receipts:
            counts[receipt.status] = counts.get(receipt.status, 0) + 1
        return dict(sorted(counts.items()))

    def to_dict(self) -> dict:
        """JSON shape for ``repro bench --json`` and benchmark results."""
        tps = self.throughput_tps
        latency = self.mean_latency
        return {
            "platform": self.platform,
            "batch_size": self.config.batch_size,
            "force_cut": self.config.force_cut,
            "operations": self.operations,
            "committed": self.committed,
            "failed": self.failed,
            "duration_s": round(self.duration, 6),
            "throughput_tps": None if tps is None else round(tps, 3),
            "mean_latency_s": None if latency is None else round(latency, 6),
            "statuses": self.status_counts(),
            "cache_stats": self.cache_stats,
        }

    def render_text(self) -> str:
        tps = self.throughput_tps
        latency = self.mean_latency
        lines = [
            f"driver run on {self.platform} "
            f"(batch={self.config.batch_size}, "
            f"force_cut={self.config.force_cut})",
            f"  operations    {self.operations}",
            f"  committed     {self.committed}",
            f"  failed        {self.failed}",
            f"  sim duration  {self.duration:.3f}s",
            "  throughput    "
            + ("n/a" if tps is None else f"{tps:.1f} tx/s"),
            "  mean latency  "
            + ("n/a" if latency is None else f"{latency * 1000.0:.1f} ms"),
        ]
        for status, count in self.status_counts().items():
            lines.append(f"  status {status:24s} {count}")
        for cache, stats in sorted(self.cache_stats.items()):
            hits, misses = stats.get("hits", 0), stats.get("misses", 0)
            total = hits + misses
            rate = f"{hits / total:.0%}" if total else "n/a"
            lines.append(f"  cache {cache:24s} {hits}/{total} hits ({rate})")
        return "\n".join(lines)


class Driver:
    """Pump :class:`TxRequest` lists through one platform's pipeline."""

    def __init__(
        self, platform: Platform, config: DriverConfig | None = None
    ) -> None:
        self.platform = platform
        self.config = config or DriverConfig()

    def run(self, requests: list[TxRequest]) -> DriverReport:
        """Submit *requests* in configured batches; never raises per-tx.

        Per-transaction failures surface as failed receipts (the batch
        keeps pumping), matching what a load generator does against a
        real network.
        """
        requests = list(requests)
        metrics = self.platform.telemetry.metrics
        # Bound on first use: a run that observes nothing adds no series.
        histograms = metrics.bind(lambda m, name: m.histogram(name, bounds=BOUNDS[name]))
        started_at = self.platform.clock.now
        receipts: list[TxReceipt] = []
        with self.platform.telemetry.span(
            "driver.run",
            platform=self.platform.platform_name,
            operations=len(requests),
            batch_size=self.config.batch_size,
        ):
            for start in range(0, len(requests), self.config.batch_size):
                chunk = requests[start : start + self.config.batch_size]
                histograms["driver.batch_size"].observe(len(chunk))
                batch_receipts = self.platform.submit_many(
                    chunk, force_cut=self.config.force_cut
                )
                for receipt in batch_receipts:
                    if receipt.latency is not None:
                        histograms["driver.latency"].observe(receipt.latency)
                receipts.extend(batch_receipts)
        finished_at = self.platform.clock.now
        report = DriverReport(
            platform=self.platform.platform_name,
            config=self.config,
            receipts=receipts,
            started_at=started_at,
            finished_at=finished_at,
            cache_stats=self.platform.crypto_cache_stats(),
        )
        tps = report.throughput_tps
        if tps is not None:
            metrics.gauge("driver.last_throughput_tps").set(round(tps, 3))
        return report
