"""Experiment P1 — unified pipeline: batching payoff and crypto caching.

Two claims, measured in simulated time on the deterministic model:

1. **Batching vs drip-feed**: a driver keeping a full orderer batch in
   flight commits at the orderer's service rate, while a one-at-a-time
   client pays ``batch_timeout`` per transaction — the same backpressure
   the S1 batch-timeout series measures, now observed end to end through
   ``Platform.submit_many``.
2. **Hot-path crypto caching**: a letter-of-credit stage mix re-verifies
   the same certificates and endorsement signatures across stages, so
   both the certificate-chain cache and the signature-verify cache show
   non-zero hit rates (wall-clock work the caches elide).
"""

from __future__ import annotations

from benchmarks.conftest import write_result
from repro.driver import Driver, DriverConfig, kv_scenario, loc_scenario

KV_OPS = 200
BATCH_LADDER = (1, 10, 50, 100)


def _kv_report(batch_size: int, force_cut: bool = False):
    scenario = kv_scenario("fabric", KV_OPS, skew=0.0, seed="p1")
    config = DriverConfig(batch_size=batch_size, force_cut=force_cut)
    return Driver(scenario.platform, config).run(scenario.requests)


def test_batched_driver_beats_drip_feed(benchmark):
    """Full in-flight batches commit ≥2x faster than one-at-a-time."""
    drip = _kv_report(batch_size=1)
    batched = benchmark.pedantic(
        _kv_report, kwargs={"batch_size": 100}, rounds=1, iterations=1
    )
    assert drip.committed == batched.committed == KV_OPS
    # A lone tx waits out batch_timeout before its cut; a full batch
    # releases at service time — orders of magnitude, but 2x is the gate.
    assert batched.throughput_tps >= 2 * drip.throughput_tps


def test_loc_mix_hits_both_crypto_caches(benchmark):
    """The LoC stage mix exercises signature and cert-chain caches."""

    def run_loc():
        scenario = loc_scenario("fabric", 25, seed="p1")
        return Driver(
            scenario.platform, DriverConfig(batch_size=25)
        ).run(scenario.requests)

    report = benchmark.pedantic(run_loc, rounds=1, iterations=1)
    assert report.failed == 0
    sig = report.cache_stats["signature_verify"]
    cert = report.cache_stats["certificate_chain"]
    assert sig["hits"] > 0
    assert cert["hits"] > 0


def test_pipeline_series(benchmark):
    """Emit the P1 table: throughput vs in-flight batch size + cache rates."""

    def build_series():
        ladder = {
            batch: _kv_report(batch_size=batch) for batch in BATCH_LADDER
        }
        scenario = loc_scenario("fabric", 25, seed="p1")
        loc = Driver(
            scenario.platform, DriverConfig(batch_size=25)
        ).run(scenario.requests)
        return ladder, loc

    ladder, loc = benchmark.pedantic(build_series, rounds=1, iterations=1)
    lines = [
        "P1: driver throughput vs in-flight batch size "
        f"(fabric kv, {KV_OPS} ops, orderer left to its own cutting policy)",
        f"{'batch':>6s} {'throughput tx/s':>16s} {'mean latency ms':>16s}",
    ]
    for batch, report in ladder.items():
        latency = report.mean_latency
        lines.append(
            f"{batch:>6d} {report.throughput_tps:>16.1f} "
            + (f"{'n/a':>16s}" if latency is None else f"{latency * 1000.0:>16.1f}")
        )
    lines.append("")
    lines.append("P1: crypto cache hit rates on the LoC stage mix (fabric)")
    cache_rates = {}
    for cache, stats in sorted(loc.cache_stats.items()):
        total = stats["hits"] + stats["misses"]
        rate = stats["hits"] / total if total else 0.0
        cache_rates[cache] = {**stats, "hit_rate": round(rate, 4)}
        lines.append(f"  {cache:24s} {stats['hits']}/{total} hits ({rate:.0%})")
    speedup = (
        ladder[BATCH_LADDER[-1]].throughput_tps
        / ladder[1].throughput_tps
    )
    lines.append("")
    lines.append(f"batched-vs-drip speedup: {speedup:.0f}x")
    write_result(
        "p1_pipeline",
        "\n".join(lines),
        data={
            "experiment": "p1_pipeline",
            "kv_ops": KV_OPS,
            "series": {
                str(batch): report.to_dict()
                for batch, report in ladder.items()
            },
            "loc_mix": loc.to_dict(),
            "cache_hit_rates": cache_rates,
            "batched_vs_drip_speedup": round(speedup, 2),
        },
    )
    assert speedup >= 2.0
