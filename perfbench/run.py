"""Wall-clock benchmark of the unified transaction pipeline.

    python3 perfbench/run.py --workload {kv,loc} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the program is imported from ``src/``.

One run drives one workload through all three platforms (Fabric, Corda,
Quorum).  It is a closed loop with a single client: the
``repro.driver.Driver`` keeps ``BATCH_SIZE`` requests in flight per
``Platform.submit_many`` call and sends the next batch when the previous
one returns.  A *round* builds a fresh network for each platform from
the seed (so ledger state never grows across rounds), drives the
workload's requests through it, runs the simulated network until every
queued message is delivered, and checks the committed state against
``oracle.py``.  The timed part of a round is the drive plus the delivery,
so work moved between submission and delivery still counts.  Rounds
repeat until ``--seconds`` have passed, and every round of a run has the
same inputs.

With ``--trace 0`` the last stdout line reports, per platform, the
milliseconds per committed transaction of a best-case round, and
``setup_s``: the median, over ``SETUP_PROBES`` fresh processes spread
evenly over the run, of the time from importing ``repro`` to three
built networks.  A round is split into segments, one per
``submit_many`` batch plus the driver's tail and the final delivery;
the best-case round sums each segment's fastest wall time over all
rounds of the run.  Every round does the same work, so each segment's
minimum is that work's cost in the host's fastest stretch.  On a shared
host other tenants slow a plain Python loop by up to 1.7x for stretches
of 0.1 s to over 10 s; whole rounds (~0.5 s) rarely fit between them,
batches (~15 ms) do.  The fastest stretch itself drifts by 10-30% over
an hour, so every reported time is scaled by ``reference.py``: a fixed
task, interleaved with the rounds, whose tenth-percentile time stands
for the host's speed during the run.  The unscaled figures and the
reference time go to stderr.  With ``--trace 1`` the driver runs under
cProfile and the line reports the per-layer breakdown of ``layers.py``
plus per-transaction counts read from the program's telemetry and
crypto caches; those are not scaled.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import pstats
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

PLATFORMS = ("fabric", "corda", "quorum")
BATCH_SIZE = 10
SETUP_PROBES = 7

#: Scenario size per workload, chosen so each platform commits roughly
#: 300 transactions per round.  ``loc`` counts applications, each of
#: which submits one to four stage transactions.  ``loc`` also covers
#: the confidential paths (Fabric PDC writes, Corda participants, Quorum
#: privacy groups) that the driver's ``trades`` scenario exercises, so
#: that scenario is left out to give each run more time.
WORKLOADS = {
    "kv": {"operations": 300, "skew": 0.99},
    "loc": {"operations": 80, "skew": 0.0},
}


def _load_program():
    """Import the driver from this checkout's ``src/``, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "repro", "driver", "__init__.py")):
        sys.stderr.write(f"perfbench: no repro package under {SRC}\n")
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import repro.driver

    return repro.driver


def _build(driver_module, platform_name: str, workload: str, seed: int):
    params = WORKLOADS[workload]
    return driver_module.build_scenario(
        platform_name, workload, params["operations"],
        skew=params["skew"], seed=f"perfbench-{seed}",
    )


def setup_probe(workload: str, seed: int) -> None:
    """Child-process body: time import plus building all three networks."""
    started = time.perf_counter()
    driver_module = _load_program()
    for platform_name in PLATFORMS:
        _build(driver_module, platform_name, workload, seed)
    print(time.perf_counter() - started)


def measure_setup(workload: str, seed: int) -> float:
    """Seconds one fresh process takes from import to three networks."""
    child = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(child.stdout.strip().splitlines()[-1])


class PlatformTally:
    """Everything one platform accumulates over the rounds of a run."""

    def __init__(self, layer_profile=None) -> None:
        self.segments: list[list[float]] = []
        self.committed = 0
        self.setup_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.layers = layer_profile
        self.counts = {
            "messages": 0, "undelivered": 0, "spans": 0, "batches": 0,
            "sim_latency_s": 0.0,
            "sig_hits": 0, "sig_misses": 0, "cert_hits": 0, "cert_misses": 0,
        }

    def add_round(self, marks: list[float], committed: int) -> None:
        segments = [end - start for start, end in zip(marks, marks[1:])]
        if self.segments and len(segments) != len(self.segments[0]):
            raise RuntimeError("rounds of a run split into different batches")
        self.segments.append(segments)
        self.committed = committed

    def best_ms_per_tx(self) -> float:
        """Per-segment fastest time over all rounds, summed, per commit."""
        best = sum(min(column) for column in zip(*self.segments))
        return best * 1000.0 / max(1, self.committed)

    def observe_program(self, platform, report, queued: int) -> None:
        """Per-layer counts the program itself keeps.

        *queued* is how many sent messages the pipeline left undelivered
        when ``Driver.run`` returned, before the benchmark drained them.
        """
        metrics = platform.telemetry.metrics
        self.counts["messages"] += metrics.counter("net.messages_sent").value
        self.counts["undelivered"] += queued
        self.counts["sim_latency_s"] += report.mean_latency * report.committed
        self.counts["spans"] += len(platform.telemetry.tracer.spans)
        self.counts["batches"] += metrics.counter("ordering.batches_cut").value
        caches = report.cache_stats
        self.counts["sig_hits"] += caches["signature_verify"]["hits"]
        self.counts["sig_misses"] += caches["signature_verify"]["misses"]
        self.counts["cert_hits"] += caches["certificate_chain"]["hits"]
        self.counts["cert_misses"] += caches["certificate_chain"]["misses"]


def _mark_batches(platform) -> list[float]:
    """Record the wall time at which each ``submit_many`` call returns.

    The wrapper sits on the instance, so the driver's own code runs
    unchanged; the marks split a round into one segment per batch.
    """
    marks: list[float] = []
    submit_many = platform.submit_many

    def timed_submit_many(requests, **options):
        receipts = submit_many(requests, **options)
        marks.append(time.perf_counter())
        return receipts

    platform.submit_many = timed_submit_many
    return marks


def drive_once(driver_module, oracle, platform_name, workload, seed, tally,
               profile: bool):
    """Build, drive and check one network; returns the problems found."""
    gc.collect()
    started = time.perf_counter()
    scenario = _build(driver_module, platform_name, workload, seed)
    built = time.perf_counter()
    driver = driver_module.Driver(
        scenario.platform, driver_module.DriverConfig(batch_size=BATCH_SIZE)
    )
    network = scenario.platform.network
    marks = _mark_batches(scenario.platform)
    profiler = cProfile.Profile() if profile else None
    if profiler is not None:
        profiler.enable()
    marks.append(time.perf_counter())
    report = driver.run(scenario.requests)
    queued = network.stats.messages_sent - network.stats.messages_delivered
    marks.append(time.perf_counter())
    network.run()
    marks.append(time.perf_counter())
    if profiler is not None:
        profiler.disable()
    if tally is not None:
        tally.setup_ms.append((built - started) * 1000.0)
        tally.add_round(marks, report.committed)
        tally.attempted += report.operations
        tally.failed += report.failed
        if profiler is not None:
            tally.layers.add(pstats.Stats(profiler).stats)
            tally.observe_program(scenario.platform, report, queued)
    return oracle.check(
        platform_name, scenario.platform, workload, scenario.requests, report
    )


def per_layer_metrics(tallies) -> dict:
    from layers import LAYERS

    metrics = {}
    for platform_name, tally in tallies.items():
        committed = max(1, tally.attempted - tally.failed)

        def put(name, value, unit):
            metrics[f"{platform_name}.{name}"] = {"value": value, "unit": unit}

        total = sum(tally.layers.seconds.values())
        put("profiled_ms_per_tx", total * 1000.0 / committed, "ms")
        for layer in LAYERS:
            put(f"{layer}_ms_per_tx",
                tally.layers.seconds[layer] * 1000.0 / committed, "ms")
        for name, calls in tally.layers.calls.items():
            put(name, calls / committed, "count/tx")
        counts = tally.counts
        put("messages_per_tx", counts["messages"] / committed, "count/tx")
        put("undelivered_per_tx", counts["undelivered"] / committed, "count/tx")
        put("spans_per_tx", counts["spans"] / committed, "count/tx")
        put("orderer_batches_per_tx", counts["batches"] / committed, "count/tx")
        put("sim_latency_ms", counts["sim_latency_s"] * 1000.0 / committed, "ms")
        for cache in ("sig", "cert"):
            hits, misses = counts[f"{cache}_hits"], counts[f"{cache}_misses"]
            rate = 100.0 * hits / (hits + misses) if hits + misses else 0.0
            put(f"{cache}_cache_hit_pct", rate, "%")
        put("setup_ms", statistics.median(tally.setup_ms), "ms")
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    driver_module = _load_program()
    import oracle
    import reference
    from layers import LayerProfile

    setup_samples: list[float] = []
    reference_passes: list[float] = []
    probes = 0 if trace else SETUP_PROBES
    problems = []
    # One untimed round fills lazy, process-wide state (group parameters,
    # deferred imports) so the timed rounds all start warm.
    for platform_name in PLATFORMS:
        problems += drive_once(
            driver_module, oracle, platform_name, workload, seed, None, False
        )
    tallies = {
        platform_name: PlatformTally(
            LayerProfile(os.path.join(SRC, "repro")) if trace else None
        )
        for platform_name in PLATFORMS
    }
    began = time.perf_counter()
    deadline = began + seconds
    while True:
        # Set-up probes are spread evenly over the run, between rounds,
        # so a slow stretch of the host reaches only some of them.
        elapsed = time.perf_counter() - began
        while len(setup_samples) < probes and (
            elapsed >= seconds * len(setup_samples) / probes
        ):
            setup_samples.append(measure_setup(workload, seed))
        for platform_name in PLATFORMS:
            if not trace:
                reference_passes.append(reference.measure())
            problems += drive_once(
                driver_module, oracle, platform_name, workload, seed,
                tallies[platform_name], trace,
            )
        if time.perf_counter() >= deadline:
            break
    while len(setup_samples) < probes:
        setup_samples.append(measure_setup(workload, seed))
    for problem in problems[:20]:
        sys.stderr.write(f"perfbench: {problem}\n")
    rounds = len(tallies[PLATFORMS[0]].segments)
    sys.stderr.write(
        f"perfbench: {workload} seed={seed} rounds={rounds} "
        f"trace={int(trace)}\n"
    )
    if trace:
        metrics = per_layer_metrics(tallies)
    else:
        raw = {
            f"{platform_name}_ms_per_tx": tally.best_ms_per_tx()
            for platform_name, tally in tallies.items()
        }
        raw["setup_s"] = statistics.median(setup_samples)
        # The tenth percentile, not the minimum: one lucky pass would
        # otherwise scale the whole run.
        reference_ms = 1000.0 * statistics.quantiles(
            reference_passes, n=10
        )[0]
        sys.stderr.write(
            f"perfbench: unscaled {json.dumps(raw, sort_keys=True)} "
            f"reference_ms={reference_ms:.4f}\n"
        )
        scale = reference.REFERENCE_MS / reference_ms
        metrics = {
            name: {"value": value * scale,
                   "unit": "s" if name == "setup_s" else "ms"}
            for name, value in raw.items()
        }
    return {
        "correct": not problems,
        "attempted": sum(t.attempted for t in tallies.values()),
        "failed": sum(t.failed for t in tallies.values()),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
