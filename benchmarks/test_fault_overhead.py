"""Experiment FI1 — fault-injection machinery overhead at zero fault rate.

The resilient-delivery layer and the fault-plan hooks run on every send,
so their cost must be negligible when nothing is failing — otherwise
turning the chaos machinery on would itself distort the S1–S3 numbers.

Three measurements:

1. **Plain vs resilient send**: wall-clock per delivered message for
   `send()` vs `send_with_retry()` on a healthy network (no retries fire).
2. **Empty fault plan**: attaching a `FaultPlan()` with no faults must
   not change the delivery schedule, the stats, or the RNG stream.
3. **Resilient platform path**: the fabric letter-of-credit lifecycle
   with `resilient_delivery` on vs off commits identically with zero
   retries recorded.
"""

from __future__ import annotations

import itertools
import time

import pytest

from benchmarks.conftest import write_result
from repro.common.clock import SimClock
from repro.common.rng import DeterministicRNG
from repro.faults.plan import FaultPlan
from repro.network.simnet import LatencyModel, SimNetwork
from repro.platforms.fabric import FabricNetwork
from repro.usecases.letter_of_credit import LetterOfCreditWorkflow

MESSAGES = 200


def fresh_net(seed: str, fault_plan: FaultPlan | None = None) -> SimNetwork:
    net = SimNetwork(
        clock=SimClock(),
        rng=DeterministicRNG(seed),
        latency=LatencyModel(base=0.005, jitter=0.002),
        fault_plan=fault_plan,
    )
    net.add_node("A")
    net.add_node("B")
    return net


def run_plain(seed: str) -> SimNetwork:
    net = fresh_net(seed)
    for n in range(MESSAGES):
        net.send("A", "B", "data", {"n": n})
    net.run()
    return net


def run_resilient(seed: str) -> SimNetwork:
    net = fresh_net(seed)
    for n in range(MESSAGES):
        net.send_with_retry("A", "B", "data", {"n": n})
    return net


@pytest.mark.parametrize("path", ["plain", "resilient"])
def test_send_path_cost(benchmark, path):
    """Per-message cost of each delivery path on a healthy network."""
    counter = itertools.count()
    runner = run_plain if path == "plain" else run_resilient

    net = benchmark(lambda: runner(f"fi1-{path}-{next(counter)}"))
    assert net.stats.messages_delivered == MESSAGES
    assert net.stats.messages_dropped == 0
    # The defining property: at zero fault rate the retry layer never fires.
    assert net.stats.retries == 0


def test_overhead_ratio_report():
    """Report the resilient/plain cost ratio; it must stay modest."""

    def time_runs(runner, tag: str) -> float:
        runner(f"fi1-warm-{tag}")  # warm-up
        start = time.perf_counter()
        for n in range(5):
            runner(f"fi1-ratio-{tag}-{n}")
        return (time.perf_counter() - start) / 5

    plain = time_runs(run_plain, "plain")
    resilient = time_runs(run_resilient, "resilient")
    ratio = resilient / plain
    write_result(
        "fi1_fault_overhead",
        "FI1: resilient-delivery overhead at zero fault rate\n"
        f"  {MESSAGES} messages per run, 5 runs each\n"
        f"  plain send():          {plain * 1e3:8.2f} ms/run\n"
        f"  send_with_retry():     {resilient * 1e3:8.2f} ms/run\n"
        f"  overhead ratio:        {ratio:8.2f}x",
        data={
            "experiment": "fi1_fault_overhead",
            "messages_per_run": MESSAGES,
            "runs": 5,
            "plain_ms_per_run": plain * 1e3,
            "resilient_ms_per_run": resilient * 1e3,
            "overhead_ratio": ratio,
        },
    )
    # Ack tracking + deadline bookkeeping cost a small constant factor,
    # not an order of magnitude.  Generous bound to stay robust on slow CI.
    assert ratio < 10.0


def test_empty_fault_plan_changes_nothing():
    """An attached-but-empty plan must not perturb the simulation.

    Delivery times and drop decisions consume the RNG stream, so this
    also proves the zero-fault hooks sample nothing extra.
    """
    plain = fresh_net("fi1-parity")
    planned = fresh_net("fi1-parity", fault_plan=FaultPlan())
    arrivals = {}
    for net in (plain, planned):
        arrived = arrivals[net] = []
        net.node("B").on("data", lambda m, arrived=arrived: arrived.append(m.payload["n"]))
        for n in range(50):
            net.send("A", "B", "data", {"n": n})
        net.run()
    assert plain.clock.now == planned.clock.now
    assert plain.stats == planned.stats
    assert arrivals[plain] == arrivals[planned]


@pytest.mark.parametrize("resilient", [False, True], ids=["plain", "resilient"])
def test_letter_of_credit_lifecycle_cost(benchmark, resilient):
    """End-to-end platform path: same commits, zero retries, either way."""
    def lifecycle():
        wf = LetterOfCreditWorkflow(network=FabricNetwork(
            seed="fi1-loc", resilient_delivery=resilient,
        ))
        wf.setup()
        wf.run_full_lifecycle("LC-1")  # fresh network every round
        return wf

    wf = benchmark(lifecycle)
    assert wf.status_of("LC-1", "IssuingBank") == "paid"
    assert wf.network.network.stats.retries == 0
    assert wf.network.network.stats.messages_dropped == 0
