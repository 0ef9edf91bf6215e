"""Experiment S1 — Fabric scalability (paper §3.4, per reference [11]).

Three measurements:

1. **Channel scale-out**: aggregate throughput with per-channel (private)
   ordering services grows ~linearly with channel count, while a single
   shared orderer saturates at its fixed capacity — the quantitative side
   of the paper's "parties can feasibly run their own service" advice.
2. **PDC vs inline data**: private data collections put only a hash on
   the chain, so on-chain bytes stay flat as payloads grow, at the cost
   of extra peer-store work (wall-time benchmarked).
3. **End-to-end invoke latency** as org count grows (endorsement fan-out).
"""

from __future__ import annotations

import itertools

import pytest

from benchmarks.conftest import write_result
from repro.common.clock import SimClock
from repro.common.serialization import canonical_bytes
from repro.execution.contracts import SmartContract
from repro.ledger.ordering import OrdererProfile, OrderingService
from repro.ledger.transaction import Transaction, WriteEntry
from repro.platforms.fabric import FabricNetwork

TX_PER_CHANNEL = 200
ORDERER_TPS = 1000.0


def put_contract(cid="cc"):
    def put(view, args):
        view.put(args["key"], args["value"])
        return args["value"]

    return SmartContract(cid, 1, "python-chaincode", {"put": put})


def _simulated_throughput(channel_count: int, shared: bool) -> float:
    """Aggregate tx/s from the deterministic service-time model."""
    clock = SimClock()
    profile = OrdererProfile(capacity_tps=ORDERER_TPS, max_batch_size=50)
    if shared:
        orderers = [OrderingService("shared", clock, profile=profile)]
    else:
        orderers = [
            OrderingService(f"orderer-{i}", clock, profile=profile)
            for i in range(channel_count)
        ]
    release_times = []
    for index in range(channel_count):
        orderer = orderers[0] if shared else orderers[index]
        channel = f"ch{index}"
        for n in range(TX_PER_CHANNEL):
            orderer.submit(Transaction(
                channel=channel, submitter="org",
                writes=(WriteEntry(key=f"k{n}", value=n),),
            ))
        for batch in orderer.drain_channel(channel):
            release_times.append(batch.released_at)
    total_tx = channel_count * TX_PER_CHANNEL
    return total_tx / max(release_times)


@pytest.mark.parametrize("channels", [1, 2, 4, 8])
def test_channel_scaleout_throughput(benchmark, channels):
    """Dedicated per-channel orderers scale; a shared one saturates."""
    shared_tps = _simulated_throughput(channels, shared=True)
    dedicated_tps = benchmark(_simulated_throughput, channels, False)

    # Shared orderer saturates at its capacity regardless of channels.
    assert shared_tps == pytest.approx(ORDERER_TPS, rel=0.05)
    # Dedicated orderers scale aggregate throughput ~linearly.
    assert dedicated_tps == pytest.approx(channels * ORDERER_TPS, rel=0.05)
    if channels > 1:
        assert dedicated_tps > shared_tps * (channels * 0.9)


def test_channel_scaleout_series(benchmark):
    """Emit the full series the figure-style table reports."""

    def build_series():
        return {
            channels: {
                "shared": _simulated_throughput(channels, shared=True),
                "dedicated": _simulated_throughput(channels, shared=False),
            }
            for channels in (1, 2, 4, 8)
        }

    series = benchmark.pedantic(build_series, rounds=1, iterations=1)
    lines = ["S1: Fabric aggregate throughput (tx/s) vs channel count",
             f"{'channels':>8s} {'shared orderer':>16s} {'per-channel orderers':>22s}"]
    for channels, row in series.items():
        lines.append(
            f"{channels:>8d} {row['shared']:>16.0f} {row['dedicated']:>22.0f}"
        )
    write_result(
        "s1_fabric_channels",
        "\n".join(lines),
        data={
            "experiment": "s1_fabric_channels",
            "orderer_capacity_tps": ORDERER_TPS,
            "series": {
                str(channels): row for channels, row in series.items()
            },
        },
    )
    assert series[8]["dedicated"] / series[8]["shared"] == pytest.approx(8, rel=0.1)


@pytest.mark.parametrize("payload_bytes", [64, 512, 4096])
def test_pdc_keeps_chain_bytes_flat(benchmark, payload_bytes):
    """On-chain footprint: inline grows with payload, PDC stays ~constant."""
    counter = itertools.count()

    def run_pair():
        net = FabricNetwork(seed=f"s1-pdc-{payload_bytes}-{next(counter)}")
        for org in ("Org1", "Org2"):
            net.onboard(org)
        channel = net.create_channel("ch", ["Org1", "Org2"])
        channel.create_collection("col", ["Org1", "Org2"])
        net.deploy_chaincode("ch", put_contract(), ["Org1", "Org2"])
        payload = "x" * payload_bytes

        inline = net.invoke("ch", "Org1", "cc", "put",
                            {"key": "inline", "value": payload})
        pdc = net.invoke("ch", "Org1", "cc", "put",
                         {"key": "ref", "value": "in-collection"},
                         collection_writes={"col": {"private": payload}})
        return inline.tx, pdc.tx

    inline_tx, pdc_tx = benchmark(run_pair)
    inline_size = len(canonical_bytes(inline_tx.core_content()))
    pdc_size = len(canonical_bytes(pdc_tx.core_content()))
    # Inline transactions carry the payload; PDC transactions carry a
    # fixed-size hash — for payloads beyond the envelope, inline dominates.
    if payload_bytes >= 512:
        assert inline_size > pdc_size
    assert "col/private" in pdc_tx.private_hashes


@pytest.mark.parametrize("orgs", [2, 4, 8])
def test_invoke_latency_vs_endorser_count(benchmark, orgs):
    """Endorsement fan-out: proposals/signatures grow with org count."""
    members = [f"Org{i}" for i in range(orgs)]
    net = FabricNetwork(seed=f"s1-fanout-{orgs}")
    for org in members:
        net.onboard(org)
    net.create_channel("ch", members)
    net.deploy_chaincode("ch", put_contract(), members)
    counter = itertools.count()

    def invoke():
        return net.invoke("ch", members[0], "cc", "put",
                          {"key": f"k{next(counter)}", "value": 1})

    result = benchmark(invoke)
    assert len(result.tx.endorsements) == orgs


@pytest.mark.parametrize("batch_timeout", [0.1, 0.5, 2.0])
def test_batch_timeout_bounds_quiet_channel_latency(benchmark, batch_timeout):
    """A lone tx on a quiet channel is released once batch_timeout expires."""

    def run():
        clock = SimClock()
        orderer = OrderingService(
            "ord", clock,
            profile=OrdererProfile(
                capacity_tps=ORDERER_TPS, max_batch_size=50,
                batch_timeout=batch_timeout,
            ),
        )
        orderer.submit(Transaction(
            channel="ch", submitter="org",
            writes=(WriteEntry(key="k", value=1),),
        ))
        return orderer.cut_batch("ch").released_at

    released = benchmark(run)
    # The timeout is the latency floor for partial batches.
    assert released == pytest.approx(batch_timeout + 1 / ORDERER_TPS)


def test_batch_timeout_series(benchmark):
    """Quiet channels pay the timeout; saturated channels never do."""

    def release_time(batch_timeout: float, tx_count: int) -> float:
        clock = SimClock()
        orderer = OrderingService(
            "ord", clock,
            profile=OrdererProfile(
                capacity_tps=ORDERER_TPS, max_batch_size=50,
                batch_timeout=batch_timeout,
            ),
        )
        for n in range(tx_count):
            orderer.submit(Transaction(
                channel="ch", submitter="org",
                writes=(WriteEntry(key=f"k{n}", value=n),),
            ))
        return orderer.cut_batch("ch").released_at

    def build_series():
        return [
            (timeout, release_time(timeout, 1), release_time(timeout, 50))
            for timeout in (0.05, 0.25, 1.0)
        ]

    rows = benchmark.pedantic(build_series, rounds=1, iterations=1)
    lines = ["S1: batch release time (s) vs batch_timeout",
             f"{'timeout':>8s} {'quiet (1 tx)':>14s} {'full (50 tx)':>14s}"]
    for timeout, quiet, full in rows:
        lines.append(f"{timeout:>8.2f} {quiet:>14.3f} {full:>14.3f}")
    write_result("s1_fabric_batch_timeout", "\n".join(lines))
    quiet_times = [quiet for __, quiet, __f in rows]
    # The knob measurably moves quiet-channel release times...
    assert quiet_times == sorted(quiet_times)
    assert quiet_times[-1] > quiet_times[0] * 10
    # ...and leaves full batches untouched.
    assert len({full for __, __q, full in rows}) == 1


class TestPrivateOrderingCluster:
    """Ablation: running your own ordering as a replicated cluster.

    Section 3.4's mitigation in its realistic form: a member-run orderer
    replicated over the channel members survives a leader crash, but every
    replica operator sees the data — visibility is contained to the
    consortium, not eliminated.
    """

    def test_cluster_orders_under_crash(self, benchmark):
        members = ("Org1", "Org2", "Org3")
        counter = itertools.count()

        def run_with_crash():
            net = FabricNetwork(
                seed=f"s1-cluster-{next(counter)}", orderer_operators=members
            )
            for org in members:
                net.onboard(org)
            net.create_channel("ch", list(members))
            net.deploy_chaincode("ch", put_contract(), ["Org1", "Org2"])
            for n in range(20):
                net.invoke("ch", "Org1", "cc", "put", {"key": f"k{n}", "value": n})
            net.network.crash_node("fabric-orderer@Org1")
            for n in range(20, 40):
                net.invoke("ch", "Org2", "cc", "put", {"key": f"k{n}", "value": n})
            return net

        net = benchmark(run_with_crash)
        orderer = net.orderer
        leader_log = orderer.logs[orderer.require_available()]
        assert len(leader_log) == 40
        # Every live replica holds the same committed log.
        live = [r for r in orderer.replicas if not net.network.is_crashed(r)]
        assert all(orderer.logs[r] == leader_log for r in live)
        # Visibility is multiplied across member operators, not removed.
        seen = {
            operator
            for operator, observer in zip(orderer.operators, orderer.observers())
            if observer.messages_observed
        }
        assert seen == set(members)


@pytest.mark.parametrize("skew", [0.0, 1.5])
def test_mvcc_conflict_rate_vs_contention(benchmark, skew):
    """Workload ablation: hot keys turn endorsement-time snapshots stale.

    Read-modify-write transactions over a Zipfian keyspace conflict far
    more often than over a uniform one — quantifying when the segregated-
    ledger design needs smaller batches or key-sharding.  Runs through
    the unified pipeline: one in-flight driver batch endorses every
    request against the same snapshot, exactly like the raw
    propose/submit_batch loop it replaced.
    """
    from repro.driver import Driver, DriverConfig
    from repro.platforms.base import TxRequest
    from repro.workloads import kv_update_stream

    def increment(view, args):
        view.put(args["key"], view.get(args["key"], 0) + args["value"])
        return view.get(args["key"])

    counter = itertools.count()

    def run_workload():
        net = FabricNetwork(seed=f"s1-contention-{skew}-{next(counter)}")
        for org in ("Org1", "Org2"):
            net.onboard(org)
        net.create_channel("ch", ["Org1", "Org2"])
        contract = SmartContract(
            "cc", 1, "python-chaincode", {"inc": increment}
        )
        net.deploy_chaincode("ch", contract, ["Org1", "Org2"])
        requests = [
            TxRequest(submitter=op.submitter, contract_id="cc",
                      function="inc", args={"key": op.key, "value": 1})
            for op in kv_update_stream(
                ["Org1", "Org2"], 30, key_count=16, skew=skew,
                seed=f"contention-{skew}",
            )
        ]
        report = Driver(net, DriverConfig(batch_size=len(requests))).run(
            requests
        )
        return report.failed / report.operations, net

    conflict_rate, net = benchmark(run_workload)
    assert net.channel("ch").replicas_consistent()
    if skew == 0.0:
        assert conflict_rate < 0.8
    else:
        # Hot keys: most same-snapshot increments of the same key conflict.
        assert conflict_rate > 0.3
