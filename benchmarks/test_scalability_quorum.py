"""Experiment S3 — Quorum scalability (paper §3.4, per reference [5]).

Three measurements:

1. **Private vs public transaction cost**: private transactions add
   payload encryption and per-party distribution on top of the public
   path; reference [5] reports private throughput below public.
2. **Private fan-out**: the cost of a private transaction grows with the
   number of private-for parties (one encrypted copy each), while a
   public transaction's cost is independent of the recipient count.
3. **State divergence accounting**: how many nodes hold the private state
   vs replicate the public state, per party-count.
"""

from __future__ import annotations

import itertools

import pytest

from benchmarks.conftest import write_result
from repro.execution.contracts import SmartContract
from repro.platforms.quorum import QuorumNetwork

NETWORK_SIZE = 16


def store_contract():
    def put(view, args):
        view.put(args["key"], args["value"])
        return args["value"]

    return SmartContract("store", 1, "evm-solidity", {"put": put})


def fresh_network(seed: str, size: int = NETWORK_SIZE) -> QuorumNetwork:
    net = QuorumNetwork(seed=seed)
    for i in range(size):
        net.onboard(f"N{i}")
    net.deploy_contract("N0", store_contract())
    return net


@pytest.mark.parametrize("kind", ["public", "private"])
def test_transaction_cost(benchmark, kind):
    """Wall-clock cost per transaction, public vs private path.

    Submits through the unified pipeline: ``TxRequest.private_for``
    selects Quorum's private path, ``None`` the public one.
    """
    from repro.platforms.base import TxRequest

    net = fresh_network(f"s3-cost-{kind}")
    counter = itertools.count()

    def submit_tx():
        return net.submit(TxRequest(
            submitter="N0", contract_id="store", function="put",
            args={"key": f"k{next(counter)}", "value": 1},
            private_for=("N1", "N2", "N3") if kind == "private" else None,
        ))

    receipt = benchmark(submit_tx)
    assert receipt.committed
    assert receipt.info["kind"] == kind


@pytest.mark.parametrize("parties", [2, 4, 8, 15])
def test_private_fanout_cost(benchmark, parties):
    """Distribution work grows with the private-for party count."""
    net = fresh_network(f"s3-fanout-{parties}")
    recipients = [f"N{i}" for i in range(1, parties + 1)]
    counter = itertools.count()

    def private_tx():
        return net.send_private_transaction(
            "N0", "store", "put", {"key": f"k{next(counter)}", "value": 1},
            private_for=recipients,
        )

    result = benchmark(private_tx)
    assert len(result.participants) == parties + 1
    # Every participant's manager received an encrypted copy.
    for participant in result.participants:
        assert net.managers[participant].has_payload(result.payload_hash)
    # And nobody else did.
    outsiders = set(net.parties) - set(result.participants)
    for outsider in outsiders:
        assert not net.managers[outsider].has_payload(result.payload_hash)


def test_private_vs_public_series(benchmark):
    """The summary table [5]-style: who stores what, who learned what."""

    def build_series():
        rows = []
        for parties in (2, 4, 8, 15):
            net = fresh_network(f"s3-series-{parties}")
            recipients = [f"N{i}" for i in range(1, parties + 1)]
            before_msgs = net.network.stats.messages_sent
            net.send_private_transaction(
                "N0", "store", "put", {"key": "k", "value": 1},
                private_for=recipients,
            )
            private_msgs = net.network.stats.messages_sent - before_msgs
            holders = sum(
                1 for node in net.parties
                if net.private_states[node].exists("k")
            )
            before_msgs = net.network.stats.messages_sent
            net.send_public_transaction(
                "N0", "store", "put", {"key": "pub", "value": 1}
            )
            public_msgs = net.network.stats.messages_sent - before_msgs
            replicas = sum(
                1 for node in net.parties
                if net.public_states[node].exists("pub")
            )
            rows.append((parties + 1, holders, replicas, private_msgs, public_msgs))
        return rows

    rows = benchmark.pedantic(build_series, rounds=1, iterations=1)
    lines = [
        "S3: Quorum private vs public transactions (16-node network)",
        f"{'participants':>12s} {'private holders':>16s} "
        f"{'public replicas':>16s} {'priv msgs':>10s} {'pub msgs':>9s}",
    ]
    for participants, holders, replicas, priv_msgs, pub_msgs in rows:
        lines.append(
            f"{participants:>12d} {holders:>16d} {replicas:>16d} "
            f"{priv_msgs:>10d} {pub_msgs:>9d}"
        )
    write_result("s3_quorum_private_vs_public", "\n".join(lines))

    for participants, holders, replicas, __, __2 in rows:
        assert holders == participants       # private state only at parties
        assert replicas == NETWORK_SIZE      # public state everywhere
    # Private distribution cost grows with the party count (one encrypted
    # copy per recipient on top of the constant broadcast floor), while
    # the public path never grows with the recipient count.
    assert rows[-1][3] > rows[0][3]
    assert rows[-1][3] - rows[0][3] == rows[-1][0] - rows[0][0]
    assert rows[0][4] == rows[-1][4]


@pytest.mark.parametrize("batch_timeout", [0.2, 1.0])
def test_sequencer_batch_timeout_sets_block_interval(benchmark, batch_timeout):
    """A partial block is sealed once its oldest tx has aged batch_timeout.

    The synchronous submit paths force-cut their blocks; this measures the
    asynchronous regime where the sequencer accumulates a quiet channel.
    """
    from repro.ledger.ordering import OrdererProfile
    from repro.ledger.transaction import Transaction, WriteEntry

    counter = itertools.count()

    def seal_partial_block():
        net = fresh_network(f"s3-timeout-{batch_timeout}-{next(counter)}", size=4)
        net.sequencer.profile = OrdererProfile(
            capacity_tps=1000.0, max_batch_size=100,
            batch_timeout=batch_timeout,
        )
        net.sequencer.submit(Transaction(
            channel="quorum-public", submitter="N0",
            writes=(WriteEntry(key="k", value=1),),
        ))
        return net.sequencer.cut_batch("quorum-public").released_at

    released = benchmark(seal_partial_block)
    assert released == pytest.approx(batch_timeout + 1 / 1000.0)


def test_participant_leak_scales_with_network(benchmark):
    """The broadcast participant list reaches every node, however many."""

    def measure(size: int) -> int:
        net = fresh_network(f"s3-leak-{size}", size=size)
        net.send_private_transaction(
            "N0", "store", "put", {"key": "k", "value": 1}, private_for=["N1"]
        )
        return sum(
            1 for node in net.parties
            if {"N0", "N1"} <= net.network.node(node).observer.seen_identities
            and node not in ("N0", "N1")
        )

    leaked_nodes = benchmark.pedantic(measure, args=(12,), rounds=2, iterations=1)
    assert leaked_nodes == 10  # every uninvolved node learned the pairing
