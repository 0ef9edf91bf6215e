"""Experiment S2 — Corda scalability (paper §3.4, per reference [14]).

Three measurements:

1. **Flow cost vs counterparties**: p2p message count grows linearly with
   the participant set and is *independent of total network size* — the
   defining property of per-transaction segregation.
2. **Tear-off wire size vs transaction size**: a filtered transaction for
   the notary stays near-constant while the full transaction grows.
3. **Notary mode**: validating vs non-validating throughput and knowledge.
"""

from __future__ import annotations

import itertools

import pytest

from benchmarks.conftest import write_result
from repro.common.serialization import canonical_bytes
from repro.platforms.corda import (
    Command,
    ComponentGroup,
    ContractState,
    CordaNetwork,
)


def fresh_network(seed: str, extra_orgs: int = 0, validating: bool = False):
    net = CordaNetwork(seed=seed, validating_notary=validating)
    for i in range(extra_orgs):
        net.onboard(f"Bystander{i}")
    net.register_contract("deal", lambda wire: None)
    return net


def run_deal(net, participants, tag=0, extra_data=None):
    state = ContractState(
        contract_id="deal", participants=tuple(participants),
        data={"tag": tag, **(extra_data or {})},
    )
    wire = net.build_transaction(
        inputs=[], outputs=[state],
        commands=[Command(name="Deal", signers=tuple(participants))],
    )
    return net.run_flow(participants[0], wire)


@pytest.mark.parametrize("counterparties", [2, 4, 8])
def test_flow_messages_grow_with_participants(benchmark, counterparties):
    net = fresh_network(f"s2-fanout-{counterparties}")
    participants = [f"Party{i}" for i in range(counterparties)]
    for party in participants:
        net.onboard(party)
    counter = itertools.count()

    def flow():
        before = net.network.stats.messages_sent
        run_deal(net, participants, tag=next(counter))
        return net.network.stats.messages_sent - before

    messages = benchmark(flow)
    # Per counterparty: the proposal, its signature reply and finalise;
    # then the notary request and the notary's answer.
    assert messages == 3 * (counterparties - 1) + 2


def test_flow_cost_independent_of_network_size(benchmark):
    """Adding 50 bystander orgs changes nothing about a 2-party flow."""

    def measure(extra_orgs: int) -> int:
        net = fresh_network(f"s2-netsize-{extra_orgs}", extra_orgs=extra_orgs)
        net.onboard("Alice")
        net.onboard("Bob")
        before = net.network.stats.messages_sent
        run_deal(net, ["Alice", "Bob"])
        return net.network.stats.messages_sent - before

    small = measure(0)
    large = benchmark.pedantic(measure, args=(50,), rounds=3, iterations=1)
    assert small == large
    write_result(
        "s2_corda_network_independence",
        "S2: messages for a 2-party flow\n"
        f"  2-org network:  {small}\n"
        f"  52-org network: {large}\n"
        "  (identical: per-transaction segregation does not broadcast)",
    )


@pytest.mark.parametrize("fields", [2, 8, 32, 128])
def test_tearoff_size_vs_transaction_size(benchmark, fields):
    """The notary's filtered view stays ~flat as the transaction grows."""
    net = fresh_network(f"s2-tearoff-{fields}")
    net.onboard("Alice")
    net.onboard("Bob")
    extra = {f"field{i}": "v" * 64 for i in range(fields)}
    state = ContractState(
        contract_id="deal", participants=("Alice", "Bob"),
        data=extra,
    )
    wire = net.build_transaction(
        inputs=[], outputs=[state],
        commands=[Command(name="Deal", signers=("Alice", "Bob"))],
    )

    filtered = benchmark(
        wire.filtered, [ComponentGroup.INPUTS, ComponentGroup.NOTARY]
    )
    assert filtered.verify()
    full_size = len(canonical_bytes(
        [c for c in wire._components()]
    ))
    tear_size = filtered.tear_off.wire_size()
    # Full transaction grows with the payload; the tear-off does not carry
    # the hidden output, so it is much smaller for non-trivial payloads.
    if fields >= 8:
        assert tear_size < full_size / 2


def test_tearoff_series(benchmark):
    def build_series():
        rows = []
        for fields in (2, 8, 32, 128):
            net = fresh_network(f"s2-series-{fields}")
            net.onboard("Alice")
            net.onboard("Bob")
            state = ContractState(
                contract_id="deal", participants=("Alice", "Bob"),
                data={f"field{i}": "v" * 64 for i in range(fields)},
            )
            wire = net.build_transaction(
                inputs=[], outputs=[state],
                commands=[Command(name="Deal", signers=("Alice", "Bob"))],
            )
            filtered = wire.filtered(
                [ComponentGroup.INPUTS, ComponentGroup.NOTARY]
            )
            rows.append((
                fields,
                len(canonical_bytes([c for c in wire._components()])),
                filtered.tear_off.wire_size(),
            ))
        return rows

    rows = benchmark.pedantic(build_series, rounds=1, iterations=1)
    lines = ["S2: full transaction vs notary tear-off size (bytes)",
             f"{'fields':>8s} {'full tx':>10s} {'tear-off':>10s}"]
    for fields, full, tear in rows:
        lines.append(f"{fields:>8d} {full:>10d} {tear:>10d}")
    write_result("s2_corda_tearoff", "\n".join(lines))
    # Shape: full grows ~linearly, tear-off grows far slower.
    assert rows[-1][1] > rows[0][1] * 10
    assert rows[-1][2] < rows[-1][1] / 2


@pytest.mark.parametrize("validating", [False, True],
                         ids=["non-validating", "validating"])
def test_notary_modes(benchmark, validating):
    """Both modes notarise; only the validating one learns anything."""
    net = fresh_network(f"s2-notary-{validating}", validating=validating)
    net.onboard("Alice")
    net.onboard("Bob")
    counter = itertools.count()

    def flow():
        return run_deal(net, ["Alice", "Bob"], tag=next(counter))

    result = benchmark(flow)
    assert result.receipt.notary == net.notary.name
    knowledge = net.notary.knowledge()
    if validating:
        assert "Alice" in knowledge["identities"]
    else:
        assert knowledge["identities"] == []
        assert knowledge["data_keys"] == []


@pytest.mark.parametrize("batch_timeout", [0.25, 1.0])
def test_per_tx_notarisation_avoids_batch_timeout_floor(benchmark, batch_timeout):
    """Corda notarises per transaction; batching orderers pay the timeout.

    The same lone transaction through a Fabric/Quorum-style batching
    ordering service waits out ``batch_timeout`` before release, while the
    notary acks immediately — the latency side of §3.4's ordering choice.
    """
    from repro.common.clock import SimClock
    from repro.ledger.ordering import OrdererProfile, OrderingService
    from repro.ledger.transaction import Transaction, WriteEntry

    clock = SimClock()
    orderer = OrderingService(
        "batching", clock,
        profile=OrdererProfile(
            capacity_tps=1000.0, max_batch_size=100,
            batch_timeout=batch_timeout,
        ),
    )
    orderer.submit(Transaction(
        channel="ch", submitter="Alice",
        writes=(WriteEntry(key="k", value=1),),
    ))
    batching_release = orderer.cut_batch("ch").released_at
    assert batching_release >= batch_timeout

    net = fresh_network(f"s2-timeout-{batch_timeout}")
    net.onboard("Alice")
    net.onboard("Bob")
    counter = itertools.count()

    def flow():
        before = net.clock.now
        result = run_deal(net, ["Alice", "Bob"], tag=next(counter))
        return result, net.clock.now - before

    result, notary_wait = benchmark(flow)
    assert result.receipt is not None
    # The notary never holds a transaction back to fill a batch.
    assert notary_wait < batching_release


@pytest.mark.parametrize("hops", [1, 4, 16])
def test_backchain_disclosure_grows_with_history(benchmark, hops):
    """Ablation: transaction resolution reveals a state's whole lineage.

    The S2 privacy cost one-time keys mitigate: the deeper the asset's
    history, the more historical transactions (and identities) the newest
    owner learns.
    """
    from repro.platforms.corda import collect_backchain, disclosure_of
    from repro.platforms.corda.states import ContractState

    net = fresh_network(f"s2-backchain-{hops}")
    parties = [f"Holder{i}" for i in range(hops + 2)]
    for party in parties:
        net.onboard(party)
    result = run_deal(net, parties[:2], tag=0)
    ref = result.output_refs[0]
    for hop in range(hops):
        seller, buyer = parties[hop + 0], parties[hop + 1]
        state = ContractState(
            contract_id="deal", participants=(seller, buyer),
            data={"hop": hop},
        )
        wire = net.build_transaction(
            inputs=[ref], outputs=[state],
            commands=[Command(name="Move", signers=(seller, buyer))],
        )
        result = net.run_flow(seller, wire)
        ref = result.output_refs[0]
    final_holder = parties[hops]

    def resolve():
        return disclosure_of(
            collect_backchain(net.vault(final_holder), ref.tx_id)
        )

    disclosure = benchmark(resolve)
    assert disclosure.depth == hops + 1
    # Every historical holder's identity is revealed to the final owner.
    assert len(disclosure.identities) >= min(hops + 1, len(parties) - 1)
