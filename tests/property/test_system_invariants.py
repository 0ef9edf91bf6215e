"""Property-based tests over system-level invariants.

Hypothesis drives random operation sequences against the ledger, the
platforms, and the decision engine, asserting the invariants the paper's
analysis rests on: chains stay verifiable, replicas never diverge,
privacy boundaries hold for every workload, and the decision tree is
monotone in its dominant constraints.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decision import decide_data_confidentiality
from repro.core.mechanisms import Mechanism, info
from repro.core.requirements import DataClassRequirements
from repro.execution.contracts import SmartContract
from repro.ledger.block import Chain
from repro.ledger.transaction import Transaction, WriteEntry
from repro.platforms.fabric import FabricNetwork
from repro.platforms.quorum import QuorumNetwork


# ---------------------------------------------------------------------------
# Chain invariants
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.lists(
    st.lists(
        st.tuples(st.sampled_from("abc"), st.integers(0, 100)),
        min_size=1, max_size=4,
    ),
    min_size=1, max_size=10,
))
def test_chain_always_verifies_after_any_append_sequence(blocks):
    chain = Chain("prop")
    for index, writes in enumerate(blocks):
        txs = [
            Transaction(
                channel="prop", submitter=f"s{index}",
                writes=tuple(WriteEntry(key=k, value=v) for k, v in writes),
                timestamp=float(index),
            )
        ]
        chain.append(txs, timestamp=float(index))
    chain.verify()
    assert chain.height == len(blocks)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=3, max_value=10),
    st.integers(min_value=2, max_value=8),
)
def test_pruned_chain_preserves_all_transactions(total_blocks, prune_at):
    if prune_at >= total_blocks:
        prune_at = total_blocks - 1
    chain = Chain("prop")
    for n in range(total_blocks):
        chain.append(
            [Transaction(channel="prop", submitter=f"s{n}", timestamp=float(n))],
            timestamp=float(n),
        )
    chain.prune_below(prune_at + 1)
    chain.verify()
    live = len(chain.transactions())
    archived = sum(len(b.transactions) for b in chain.archived_blocks())
    assert live + archived == total_blocks


# ---------------------------------------------------------------------------
# Fabric invariants
# ---------------------------------------------------------------------------


def _fabric_with_channel(seed: str) -> FabricNetwork:
    net = FabricNetwork(seed=seed)
    for org in ("Org1", "Org2", "Outsider"):
        net.onboard(org)
    net.create_channel("ch", ["Org1", "Org2"])

    def put(view, args):
        view.put(args["key"], args["value"])
        return args["value"]

    contract = SmartContract("cc", 1, "python-chaincode", {"put": put})
    net.deploy_chaincode("ch", contract, ["Org1", "Org2"])
    return net


@settings(max_examples=10, deadline=None)
@given(st.lists(
    st.tuples(
        st.sampled_from(["Org1", "Org2"]),
        st.sampled_from(["k1", "k2", "k3"]),
        st.integers(0, 1000),
    ),
    min_size=1, max_size=8,
))
def test_fabric_replicas_never_diverge(operations):
    net = _fabric_with_channel(f"prop-{hash(tuple(operations)) & 0xffff}")
    for submitter, key, value in operations:
        net.invoke("ch", submitter, "cc", "put", {"key": key, "value": value})
    channel = net.channel("ch")
    assert channel.replicas_consistent()
    channel.chain.verify()
    # Last-writer-wins on each key across both replicas.
    last = {}
    for submitter, key, value in operations:
        last[key] = value
    for key, value in last.items():
        assert channel.reference_state().get(key) == value


@settings(max_examples=10, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from(["k1", "k2"]), st.integers(0, 100)),
    min_size=1, max_size=6,
))
def test_fabric_outsider_never_learns_channel_data(operations):
    net = _fabric_with_channel(f"prop-priv-{hash(tuple(operations)) & 0xffff}")
    for key, value in operations:
        net.invoke("ch", "Org1", "cc", "put", {"key": key, "value": value})
    outsider = net.network.node("Outsider").observer
    assert outsider.seen_data_keys == set()
    assert not ({"Org1", "Org2"} & outsider.seen_identities)


# ---------------------------------------------------------------------------
# Quorum invariants
# ---------------------------------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(st.lists(
    st.tuples(
        st.sampled_from(["N2", "N3"]),
        st.sampled_from(["k1", "k2"]),
        st.integers(0, 100),
    ),
    min_size=1, max_size=6,
))
def test_quorum_private_state_always_replayable(operations):
    net = QuorumNetwork(seed=f"prop-q-{hash(tuple(operations)) & 0xffff}")
    for node in ("N1", "N2", "N3"):
        net.onboard(node)

    def put(view, args):
        view.put(args["key"], args["value"])
        return args["value"]

    net.deploy_contract(
        "N1", SmartContract("s", 1, "evm-solidity", {"put": put})
    )
    for recipient, key, value in operations:
        net.send_private_transaction(
            "N1", "s", "put", {"key": key, "value": value},
            private_for=[recipient],
        )
    for node in ("N1", "N2", "N3"):
        assert net.verify_private_state(node)
    net.chain.verify()


# ---------------------------------------------------------------------------
# Decision-tree metamorphic properties
# ---------------------------------------------------------------------------


_flag_strategy = st.fixed_dictionaries({
    "private_from_counterparties": st.booleans(),
    "encrypted_sharing_allowed": st.booleans(),
    "onchain_record_desired": st.booleans(),
    "partial_visibility_within_transaction": st.booleans(),
    "uninvolved_validation_required": st.booleans(),
})


@settings(max_examples=50, deadline=None)
@given(_flag_strategy)
def test_deletion_always_dominates(flags):
    """Adding deletion_required to ANY input forces the off-chain terminal."""
    rec = decide_data_confidentiality(
        DataClassRequirements(name="p", deletion_required=True, **flags)
    )
    assert rec.primary is Mechanism.OFF_CHAIN_PEER_DATA


@settings(max_examples=50, deadline=None)
@given(_flag_strategy)
def test_primary_always_belongs_to_transactions_or_logic_category(flags):
    rec = decide_data_confidentiality(
        DataClassRequirements(name="p", **flags)
    )
    assert info(rec.primary).category.value in ("transactions", "logic")


@settings(max_examples=50, deadline=None)
@given(_flag_strategy)
def test_tearoffs_only_ever_supplement_segregation(flags):
    rec = decide_data_confidentiality(
        DataClassRequirements(name="p", **flags)
    )
    if Mechanism.MERKLE_TEAR_OFFS in rec.supplementary:
        assert rec.primary is Mechanism.SEPARATION_OF_LEDGERS_DATA


@settings(max_examples=50, deadline=None)
@given(_flag_strategy, st.booleans())
def test_shared_function_flag_only_matters_with_private_inputs(flags, shared):
    if not flags["private_from_counterparties"]:
        return
    rec = decide_data_confidentiality(DataClassRequirements(
        name="p", shared_function_on_private_inputs=shared, **flags
    ))
    expected = (
        Mechanism.MULTIPARTY_COMPUTATION if shared else Mechanism.ZKP_ON_DATA
    )
    assert rec.primary is expected
