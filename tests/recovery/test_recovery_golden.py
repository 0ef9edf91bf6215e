"""Golden recovery: a seeded checkpoint/crash/restore script per platform
ends in pinned bytes.

The script runs a letter-of-credit lifecycle, checkpoints every node,
onboards ``LateCo``, crashes one lifecycle party, runs a side interaction
with ``LateCo`` (on Fabric on a channel created after the checkpoint,
the crashed node among its members) and the lifecycle stages that can
run without the crashed party, recovers it and finishes the lifecycle.
It then crashes and recovers ``LateCo``, which never checkpointed, and
checkpoints every node once more.

Each case pins

- the sha256 of every node's checkpoint ``history()`` as canonical
  bytes, in node order: what a checkpoint records, and what a restore
  starts from;
- the final ``state_fingerprint()`` (itself a hash);
- the sha256 of every network node's ``observer.knowledge()``: a
  catch-up request reveals nothing its sender's peers did not already
  know.

A change to how a node keeps, saves or restores its state must leave all
three alone.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict

import pytest

from repro.common.serialization import canonical_bytes
from repro.execution.contracts import SmartContract
from repro.ledger.validation import EndorsementPolicy
from repro.platforms.corda import Command, ContractState, CordaNetwork
from repro.platforms.fabric import FabricNetwork
from repro.platforms.quorum import QuorumNetwork
from repro.usecases.letter_of_credit import PARTIES, LetterOfCreditWorkflow

LATE = "LateCo"

#: platform -> (checkpoint history sha256, state fingerprint, knowledge sha256)
GOLDEN = {
    "corda": (
        "91894501488c424a51d7b3d79ef959a5287f9f16f5907fb0afaa108704c75a0c",
        "72f278e3bc6accd51c5d244303aada99a4d4bac0f279f8057edef9dd274d10a2",
        "b9dc43510d773850e268446b944169b018767003648879c80f308d4c7ff366d8",
    ),
    "fabric": (
        "dd94506e12383871bba16bd76b6f0d09f879b44665d5f5eba73fd1aa6f92d5b0",
        "f429cb69aa150ed3686532cb9ef33026de7bfaf70f67801bd9d564769340109f",
        "ba8f84a65643e82464a63a609323e27c945770d9127d0f9be4226981b4a9ce8f",
    ),
    "quorum": (
        "a65d6014ac57b6fbcb901fb835fa1121831768dc6da3887a323e02d9ad0f0cc7",
        "0bd5fdfb06c3401f4f705b1252d16e31be0d87566b3de19785dc5958d8755f20",
        "99580ce1c05a14095bb17334ab5e3df617c3a870c63dfcd3e6425dadb4a96619",
    ),
}


def _put(view, args):
    view.put(args["key"], args["value"])
    return args["value"]


def _fabric_side(net: FabricNetwork, crashed: str) -> None:
    net.create_channel("late-channel", ["IssuingBank", crashed, LATE])
    contract = SmartContract(
        contract_id="late-cc", version=1, language="python-chaincode",
        functions={"put": _put},
    )
    net.deploy_chaincode("late-channel", contract, ["IssuingBank"])
    for value in (1, 2):
        net.invoke(
            "late-channel", "IssuingBank", "late-cc", "put",
            {"key": "late/terms", "value": value},
        )


def _corda_side(net: CordaNetwork, crashed: str) -> None:
    net.register_contract("late-trade", lambda wire: None, language="kotlin")
    state = ContractState(
        contract_id="late-trade",
        participants=("SellerCo", LATE),
        data={"late/terms": 1},
    )
    wire = net.build_transaction(
        inputs=[], outputs=[state],
        commands=[Command(name="Trade", signers=("SellerCo", LATE))],
    )
    net.run_flow("SellerCo", wire)


def _quorum_side(net: QuorumNetwork, crashed: str) -> None:
    contract = SmartContract(
        contract_id="late-evm", version=1, language="evm-solidity",
        functions={"put": _put},
    )
    net.deploy_contract("IssuingBank", contract, private_for=[LATE])
    net.send_private_transaction(
        "IssuingBank", "late-evm", "put", {"key": "late/terms", "value": 1},
        private_for=[LATE],
    )


#: platform -> (network, crashed party, stages of the second lifecycle
#: run while it is down, side interaction, Fabric endorsement policy)
SCRIPTS = {
    "fabric": (
        FabricNetwork, "SellerCo", 2, _fabric_side,
        EndorsementPolicy.k_of(2, list(PARTIES)),
    ),
    "corda": (CordaNetwork, "BuyerCo", 0, _corda_side, None),
    "quorum": (QuorumNetwork, "SellerCo", 2, _quorum_side, None),
}


def run_script(platform_name: str):
    network, crashed, while_down, side, policy = SCRIPTS[platform_name]
    net = network(seed="recovery-golden", resilient_delivery=True)
    wf = LetterOfCreditWorkflow(net)
    wf.setup(extra_network_members=("OutsiderCo",), endorsement_policy=policy)

    def stages(loc_id):
        return [
            lambda: wf.apply_for_credit(loc_id, amount=50_000),
            lambda: wf.issue(loc_id),
            lambda: wf.ship(loc_id),
            lambda: wf.pay(loc_id),
        ]

    for stage in stages("LC-G-1"):
        stage()
    for name in sorted(net.parties):
        net.checkpoint_node(name)
    net.onboard(LATE)
    net.crash(crashed)
    side(net, crashed)
    second = stages("LC-G-2")
    for stage in second[:while_down]:
        stage()
    net.recover(crashed)
    for stage in second[while_down:]:
        stage()
    net.crash(LATE)
    net.recover(LATE)
    for name in sorted(net.parties):
        net.checkpoint_node(name)
    assert all(wf.status_of(loc, p) == "paid" for loc in ("LC-G-1", "LC-G-2")
               for p in PARTIES)
    return net


def pinned(net) -> tuple[str, str, str]:
    history = canonical_bytes([
        [asdict(checkpoint) for checkpoint in net.checkpoints.history(name)]
        for name in sorted(net.parties)
    ])
    network = net.network
    knowledge = canonical_bytes({
        name: network.node(name).observer.knowledge() for name in network.nodes()
    })
    return (
        hashlib.sha256(history).hexdigest(),
        net.state_fingerprint(),
        hashlib.sha256(knowledge).hexdigest(),
    )


@pytest.mark.parametrize("platform_name", sorted(GOLDEN))
def test_recovery_script_is_golden(platform_name):
    assert pinned(run_script(platform_name)) == GOLDEN[platform_name]
