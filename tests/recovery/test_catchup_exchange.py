"""Catch-up is one request/answer exchange per provider.

A lagging node asks with a ``catchup-request`` built from its own state;
the provider answers with one kept ``catchup`` reply.  A lost answer is
asked for again and the kept answer re-sent, the request reveals nothing
to the provider, and a node asks providers in rank order until it lacks
nothing.
"""

from __future__ import annotations

import pytest

from repro.execution.contracts import SmartContract
from repro.faults import FaultPlan
from repro.ledger.validation import EndorsementPolicy
from repro.platforms.corda import Command, ContractState, CordaNetwork
from repro.platforms.fabric import FabricNetwork
from repro.platforms.quorum import QuorumNetwork
from repro.recovery.convergence import audit_convergence

ORGS = ("OrgA", "OrgB", "OrgC")


def put_contract(cid: str, language: str) -> SmartContract:
    def put(view, args):
        view.put(args["key"], args["value"])
        return args["value"]

    return SmartContract(
        contract_id=cid, version=1, language=language, functions={"put": put}
    )


def counters(net) -> dict:
    return net.telemetry.metrics.snapshot()["counters"]


def watch(net, node: str, kind: str) -> list:
    """Every *kind* message that reaches *node*'s handlers."""
    arrived = []
    net.network.node(node).on(kind, arrived.append)
    return arrived


def fabric_behind(behind: int = 3) -> FabricNetwork:
    """OrgB crashed while *behind* transactions committed without it."""
    net = FabricNetwork(seed="catchup-exchange", resilient_delivery=True)
    for org in ORGS:
        net.onboard(org)
    net.create_channel("ch", list(ORGS))
    net.deploy_chaincode(
        "ch", put_contract("store", "python-chaincode"), list(ORGS),
        policy=EndorsementPolicy.k_of(2, list(ORGS)),
    )
    net.crash("OrgB")
    for n in range(behind):
        net.invoke(
            "ch", "OrgA", "store", "put", {"key": f"k{n}", "value": n},
            endorsers=["OrgA", "OrgC"],
        )
    return net


def corda_behind() -> CordaNetwork:
    net = CordaNetwork(seed="catchup-exchange", resilient_delivery=True)
    for org in ORGS:
        net.onboard(org)
    net.register_contract("deal", lambda wire: None, language="kotlin")
    parties = ("OrgA", "OrgB")
    wire = net.build_transaction(
        inputs=[],
        outputs=[ContractState(contract_id="deal", participants=parties,
                               data={"amount": 10})],
        commands=[Command(name="Deal", signers=parties)],
    )
    net.run_flow("OrgA", wire)
    net.crash("OrgB")
    return net


def quorum_behind() -> QuorumNetwork:
    net = QuorumNetwork(seed="catchup-exchange", resilient_delivery=True)
    for org in ORGS:
        net.onboard(org)
    net.deploy_contract("OrgA", put_contract("evm", "evm-solidity"))
    net.crash("OrgB")
    net.send_public_transaction("OrgA", "evm", "put", {"key": "p", "value": 1})
    net.send_private_transaction(
        "OrgA", "evm", "put", {"key": "s", "value": 2}, private_for=["OrgB"]
    )
    return net


class TestLostAnswer:
    def test_kept_answer_is_resent_and_applies_once(self, fault_after):
        net = fabric_behind(3)
        channel = net.channel("ch")
        requests = watch(net, "OrgA", "catchup-request")
        answers = watch(net, "OrgB", "catchup")
        validated = counters(net).get("fabric.validation{code=VALID}", 0)
        observed = net.network.node("OrgB").observer.messages_observed
        # Cut the link once OrgA answered, so its answer is lost in flight.
        fault_after(
            net, "OrgA", "catchup-request",
            lambda at: FaultPlan().partition_between(
                "OrgA", "OrgB", start=at + 0.001, end=at + 0.1
            ),
        )
        net.recover("OrgB")
        after = counters(net)
        assert net.network.stats.dropped_by_partition == 1
        # The provider decided once; the request asked again was
        # deduplicated and answered from what the provider kept.
        assert len(requests) == 1
        assert net.network.stats.deduplicated == 1
        assert len(answers) == 1
        # The answer is observed once, not once more per item it carries.
        assert net.network.node("OrgB").observer.messages_observed == observed + 1
        assert after["fabric.validation{code=VALID}"] - validated == 3
        assert after["recovery.catchup.items"] == 3
        assert after["recovery.catchup.shipped"] == 3
        assert "recovery.catchup.failed" not in after
        assert net.replicas["OrgB"].heights["ch"] == 3
        assert channel.state_of("OrgB").dump() == channel.state_of("OrgA").dump()
        assert audit_convergence(net).converged

    def test_answer_lost_every_time_fails_the_exchange(self):
        net = fabric_behind(1)
        net.inject_faults(FaultPlan().set_link_loss("OrgA", "OrgB", 1.0))
        net.recover("OrgB")
        after = counters(net)
        # OrgA's answers never arrive; OrgC, asked next, brings it level.
        assert after["recovery.catchup.failed"] == 1
        assert after["recovery.catchup.items"] == 1
        assert net.replicas["OrgB"].heights["ch"] == 1


@pytest.mark.parametrize("build", [fabric_behind, corda_behind, quorum_behind])
def test_request_reveals_nothing_to_its_provider(build):
    net = build()
    provider = net.network.node("OrgA").observer
    before = provider.knowledge()
    requests = watch(net, "OrgA", "catchup-request")
    net.recover("OrgB")
    after = provider.knowledge()
    assert requests
    assert after["messages_observed"] == before["messages_observed"] + len(requests)
    for field in ("identities", "data_keys", "code_ids"):
        assert after[field] == before[field]


def test_quorum_payload_held_only_by_the_second_provider():
    net = QuorumNetwork(seed="catchup-exchange", resilient_delivery=True)
    for node in ("N1", "N2", "N3"):
        net.onboard(node)
    net.deploy_contract("N1", put_contract("evm", "evm-solidity"))
    net.crash("N3")
    net.send_public_transaction("N1", "evm", "put", {"key": "p", "value": 1})
    result = net.send_private_transaction(
        "N2", "evm", "put", {"key": "s", "value": 2}, private_for=["N3"]
    )
    assert not net.replicas["N1"].manager.has_payload(result.payload_hash)
    answers = watch(net, "N3", "catchup")
    net.recover("N3")
    # N1 serves the chain up to the transaction whose payload it lacks;
    # N2 serves that payload and the rest.
    assert [(m.sender, [kind for kind, __ in m.payload]) for m in answers] == [
        ("N1", ["public-tx"]),
        ("N2", ["private-payload", "private-tx"]),
    ]
    after = counters(net)
    assert after["recovery.redelivered"] == 1
    assert after["recovery.catchup.items"] == 3
    assert net.private_states["N3"].get("s") == 2
    assert net.verify_private_state("N3")
    assert audit_convergence(net).converged
