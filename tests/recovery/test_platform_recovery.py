"""Per-platform crash/recover: checkpoints restore, catch-up is filtered."""

from __future__ import annotations

import pytest

from repro.common.errors import DeliveryError
from repro.execution.contracts import SmartContract
from repro.faults import FaultPlan
from repro.ledger.validation import EndorsementPolicy
from repro.platforms.corda import Command, ContractState, CordaNetwork
from repro.platforms.fabric import FabricNetwork
from repro.platforms.fabric.network import ORDERER_NODE
from repro.platforms.quorum import QuorumNetwork
from repro.platforms.quorum.network import SEQUENCER_NODE
from repro.recovery.convergence import audit_convergence

ORGS = ("OrgA", "OrgB", "OrgC")


def put_contract(cid="store", language="python-chaincode"):
    def put(view, args):
        view.put(args["key"], args["value"])
        return args["value"]

    return SmartContract(
        contract_id=cid, version=1, language=language, functions={"put": put}
    )


def catchup_shipped(net) -> float:
    counters = net.telemetry.metrics.snapshot()["counters"]
    return counters.get("recovery.catchup.shipped", 0)


# ---------------------------------------------------------------------------
# Fabric
# ---------------------------------------------------------------------------


@pytest.fixture
def fabric():
    net = FabricNetwork(seed="recovery-fabric", resilient_delivery=True)
    for org in ORGS:
        net.onboard(org)
    channel = net.create_channel("ch", list(ORGS))
    # 2-of-3 so business can continue while one member is crashed.
    net.deploy_chaincode(
        "ch", put_contract(), list(ORGS),
        policy=EndorsementPolicy.k_of(2, list(ORGS)),
    )
    return net, channel


class TestFabricRecovery:
    def test_recovered_replica_matches_peers(self, fabric):
        net, channel = fabric
        net.invoke("ch", "OrgA", "store", "put", {"key": "k1", "value": 1})
        net.checkpoint_node("OrgB")
        net.crash("OrgB")
        net.invoke(
            "ch", "OrgA", "store", "put", {"key": "k2", "value": 2},
            endorsers=["OrgA", "OrgC"],
        )
        assert channel.states["OrgB"].snapshot() == {}  # volatile state gone
        net.recover("OrgB")
        assert channel.states["OrgB"].dump() == channel.states["OrgA"].dump()

    def test_checkpoint_restores_without_reshipping_old_blocks(self, fabric):
        net, channel = fabric
        net.invoke("ch", "OrgA", "store", "put", {"key": "k1", "value": 1})
        net.checkpoint_node("OrgB")
        net.crash("OrgB")
        net.invoke(
            "ch", "OrgA", "store", "put", {"key": "k2", "value": 2},
            endorsers=["OrgA", "OrgC"],
        )
        before = net.telemetry.metrics.snapshot()["counters"].get(
            "recovery.catchup.items", 0
        )
        net.recover("OrgB")
        after = net.telemetry.metrics.snapshot()["counters"][
            "recovery.catchup.items"
        ]
        # Only the post-checkpoint delta travels: one block, one item.
        assert after - before == 1

    def test_recovery_without_checkpoint_rebuilds_from_genesis(self, fabric):
        net, channel = fabric
        net.invoke("ch", "OrgA", "store", "put", {"key": "k1", "value": 1})
        net.crash("OrgB")
        checkpoint = net.recover("OrgB")
        assert checkpoint is None
        assert channel.states["OrgB"].get("k1") == 1

    def test_recover_is_idempotent(self, fabric):
        net, _ = fabric
        net.invoke("ch", "OrgA", "store", "put", {"key": "k1", "value": 1})
        net.checkpoint_node("OrgB")
        net.crash("OrgB")
        net.crash("OrgB")  # double-crash is a no-op too
        first = net.recover("OrgB")
        second = net.recover("OrgB")
        assert first is not None and second is not None
        assert first.sequence == second.sequence
        counters = net.telemetry.metrics.snapshot()["counters"]
        assert counters["recovery.crashes"] == 1
        assert counters["recovery.recoveries"] == 1

    def test_checkpoint_after_a_lost_block_heals_on_recovery(self, fabric):
        """A member that lost a block in flight checkpoints only what it
        applied in commit order, so recovering from that checkpoint
        replays the gap and everything after it."""
        net, channel = fabric
        net.inject_faults(FaultPlan().set_link_loss(ORDERER_NODE, "OrgC", 1.0))
        net.invoke("ch", "OrgA", "store", "put", {"key": "k1", "value": 1})
        net.inject_faults(FaultPlan())
        net.invoke("ch", "OrgA", "store", "put", {"key": "k2", "value": 2})
        assert not channel.states["OrgC"].exists("k1")
        assert not channel.states["OrgC"].exists("k2")  # past the gap
        net.checkpoint_node("OrgC")
        net.crash("OrgC")
        net.recover("OrgC")
        assert channel.states["OrgC"].dump() == channel.states["OrgA"].dump()
        assert audit_convergence(net).converged

    def test_recover_of_a_level_live_node_ships_nothing(self, fabric):
        net, _ = fabric
        net.invoke("ch", "OrgA", "store", "put", {"key": "k1", "value": 1})
        before = net.state_fingerprint()
        net.recover("OrgB")
        assert catchup_shipped(net) == 0
        assert net.state_fingerprint() == before

    def test_node_still_down_is_left_untouched(self, fabric):
        """A node inside a fault-plan crash window is still down after
        ``recover``: nothing is shipped to it and its replica is kept."""
        net, channel = fabric
        net.inject_faults(FaultPlan().crash_node("OrgC", start=0.0, end=10.0))
        net.invoke(
            "ch", "OrgA", "store", "put", {"key": "k1", "value": 1},
            endorsers=["OrgA", "OrgB"],
        )
        assert not channel.states["OrgC"].exists("k1")
        assert net.recover("OrgC") is None
        assert catchup_shipped(net) == 0
        assert not channel.states["OrgC"].exists("k1")
        net.clock.advance_to(10.0)
        net.recover("OrgC")
        assert channel.states["OrgC"].get("k1") == 1

    def test_catchup_stays_inside_channel_membership(self, fabric):
        net, _ = fabric
        side = net.create_channel("side", ["OrgA", "OrgC"])
        net.deploy_chaincode("side", put_contract("side-cc"), ["OrgA", "OrgC"])
        net.checkpoint_node("OrgB")
        net.crash("OrgB")
        net.invoke("side", "OrgA", "side-cc", "put", {"key": "s", "value": 5})
        net.recover("OrgB")
        assert side.states.get("OrgB") is None
        assert "s" not in net.network.node("OrgB").observer.seen_data_keys


# ---------------------------------------------------------------------------
# Corda
# ---------------------------------------------------------------------------


@pytest.fixture
def corda():
    net = CordaNetwork(seed="recovery-corda", resilient_delivery=True)
    for org in ORGS:
        net.onboard(org)
    net.register_contract("deal", lambda wire: None, language="kotlin")
    return net


def corda_deal(net, parties, data):
    state = ContractState(contract_id="deal", participants=parties, data=data)
    wire = net.build_transaction(
        inputs=[], outputs=[state],
        commands=[Command(name="Deal", signers=parties)],
    )
    return net.run_flow(parties[0], wire), wire


class TestCordaRecovery:
    def test_entitled_transactions_reship_on_recovery(self, corda):
        """A crash wipes the vault; catch-up re-ships entitled history."""
        net = corda
        __, wire = corda_deal(net, ("OrgA", "OrgB"), {"amount": 10})
        net.checkpoint_node("OrgB")
        net.crash("OrgB")
        assert not net.vault("OrgB").knows_transaction(wire.tx_id)
        net.recover("OrgB")
        assert net.vault("OrgB").knows_transaction(wire.tx_id)

    def test_unentitled_transactions_never_reship(self, corda):
        net = corda
        net.checkpoint_node("OrgB")
        net.crash("OrgB")
        __, side = corda_deal(net, ("OrgA", "OrgC"), {"price": 99})
        net.recover("OrgB")
        assert not net.vault("OrgB").knows_transaction(side.tx_id)
        assert "price" not in net.network.node("OrgB").observer.seen_data_keys

    def test_unconsumed_states_rebuilt_after_catchup(self, corda):
        net = corda
        result, __ = corda_deal(net, ("OrgA", "OrgB"), {"amount": 10})
        ref = result.output_refs[0]
        net.checkpoint_node("OrgB")
        net.crash("OrgB")
        assert ref not in net.vault("OrgB").unconsumed
        net.recover("OrgB")
        assert ref in net.vault("OrgB").unconsumed

    def test_recover_of_a_level_live_node_ships_nothing(self, corda):
        net = corda
        corda_deal(net, ("OrgA", "OrgB"), {"amount": 10})
        before = net.state_fingerprint()
        net.recover("OrgB")
        assert catchup_shipped(net) == 0
        assert net.state_fingerprint() == before

    def test_recovery_survives_no_live_provider(self, corda):
        net = corda
        corda_deal(net, ("OrgA", "OrgB"), {"amount": 10})
        net.crash("OrgB")
        net.crash("OrgA")
        net.crash("OrgC")
        net.recover("OrgB")  # nobody to catch up from; no crash, no data
        assert net.vault("OrgB").transactions == {}
        net.recover("OrgA")
        net.recover("OrgC")


# ---------------------------------------------------------------------------
# Quorum
# ---------------------------------------------------------------------------


@pytest.fixture
def quorum():
    net = QuorumNetwork(seed="recovery-quorum", resilient_delivery=True)
    for org in ORGS:
        net.onboard(org)
    net.deploy_contract("OrgA", put_contract("evm", language="evm-solidity"))
    return net


class TestQuorumRecovery:
    def test_catchup_lost_in_flight_is_not_applied(self, quorum):
        """A catch-up item that never arrives must not change the node:
        it stays behind, the audit flags it, and a later catch-up over
        a healthy network brings it level."""
        net = quorum
        net.crash("OrgC")
        net.send_public_transaction("OrgA", "evm", "put", {"key": "p", "value": 1})
        plan = FaultPlan()
        for peer in ("OrgA", "OrgB"):
            plan.set_link_loss(peer, "OrgC", 1.0)
        net.inject_faults(plan)
        net.recover("OrgC")
        counters = net.telemetry.metrics.snapshot()["counters"]
        assert counters["recovery.catchup.failed"] >= 1
        assert counters.get("recovery.catchup.items", 0) == 0
        assert not net.public_states["OrgC"].exists("p")
        report = audit_convergence(net)
        assert "OrgC" in {n for d in report.divergences for n in d.nodes}

        net.inject_faults(FaultPlan())
        net.crash("OrgC")
        net.recover("OrgC")
        assert net.public_states["OrgC"].get("p") == 1
        assert audit_convergence(net).converged

    def test_checkpoint_after_a_lost_transaction_heals_on_recovery(self, quorum):
        """A node that lost a transaction in flight stays at the height
        before the gap: it refuses to send on stale state, checkpoints
        that height, and recovering from it replays the rest."""
        net = quorum
        net.inject_faults(FaultPlan().set_link_loss(SEQUENCER_NODE, "OrgC", 1.0))
        net.send_public_transaction("OrgA", "evm", "put", {"key": "p", "value": 1})
        net.inject_faults(FaultPlan())
        net.send_public_transaction("OrgB", "evm", "put", {"key": "q", "value": 2})
        assert not net.public_states["OrgC"].exists("p")
        assert not net.public_states["OrgC"].exists("q")  # past the gap
        with pytest.raises(DeliveryError, match="behind"):
            net.send_public_transaction("OrgC", "evm", "put", {"key": "r", "value": 3})
        assert net.checkpoint_node("OrgC").height_of("public") == 0
        net.crash("OrgC")
        net.recover("OrgC")
        assert net.public_states["OrgC"].dump() == net.public_states["OrgA"].dump()
        assert audit_convergence(net).converged

    def test_public_chain_replays_to_recovered_node(self, quorum):
        net = quorum
        net.send_public_transaction("OrgA", "evm", "put", {"key": "p", "value": 1})
        net.checkpoint_node("OrgB")
        net.crash("OrgB")
        net.send_public_transaction("OrgA", "evm", "put", {"key": "q", "value": 2})
        net.recover("OrgB")
        assert net.public_states["OrgB"].get("q") == 2
        assert net.public_states["OrgB"].dump() == net.public_states["OrgA"].dump()

    def test_entitled_private_payload_restored(self, quorum):
        net = quorum
        net.checkpoint_node("OrgB")
        net.crash("OrgB")
        result = net.send_private_transaction(
            "OrgA", "evm", "put", {"key": "s1", "value": 7}, private_for=["OrgB"]
        )
        net.recover("OrgB")
        assert net.private_states["OrgB"].get("s1") == 7
        assert net.managers["OrgB"].has_payload(result.payload_hash)
        assert net.verify_private_state("OrgB")

    def test_unentitled_private_payload_withheld(self, quorum):
        net = quorum
        net.checkpoint_node("OrgB")
        net.crash("OrgB")
        result = net.send_private_transaction(
            "OrgA", "evm", "put", {"key": "s2", "value": 8}, private_for=["OrgC"]
        )
        net.recover("OrgB")
        assert not net.private_states["OrgB"].exists("s2")
        assert not net.managers["OrgB"].has_payload(result.payload_hash)

    def test_recover_of_a_level_live_node_ships_nothing(self, quorum):
        net = quorum
        net.send_public_transaction("OrgA", "evm", "put", {"key": "p", "value": 1})
        net.send_private_transaction(
            "OrgA", "evm", "put", {"key": "s", "value": 2}, private_for=["OrgB"]
        )
        before = net.state_fingerprint()
        net.recover("OrgB")
        assert catchup_shipped(net) == 0
        assert net.state_fingerprint() == before

    def test_catchup_is_position_idempotent(self, quorum):
        net = quorum
        net.send_private_transaction(
            "OrgA", "evm", "put", {"key": "s3", "value": 1}, private_for=["OrgB"]
        )
        net.checkpoint_node("OrgB")
        net.crash("OrgB")
        net.recover("OrgB")
        net.recover("OrgB")  # replaying catch-up must not double-apply
        assert net.private_states["OrgB"].get("s3") == 1
        assert net.verify_private_state("OrgB")


# ---------------------------------------------------------------------------
# Catch-up parity: a re-sent entry exposes what its live delivery did
# ---------------------------------------------------------------------------


def knowledge(net, name) -> tuple[set, set, set]:
    observer = net.network.node(name).observer
    return (
        set(observer.seen_identities),
        set(observer.seen_data_keys),
        set(observer.seen_code_ids),
    )


def assert_catch_up_parity(
    net, live_peer, lagging, lost_link, send, arm=None
) -> None:
    """Lose one delivery to *lagging* on *lost_link*, heal it with
    ``recover``, and compare what it learned with *live_peer*.  *arm*
    opens the loss given its plan builder (default: before *send*, so
    *lagging* learns nothing from the send)."""
    before = {name: knowledge(net, name) for name in (live_peer, lagging)}

    def loss(at):
        return FaultPlan().set_link_loss(*lost_link, 1.0)

    if arm is None:
        net.inject_faults(loss(net.clock.now))
    else:
        arm(loss)
    send()
    net.inject_faults(FaultPlan())
    if arm is None:
        assert knowledge(net, lagging) == before[lagging]  # it missed the entry
    behind = {node for d in audit_convergence(net).divergences for node in d.nodes}
    assert lagging in behind
    net.recover(lagging)
    live = [
        after - earlier
        for earlier, after in zip(before[live_peer], knowledge(net, live_peer))
    ]
    caught_up = [
        after - earlier
        for earlier, after in zip(before[lagging], knowledge(net, lagging))
    ]
    assert any(live)  # the entry exposed something
    assert caught_up == live
    assert audit_convergence(net).converged


class TestCatchUpParity:
    """A node that missed one delivery and ran ``recover`` holds the same
    identities, data keys and code ids for that entry as a peer that
    received it live."""

    def test_fabric_block(self):
        net = FabricNetwork(seed="parity-fabric")
        orgs = [*ORGS, "OrgD"]
        for org in orgs:
            net.onboard(org)
        net.create_channel("ch", orgs)
        net.deploy_chaincode(
            "ch", put_contract(), orgs, policy=EndorsementPolicy.k_of(2, orgs)
        )
        assert_catch_up_parity(
            net, "OrgC", "OrgD", (ORDERER_NODE, "OrgD"),
            lambda: net.invoke(
                "ch", "OrgA", "store", "put", {"key": "k", "value": 1},
                endorsers=["OrgA", "OrgB"],
            ),
        )

    def test_corda_finalise(self, corda, fault_after):
        # OrgC signs on the flow's proposal; the link fails once OrgA holds
        # the notary's answer, so only ``finalise`` is lost.
        assert_catch_up_parity(
            corda, "OrgB", "OrgC", ("OrgA", "OrgC"),
            lambda: corda_deal(corda, ("OrgA", "OrgB", "OrgC"), {"amount": 10}),
            arm=lambda loss: fault_after(corda, "OrgA", "notarised", loss),
        )

    def test_quorum_public_tx(self, quorum):
        def read_then_put(view, args):
            view.get("r")
            view.put("k", args["value"])

        quorum.deploy_contract("OrgA", SmartContract(
            contract_id="kv", version=1, language="evm-solidity",
            functions={"put": read_then_put},
        ))
        assert_catch_up_parity(
            quorum, "OrgB", "OrgC", (SEQUENCER_NODE, "OrgC"),
            lambda: quorum.send_public_transaction("OrgA", "kv", "put", {"value": 1}),
        )
        assert knowledge(quorum, "OrgC")[1:] == ({"k", "r"}, {"kv"})

    def test_quorum_private_tx_to_a_non_participant(self, quorum):
        assert_catch_up_parity(
            quorum, "OrgB", "OrgC", (SEQUENCER_NODE, "OrgC"),
            lambda: quorum.send_private_transaction(
                "OrgA", "evm", "put", {"key": "s", "value": 2},
                private_for=["OrgB"],
            ),
        )
