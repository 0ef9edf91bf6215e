"""Resilient private-payload delivery: an unreachable participant heals
through ``recover``.

Default mode keeps the fail-fast refusal (no state moves before every
recipient is reachable); resilient mode lets the transaction proceed for
the reachable participants, and a participant left behind is re-served
its payload by ``recover``, with entitlement re-checked by the holding
manager.
"""

from __future__ import annotations

import pytest

from repro.common.errors import DeliveryError, PrivacyError
from repro.execution.contracts import SmartContract
from repro.platforms.quorum import QuorumNetwork
from repro.recovery.convergence import audit_convergence

ORGS = ("N1", "N2", "N3")


def store_cc(cid="store"):
    def put(view, args):
        view.put(args["key"], args["value"])
        return args["value"]

    return SmartContract(
        contract_id=cid, version=1, language="evm-solidity",
        functions={"put": put},
    )


def catchup_shipped(net) -> float:
    counters = net.telemetry.metrics.snapshot()["counters"]
    return counters.get("recovery.catchup.shipped", 0)


def lagging_nodes(net) -> set[str]:
    report = audit_convergence(net)
    return {node for divergence in report.divergences for node in divergence.nodes}


def make_net(**kwargs) -> QuorumNetwork:
    net = QuorumNetwork(seed="redelivery-test", **kwargs)
    for org in ORGS:
        net.onboard(org)
    net.deploy_contract("N1", store_cc())
    return net


class TestDefaultFailFast:
    def test_partitioned_recipient_fails_before_state_mutation(self):
        net = make_net()
        net.network.partition("N1", "N2")
        with pytest.raises(DeliveryError, match="partition"):
            net.send_private_transaction(
                "N1", "store", "put", {"key": "k", "value": 1},
                private_for=["N2", "N3"],
            )
        for org in ORGS:
            assert not net.private_states[org].exists("k")

    def test_crashed_recipient_fails_fast(self):
        net = make_net()
        net.crash("N2")
        with pytest.raises(DeliveryError, match="down"):
            net.send_private_transaction(
                "N1", "store", "put", {"key": "k", "value": 1},
                private_for=["N2"],
            )


class TestResilientRedelivery:
    def test_transaction_proceeds_with_recipient_down(self):
        net = make_net(resilient_delivery=True)
        net.crash("N2")
        result = net.send_private_transaction(
            "N1", "store", "put", {"key": "k", "value": 1},
            private_for=["N2", "N3"],
        )
        # Reachable participants applied; the down one is owed a payload.
        assert net.private_states["N1"].get("k") == 1
        assert net.private_states["N3"].get("k") == 1
        assert not net.private_states["N2"].exists("k")
        assert not net.replicas["N2"].manager.has_payload(result.payload_hash)

    def test_redelivery_applies_after_node_returns(self):
        net = make_net(resilient_delivery=True)
        net.network.partition("N1", "N2")
        result = net.send_private_transaction(
            "N1", "store", "put", {"key": "k", "value": 1},
            private_for=["N2"],
        )
        net.recover("N2")  # still partitioned from the only holder
        assert not net.private_states["N2"].exists("k")
        assert "N2" in lagging_nodes(net)
        net.network.heal("N1", "N2")
        net.recover("N2")
        assert net.private_states["N2"].get("k") == 1
        assert net.replicas["N2"].manager.has_payload(result.payload_hash)
        assert net.verify_private_state("N2")
        assert audit_convergence(net).converged

    def test_redelivery_is_idempotent(self):
        net = make_net(resilient_delivery=True)
        net.network.partition("N1", "N2")
        net.send_private_transaction(
            "N1", "store", "put", {"key": "k", "value": 1}, private_for=["N2"]
        )
        net.network.heal("N1", "N2")
        net.recover("N2")
        shipped = catchup_shipped(net)
        net.recover("N2")  # a second pass finds nothing to ship
        assert catchup_shipped(net) == shipped
        assert net.private_states["N2"].get("k") == 1

    def test_recovery_first_then_redelivery_does_not_double_apply(self):
        """A node that caught up after a crash is level: recovering it
        again applies nothing twice, since catch-up is keyed on the
        durable chain position."""
        net = make_net(resilient_delivery=True)
        net.crash("N2")
        net.send_private_transaction(
            "N1", "store", "put", {"key": "k", "value": 1}, private_for=["N2"]
        )
        net.recover("N2")  # catch-up already applies the private tx
        assert net.private_states["N2"].get("k") == 1
        shipped = catchup_shipped(net)
        net.recover("N2")
        assert catchup_shipped(net) == shipped
        assert net.verify_private_state("N2")

    def test_redelivery_counters_recorded(self):
        """Healing a live node ships its payload and the transaction, and
        counts no restart."""
        net = make_net(resilient_delivery=True)
        net.network.partition("N1", "N2")
        net.send_private_transaction(
            "N1", "store", "put", {"key": "k", "value": 1}, private_for=["N2"]
        )
        net.network.heal("N1", "N2")
        net.recover("N2")
        counters = net.telemetry.metrics.snapshot()["counters"]
        assert counters["recovery.redelivered"] == 1
        assert counters["recovery.catchup.items"] == 2
        assert "recovery.recoveries" not in counters


class TestEntitlement:
    def test_manager_refuses_unentitled_redelivery(self):
        net = make_net(resilient_delivery=True)
        result = net.send_private_transaction(
            "N1", "store", "put", {"key": "k", "value": 1}, private_for=["N2"]
        )
        with pytest.raises(PrivacyError):
            net.replicas["N1"].manager.redeliver(result.payload_hash, "N3")
        assert not net.replicas["N3"].manager.has_payload(result.payload_hash)


class TestManagerRebuild:
    """A restart replaces a node's manager, and with it the pair keys it
    derived; payloads still resolve and redeliver afterwards."""

    def test_resolve_and_redeliver_after_restart(self):
        net = make_net()
        first = net.send_private_transaction(
            "N1", "store", "put", {"key": "k", "value": 1},
            private_for=["N2", "N3"],
        )
        for node in ("N1", "N2"):
            before = net.replicas[node].manager
            net.crash(node)
            net.recover(node)
            assert net.replicas[node].manager is not before
            assert net.replicas[node].manager.resolve(first.payload_hash)["args"] == {
                "key": "k", "value": 1,
            }
        # The rebuilt sender distributes again; the rebuilt peer redelivers.
        second = net.send_private_transaction(
            "N1", "store", "put", {"key": "k2", "value": 2}, private_for=["N2"],
        )
        assert net.private_states["N2"].get("k2") == 2
        assert net.replicas["N2"].manager.resolve(second.payload_hash)["args"]["value"] == 2
        before = net.replicas["N3"].manager
        net.crash("N3")
        net.recover("N3")
        assert net.replicas["N3"].manager is not before
        assert net.private_states["N3"].get("k") == 1
        assert net.verify_private_state("N3")
        assert audit_convergence(net).converged
