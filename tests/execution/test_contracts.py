"""Contracts, state views, and the versioning registry."""

from __future__ import annotations

import pytest

from repro.common.errors import ContractError
from repro.execution.contracts import (
    ContractRegistry,
    SmartContract,
    StateView,
)
from repro.ledger.state import WorldState


def put_fn(view, args):
    view.put(args["key"], args["value"])
    return args["value"]


@pytest.fixture
def contract():
    return SmartContract(
        contract_id="cc", version=1, language="python-chaincode",
        functions={"put": put_fn},
    )


class TestStateView:
    def test_reads_recorded_with_versions(self):
        view = StateView(WorldState.from_dump({"k": {"value": 5, "version": 3}}))
        assert view.get("k") == 5
        assert view.reads == {"k": 3}

    def test_read_of_missing_key_records_version_zero(self):
        view = StateView(WorldState())
        assert view.get("k", "default") == "default"
        assert view.reads == {"k": 0}

    def test_read_your_writes(self):
        view = StateView(WorldState.from_dump({"k": {"value": 1, "version": 1}}))
        view.put("k", 2)
        assert view.get("k") == 2

    def test_delete_then_read(self):
        view = StateView(WorldState.from_dump({"k": {"value": 1, "version": 1}}))
        view.delete("k")
        assert view.get("k", "gone") == "gone"
        assert "k" in view.deletes

    def test_put_after_delete_clears_delete(self):
        view = StateView(WorldState())
        view.delete("k")
        view.put("k", 9)
        assert "k" not in view.deletes
        assert view.writes == {"k": 9}

    def test_backing_state_not_mutated(self):
        backing = WorldState.from_dump({"k": {"value": 1, "version": 1}})
        view = StateView(backing)
        view.put("k", 2)
        view.delete("k")
        assert backing.dump() == {"k": {"value": 1, "version": 1}}


class TestSmartContract:
    def test_invoke(self, contract):
        view = StateView(WorldState())
        assert contract.invoke("put", view, {"key": "k", "value": 7}) == 7
        assert view.writes == {"k": 7}

    def test_unknown_function_rejected(self, contract):
        with pytest.raises(ContractError, match="no function"):
            contract.invoke("missing", StateView(WorldState()), {})

    def test_code_measurement_stable(self, contract):
        assert contract.code_measurement() == contract.code_measurement()

    def test_code_measurement_version_sensitive(self, contract):
        v2 = SmartContract(
            contract_id="cc", version=2, language="python-chaincode",
            functions={"put": put_fn},
        )
        assert contract.code_measurement() != v2.code_measurement()


class TestRegistry:
    def test_install_and_lookup(self, contract):
        registry = ContractRegistry()
        registry.install("peer1", contract)
        assert registry.lookup("peer1", "cc") is contract

    def test_lookup_uninstalled_rejected(self, contract):
        registry = ContractRegistry()
        with pytest.raises(ContractError, match="does not have"):
            registry.lookup("peer1", "cc")

    def test_code_visibility_tracks_installs(self, contract):
        """Section 2.3: code visible only where installed."""
        registry = ContractRegistry()
        registry.install("peer1", contract)
        registry.install("peer2", contract)
        assert registry.nodes_with_code_visibility("cc") == {"peer1", "peer2"}
        assert "peer3" not in registry.nodes_with_code_visibility("cc")
