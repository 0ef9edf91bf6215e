"""Execution engines: the Section 3.3 criteria, enforced behaviourally."""

from __future__ import annotations

import pytest

from repro.common.errors import ContractError
from repro.execution.contracts import SmartContract
from repro.execution.engines import LedgerEngine, OffChainEngine, TEEEngine
from repro.ledger.state import WorldState


def transfer(view, args):
    balance = view.get("balance", 0)
    view.put("balance", balance + args["amount"])
    return balance + args["amount"]


def make_contract(language="python-chaincode", version=1, cid="cc"):
    return SmartContract(
        contract_id=cid, version=version, language=language,
        functions={"transfer": transfer},
    )


class TestLedgerEngine:
    def test_execute(self):
        engine = LedgerEngine()
        engine.install("peer1", make_contract())
        state = WorldState.from_dump({"balance": {"value": 10, "version": 1}})
        result = engine.execute("peer1", "cc", "transfer", {"amount": 5}, state)
        assert result.return_value == 15
        assert result.writes == {"balance": 15}
        assert result.reads == {"balance": 1}

    def test_platform_language_enforced(self):
        """Criterion 4 fails for ledger engines: platform language only."""
        engine = LedgerEngine()
        with pytest.raises(ContractError, match="only runs"):
            engine.install("peer1", make_contract(language="haskell"))

    def test_admin_sees_code_and_data(self):
        """Criterion 3 fails: the node admin observes keys and code ids."""
        engine = LedgerEngine()
        engine.install("peer1", make_contract())
        engine.execute("peer1", "cc", "transfer", {"amount": 1}, WorldState())
        admin = engine.admin_observers["peer1"]
        assert "cc" in admin.seen_code_ids
        assert "balance" in admin.seen_data_keys

    def test_properties(self):
        props = LedgerEngine().properties()
        assert props.keeps_logic_private
        assert props.inbuilt_versioning
        assert not props.hides_data_from_admin
        assert not props.any_language

    def test_uninstalled_node_cannot_execute(self):
        engine = LedgerEngine()
        engine.install("peer1", make_contract())
        with pytest.raises(ContractError):
            engine.execute("peer2", "cc", "transfer", {"amount": 1}, WorldState())


class TestOffChainEngine:
    def test_any_language_accepted(self):
        """Criterion 4 holds: DSLs and anything else are fine."""
        engine = OffChainEngine()
        engine.install("host1", make_contract(language="cobol"))
        state = WorldState.from_dump({"balance": {"value": 40, "version": 1}})
        result = engine.execute("host1", "cc", "transfer", {"amount": 2}, state)
        assert result.return_value == 42

    def test_version_drift_is_observable_not_prevented(self):
        """Criterion 2 fails: versioning is the operator's problem."""
        engine = OffChainEngine()
        engine.install("host1", make_contract(version=1))
        engine.install("host2", make_contract(version=3))
        drift = engine.detect_drift(["host1", "host2"], "cc")
        assert drift == {"host1": 1, "host2": 3}

    def test_admin_still_sees_data(self):
        """Criterion 3 fails: the engine host's admin sees cleartext."""
        engine = OffChainEngine()
        engine.install("host1", make_contract())
        engine.execute("host1", "cc", "transfer", {"amount": 1}, WorldState())
        assert "balance" in engine.admin_observers["host1"].seen_data_keys

    def test_properties(self):
        props = OffChainEngine().properties()
        assert props.keeps_logic_private
        assert not props.inbuilt_versioning
        assert not props.hides_data_from_admin
        assert props.any_language


class TestTEEEngine:
    def test_execute_with_attestation(self):
        engine = TEEEngine()
        engine.install("peer1", make_contract())
        state = WorldState.from_dump({"balance": {"value": 0, "version": 1}})
        result = engine.execute("peer1", "cc", "transfer", {"amount": 7}, state)
        assert result.return_value == 7
        assert result.writes == {"balance": 7}

    def test_admin_sees_only_ciphertext_sizes(self):
        """Criterion 3 holds: the host log contains sizes, never keys."""
        engine = TEEEngine()
        engine.install("peer1", make_contract())
        state = WorldState.from_dump({"balance": {"value": 0, "version": 1}})
        engine.execute("peer1", "cc", "transfer", {"amount": 7}, state)
        for entry in engine.admin_view("peer1", "cc"):
            assert set(entry) == {"operation", "bytes"}
            assert isinstance(entry["bytes"], int)

    def test_no_enclave_rejected(self):
        engine = TEEEngine()
        with pytest.raises(ContractError, match="no enclave"):
            engine.execute("peer1", "cc", "transfer", {}, WorldState())

    def test_properties(self):
        props = TEEEngine().properties()
        assert props.keeps_logic_private
        assert props.inbuilt_versioning
        assert props.hides_data_from_admin
        assert not props.any_language

    def test_deletes_propagate(self):
        def erase(view, args):
            view.delete(args["key"])
            return "erased"

        engine = TEEEngine()
        contract = SmartContract("cc2", 1, "python-chaincode", {"erase": erase})
        engine.install("peer1", contract)
        state = WorldState.from_dump({"k": {"value": 1, "version": 1}})
        result = engine.execute("peer1", "cc2", "erase", {"key": "k"}, state)
        assert result.deletes == {"k"}


class TestEngineComparison:
    def test_only_tee_hides_from_admin(self):
        engines = [LedgerEngine(), OffChainEngine(), TEEEngine()]
        hiding = [e.name for e in engines if e.properties().hides_data_from_admin]
        assert hiding == ["tee"]

    def test_only_offchain_allows_any_language(self):
        engines = [LedgerEngine(), OffChainEngine(), TEEEngine()]
        flexible = [e.name for e in engines if e.properties().any_language]
        assert flexible == ["offchain"]

    def test_all_results_agree_across_engines(self):
        """The same contract computes the same result everywhere."""
        state = WorldState.from_dump({"balance": {"value": 10, "version": 1}})
        ledger = LedgerEngine()
        ledger.install("n", make_contract())
        offchain = OffChainEngine()
        offchain.install("n", make_contract(language="kotlin"))
        tee = TEEEngine()
        tee.install("n", make_contract())
        results = [
            engine.execute("n", "cc", "transfer", {"amount": 5}, state)
            for engine in (ledger, offchain, tee)
        ]
        assert len({r.return_value for r in results}) == 1
        assert len({tuple(sorted(r.writes.items())) for r in results}) == 1
