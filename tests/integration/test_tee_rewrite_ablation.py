"""Ablation: what the Fabric-TEE rewrite Table 1 rules out would buy.

Table 1 marks TEEs '-' on every platform: integrating enclaves means
rewriting the execution path.  This test performs exactly that rewrite on
the simulation — swapping the peer's LedgerEngine for the TEEEngine — and
measures what changes: the node administrator's view collapses from
(code, data) to ciphertext sizes, while the business outcome is
unchanged.  The default platform remains un-rewritten (the probe still
reports '-'); this is the counterfactual the paper's Section 2.2/3.3
discussion anticipates.
"""

from __future__ import annotations

import pytest

from repro.execution.contracts import SmartContract
from repro.execution.engines import LedgerEngine, TEEEngine
from repro.ledger.state import WorldState


def make_contract():
    def settle(view, args):
        view.put(f"trade/{args['id']}", {
            "price": args["price"], "status": "settled",
        })
        return "settled"

    return SmartContract(
        "settlement", 1, "python-chaincode", {"settle": settle}
    )


STATE = {"trade/0": {"value": {"price": 99, "status": "open"}, "version": 1}}
ARGS = {"id": 1, "price": 101}


class TestRewriteCounterfactual:
    def test_same_business_outcome(self):
        ledger = LedgerEngine()
        ledger.install("peer", make_contract())
        tee = TEEEngine()
        tee.install("peer", make_contract())
        before = ledger.execute("peer", "settlement", "settle", ARGS,
                                WorldState.from_dump(STATE))
        after = tee.execute("peer", "settlement", "settle", ARGS,
                            WorldState.from_dump(STATE))
        assert before.return_value == after.return_value == "settled"
        assert before.writes == after.writes

    def test_admin_view_collapses_to_ciphertext(self):
        ledger = LedgerEngine()
        ledger.install("peer", make_contract())
        ledger.execute("peer", "settlement", "settle", ARGS,
                       WorldState.from_dump(STATE))
        admin_before = ledger.admin_observers["peer"]
        assert "settlement" in admin_before.seen_code_ids
        assert any(k.startswith("trade/") for k in admin_before.seen_data_keys)

        tee = TEEEngine()
        tee.install("peer", make_contract())
        tee.execute("peer", "settlement", "settle", ARGS,
                    WorldState.from_dump(STATE))
        admin_after = tee.admin_view("peer", "settlement")
        # Nothing but operation names and byte counts.
        assert all(set(entry) == {"operation", "bytes"} for entry in admin_after)
        assert not any(
            "trade" in str(entry.values()) for entry in admin_after
        )

    def test_default_platform_still_reports_rewrite(self):
        """The rewrite is a counterfactual; the shipped probe stays '-'."""
        from repro.core.mechanisms import Mechanism
        from repro.core.probe import probe
        from repro.platforms.base import SupportLevel
        from repro.platforms.fabric import FabricNetwork

        net = FabricNetwork(seed="tee-ablation")
        result = probe(net, Mechanism.TRUSTED_EXECUTION_ENVIRONMENT)
        assert result.level is SupportLevel.REWRITE

    def test_attestation_gates_results(self):
        """The rewrite's safety property: a relying party can insist on a
        known code measurement before trusting a result."""
        from repro.common.errors import AttestationError
        from repro.crypto.tee import measure_code

        tee = TEEEngine()
        tee.install("peer", make_contract())
        honest_measurement = tee.measurement_of("peer", "settlement")

        def evil(view, args):
            view.put(f"trade/{args['id']}", {"price": 0, "status": "settled"})
            return "settled"

        evil_contract = SmartContract(
            "settlement", 1, "python-chaincode", {"settle": evil}
        )
        tee2 = TEEEngine(manufacturer=tee.manufacturer)
        tee2.install("peer", evil_contract)
        assert tee2.measurement_of("peer", "settlement") != honest_measurement
