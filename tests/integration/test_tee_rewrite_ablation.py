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
        """The rewrite's safety property: a relying party that insists on
        the honest contract's measurement rejects the result of an enclave
        that an engine loaded with swapped logic."""
        from repro.common.errors import AttestationError
        from repro.common.rng import DeterministicRNG
        from repro.common.serialization import canonical_bytes
        from repro.crypto.tee import Manufacturer

        class RecordingManufacturer(Manufacturer):
            def __init__(self):
                super().__init__()
                self.enclaves = []

            def provision(self):
                enclave = super().provision()
                self.enclaves.append(enclave)
                return enclave

        def evil(view, args):
            view.put(f"trade/{args['id']}", {"price": 0, "status": "settled"})
            return "settled"

        evil_contract = SmartContract(
            "settlement", 1, "python-chaincode", {"settle": evil}
        )
        manufacturer = RecordingManufacturer()
        for contract in (make_contract(), evil_contract):
            TEEEngine(manufacturer=manufacturer).install("peer", contract)
        honest, swapped = manufacturer.enclaves

        def attest(enclave, nonce):
            rng = DeterministicRNG("relying-party")
            session = enclave.establish_session_key(rng)
            payload = canonical_bytes({
                "function": "settle",
                "args": ARGS,
                "state": {key: e["value"] for key, e in STATE.items()},
                "versions": {key: e["version"] for key, e in STATE.items()},
            })
            __, attestation = enclave.execute(session.encrypt(payload, rng), nonce)
            return attestation

        expected = attest(honest, b"n1").measurement
        manufacturer.verify_attestation(attest(honest, b"n2"), expected, b"n2")
        with pytest.raises(AttestationError, match="measurement"):
            manufacturer.verify_attestation(attest(swapped, b"n3"), expected, b"n3")
