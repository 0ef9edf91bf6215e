"""Cross-check: telemetry leaks nothing the L1 audit doesn't.

The L1 auditor (:mod:`repro.core.audit`) accounts for what every
principal learned through the *protocol* — exposures on messages, state
an orderer or notary can read.  Telemetry is a new egress channel on
top of that: spans, events, and metrics flow to whoever operates the
monitoring.  These tests pin the containment guarantee: serialized
telemetry from the audit scenario and the letter-of-credit run contains
none of the confidential material the audit shows *any* principal
holding, and no identity that is not already network-visible routing
metadata.  The module-level tests record spans (``start_tracing``);
:class:`TestNullTracer` runs the same scenarios in the default mode,
where only metrics and events are kept.
"""

from __future__ import annotations

import json

import pytest

from repro.core.audit import CONFIDENTIAL_KEY, TRADING_PARTIES, UNINVOLVED
from repro.execution.contracts import SmartContract
from repro.platforms.corda import CordaNetwork
from repro.platforms.fabric import FabricNetwork
from repro.telemetry.redaction import redacted_digest
from repro.usecases.letter_of_credit import LetterOfCreditWorkflow

SECRET_PRICE = 987654321


def run_trade_scenario(traced: bool) -> FabricNetwork:
    """The audit_fabric scenario, with the network kept for inspection."""
    net = FabricNetwork(seed="telemetry-crosscheck")
    if traced:
        net.telemetry.start_tracing()
    for org in TRADING_PARTIES + UNINVOLVED:
        net.onboard(org)
    net.create_channel("trade-ab", list(TRADING_PARTIES))

    def record_trade(view, args):
        # Same deliberate plaintext write the L1 audit measures.
        # repro: allow(flow-to-state)
        view.put(CONFIDENTIAL_KEY, args["price"])
        return args["price"]

    contract = SmartContract(
        contract_id="trade-cc", version=1, language="python-chaincode",
        functions={"record": record_trade},
    )
    net.deploy_chaincode("trade-ab", contract, list(TRADING_PARTIES))
    net.invoke("trade-ab", "OrgA", "trade-cc", "record",
               {"price": SECRET_PRICE})
    return net


@pytest.fixture(scope="module")
def trade_net() -> FabricNetwork:
    return run_trade_scenario(traced=True)


def run_letter_of_credit(network_type, traced: bool) -> LetterOfCreditWorkflow:
    workflow = LetterOfCreditWorkflow(network_type(seed="loc-leak"))
    if traced:
        workflow.telemetry.start_tracing()
    workflow.setup()
    workflow.run_full_lifecycle("LC-XC")
    return workflow


def telemetry_blob(net) -> str:
    return json.dumps(net.telemetry.to_dict(), default=str)


def test_orderer_exposure_is_the_baseline(trade_net):
    """Precondition: the audit *does* attribute the confidential data key
    to the ordering principal (the paper's §3.4 visibility problem).  The
    containment claim below is only meaningful against that baseline."""
    assert CONFIDENTIAL_KEY in trade_net.network.node("fabric-orderer").observer.seen_data_keys


def test_telemetry_holds_back_what_the_protocol_exposes(trade_net):
    """The orderer sees the key and value; the telemetry stream must not."""
    blob = telemetry_blob(trade_net)
    assert len(trade_net.telemetry.tracer.spans) > 0  # non-vacuous
    assert CONFIDENTIAL_KEY not in blob
    assert str(SECRET_PRICE) not in blob


def test_telemetry_identities_are_network_visible_routing_metadata(trade_net):
    """Every identity telemetry mentions is a registered node name — the
    membership list every network participant already holds.  Telemetry
    therefore tells an observer nothing about *who trades* beyond what
    the audit already attributes to the whole membership."""
    visible = set(trade_net.network.nodes())
    mentioned = set()
    for span in trade_net.telemetry.tracer.spans:
        for key in ("sender", "recipient"):
            if key in span.attributes:
                mentioned.add(span.attributes[key])
    for event in trade_net.telemetry.events.entries:
        for key in ("sender", "recipient"):
            if key in event.attributes:
                mentioned.add(event.attributes[key])
    assert mentioned  # non-vacuous: transit spans did record endpoints
    assert mentioned <= visible


def test_uninvolved_orgs_learn_nothing_telemetry_could_corroborate(trade_net):
    """The audit says OrgC/D/E learned no trading identities; telemetry
    must not hand them any either (no span names an uninvolved org)."""
    blob = telemetry_blob(trade_net)
    for org in UNINVOLVED:
        assert trade_net.network.node(org).observer.seen_data_keys == set()
        assert org not in blob


@pytest.mark.parametrize(
    "network_type", [FabricNetwork, CordaNetwork], ids=["fabric", "corda"]
)
def test_letter_of_credit_pii_never_reaches_telemetry(network_type):
    """The acceptance gate: the LoC run records the passport attribute on
    purpose, and the redaction filter must have hashed it at record time.
    Both platforms that hold the PII carry it in ``loc.apply``."""
    workflow = run_letter_of_credit(network_type, traced=True)
    passport = workflow.host.lifecycle_passport
    blob = telemetry_blob(workflow.network)

    assert passport not in blob
    # Correlatable, never invertible: the digest *is* present.
    assert redacted_digest(passport) in blob
    # The span that carried it still exists and is tagged as redacted.
    (apply_span,) = workflow.telemetry.tracer.find_spans("loc.apply")
    assert str(apply_span.attributes["buyer_passport"]).startswith("[REDACTED:")


def test_metrics_names_carry_no_state_keys(trade_net):
    """Metric series names are static families plus enum-ish labels —
    never ledger keys or payload fragments."""
    snapshot = trade_net.telemetry.metrics.snapshot()
    for family in ("counters", "gauges", "histograms"):
        for name in snapshot[family]:
            assert CONFIDENTIAL_KEY not in name
            assert str(SECRET_PRICE) not in name


class TestNullTracer:
    """The default mode keeps no span, so telemetry is metrics and events
    only; those must hold back the same secrets and identities."""

    @pytest.fixture(scope="class")
    def null_net(self) -> FabricNetwork:
        return run_trade_scenario(traced=False)

    def test_telemetry_holds_back_what_the_protocol_exposes(self, null_net):
        assert CONFIDENTIAL_KEY in null_net.network.node("fabric-orderer").observer.seen_data_keys
        assert null_net.telemetry.tracer.spans == ()
        blob = telemetry_blob(null_net)
        assert null_net.telemetry.metrics.snapshot()["counters"]  # non-vacuous
        assert CONFIDENTIAL_KEY not in blob
        assert str(SECRET_PRICE) not in blob
        for org in UNINVOLVED:
            assert org not in blob

    @pytest.mark.parametrize(
        "network_type", [FabricNetwork, CordaNetwork], ids=["fabric", "corda"]
    )
    def test_letter_of_credit_pii_never_reaches_telemetry(self, network_type):
        workflow = run_letter_of_credit(network_type, traced=False)
        blob = telemetry_blob(workflow.network)
        assert workflow.telemetry.tracer.spans == ()
        assert workflow.host.lifecycle_passport not in blob
        assert redacted_digest(workflow.host.lifecycle_passport) not in blob
