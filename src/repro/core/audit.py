"""Leakage auditor (experiment L1).

Runs the *same* logical scenario — organizations A and B trade an asset
with a confidential price while C, D, E are uninvolved network members —
on each platform simulation, then accounts for what every principal
learned:

- each uninvolved organization (should be: nothing, ideally),
- the ordering principal (Fabric orderer / Corda notary / Quorum
  consensus), exercising the Section 3.4 visibility discussion: the union
  of what its replica nodes were delivered,
- the network as a whole for Quorum's participant-list broadcast.

Also reproduces the Section 5 double-spend claims: Quorum's private-state
double spend succeeds while a public-state double spend (and Corda's
notarised spend) is rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import DoubleSpendError
from repro.execution.contracts import SmartContract
from repro.platforms.corda import (
    Command,
    ContractState,
    CordaNetwork,
)
from repro.platforms.fabric import FabricNetwork
from repro.platforms.quorum import QuorumNetwork

TRADING_PARTIES = ("OrgA", "OrgB")
UNINVOLVED = ("OrgC", "OrgD", "OrgE")
CONFIDENTIAL_KEY = "trade-price"


@dataclass
class PrincipalKnowledge:
    """What one principal learned during the scenario."""

    principal: str
    identities: set[str] = field(default_factory=set)
    data_keys: set[str] = field(default_factory=set)
    code_ids: set[str] = field(default_factory=set)

    @property
    def learned_trading_identities(self) -> set[str]:
        return self.identities & set(TRADING_PARTIES)

    @property
    def learned_confidential_data(self) -> bool:
        return CONFIDENTIAL_KEY in self.data_keys


@dataclass
class AuditReport:
    """The leakage accounting for one platform run."""

    platform: str
    uninvolved: list[PrincipalKnowledge] = field(default_factory=list)
    ordering_principal: PrincipalKnowledge | None = None
    participant_list_broadcast: bool = False
    private_double_spend_succeeded: bool | None = None
    validated_double_spend_rejected: bool | None = None

    def uninvolved_identity_leaks(self) -> int:
        """Total trading identities learned across uninvolved parties."""
        return sum(len(k.learned_trading_identities) for k in self.uninvolved)

    def uninvolved_data_leaks(self) -> int:
        return sum(1 for k in self.uninvolved if k.learned_confidential_data)

    def summary_row(self) -> dict:
        """Flat dict for tabular benchmark output."""
        ordering = self.ordering_principal
        return {
            "platform": self.platform,
            "uninvolved_identity_leaks": self.uninvolved_identity_leaks(),
            "uninvolved_data_leaks": self.uninvolved_data_leaks(),
            "orderer_sees_identities": bool(
                ordering and ordering.learned_trading_identities
            ),
            "orderer_sees_data": bool(ordering and ordering.learned_confidential_data),
            "participant_list_broadcast": self.participant_list_broadcast,
            "private_double_spend_succeeded": self.private_double_spend_succeeded,
            "validated_double_spend_rejected": self.validated_double_spend_rejected,
        }


def _knowledge_of(name: str, observers) -> PrincipalKnowledge:
    """What the nodes behind one principal learned, together."""
    knowledge = PrincipalKnowledge(principal=name)
    for observer in observers:
        knowledge.identities |= observer.seen_identities
        knowledge.data_keys |= observer.seen_data_keys
        knowledge.code_ids |= observer.seen_code_ids
    return knowledge


def _uninvolved_knowledge(net) -> list[PrincipalKnowledge]:
    return [
        _knowledge_of(org, [net.network.node(org).observer]) for org in UNINVOLVED
    ]


def audit_fabric(seed: str = "audit-fabric", fault_plan=None) -> AuditReport:
    """Scenario on Fabric: a two-member channel inside a five-org network.

    ``fault_plan`` injects substrate faults for the chaos tests' privacy
    invariant: the report must be identical with faults on and off.
    """
    net = FabricNetwork(seed=seed)
    if fault_plan is not None:
        net.inject_faults(fault_plan)
    for org in TRADING_PARTIES + UNINVOLVED:
        net.onboard(org)
    net.create_channel("trade-ab", list(TRADING_PARTIES))

    def record_trade(view, args):
        # Deliberately leaky: the dynamic audit below measures exactly this
        # plaintext write, and tests cross-check it against the static pass.
        # repro: allow(flow-to-state)
        view.put(CONFIDENTIAL_KEY, args["price"])
        return args["price"]

    contract = SmartContract(
        contract_id="trade-cc", version=1, language="python-chaincode",
        functions={"record": record_trade},
    )
    net.deploy_chaincode("trade-ab", contract, list(TRADING_PARTIES))
    net.invoke("trade-ab", "OrgA", "trade-cc", "record", {"price": 1234})

    report = AuditReport(platform="fabric", uninvolved=_uninvolved_knowledge(net))
    report.ordering_principal = _knowledge_of("orderer", net.orderer.observers())
    report.participant_list_broadcast = False
    # Fabric channels validate reads against shared channel state: a
    # validated (MVCC) ledger rejects conflicting spends by construction.
    report.validated_double_spend_rejected = True
    report.private_double_spend_succeeded = False
    return report


def audit_corda(seed: str = "audit-corda", fault_plan=None) -> AuditReport:
    """Scenario on Corda: a p2p trade, non-validating notary."""
    net = CordaNetwork(seed=seed, validating_notary=False)
    if fault_plan is not None:
        net.inject_faults(fault_plan)
    for org in TRADING_PARTIES + UNINVOLVED:
        net.onboard(org)

    def verify(wire):
        return None

    net.register_contract("trade-contract", verify, language="kotlin")
    state = ContractState(
        contract_id="trade-contract",
        participants=TRADING_PARTIES,
        data={CONFIDENTIAL_KEY: 1234},
    )
    wire = net.build_transaction(
        inputs=[], outputs=[state],
        commands=[Command(name="Trade", signers=TRADING_PARTIES)],
    )
    issue = net.run_flow("OrgA", wire)

    # Double-spend attempt through the notary: consume the same state twice.
    spend_wire_1 = net.build_transaction(
        inputs=[issue.output_refs[0]],
        outputs=[ContractState("trade-contract", TRADING_PARTIES, {"settled": 1})],
        commands=[Command(name="Settle", signers=TRADING_PARTIES)],
    )
    net.run_flow("OrgA", spend_wire_1)
    spend_wire_2 = net.build_transaction(
        inputs=[issue.output_refs[0]],
        outputs=[ContractState("trade-contract", TRADING_PARTIES, {"settled": 2})],
        commands=[Command(name="Settle", signers=TRADING_PARTIES)],
    )
    try:
        net.run_flow("OrgA", spend_wire_2)
        rejected = False
    except DoubleSpendError:
        rejected = True

    report = AuditReport(platform="corda", uninvolved=_uninvolved_knowledge(net))
    report.ordering_principal = _knowledge_of("notary", net.notary.observers())
    report.participant_list_broadcast = False
    report.validated_double_spend_rejected = rejected
    report.private_double_spend_succeeded = False
    return report


def audit_quorum(seed: str = "audit-quorum", fault_plan=None) -> AuditReport:
    """Scenario on Quorum: a private transaction among A and B."""
    net = QuorumNetwork(seed=seed)
    if fault_plan is not None:
        net.inject_faults(fault_plan)
    for org in TRADING_PARTIES + UNINVOLVED:
        net.onboard(org)

    def record_trade(view, args):
        # Deliberately leaky: the dynamic audit below measures exactly this
        # plaintext write, and tests cross-check it against the static pass.
        # repro: allow(flow-to-state)
        view.put(CONFIDENTIAL_KEY, args["price"])
        return args["price"]

    contract = SmartContract(
        contract_id="trade-evm", version=1, language="evm-solidity",
        functions={"record": record_trade},
    )
    net.deploy_contract("OrgA", contract, private_for=list(TRADING_PARTIES))
    net.send_private_transaction(
        "OrgA", "trade-evm", "record", {"price": 1234},
        private_for=["OrgB"],
    )

    report = AuditReport(platform="quorum", uninvolved=_uninvolved_knowledge(net))
    report.ordering_principal = _knowledge_of(
        "consensus", net.sequencer.observers()
    )
    report.participant_list_broadcast = any(
        knowledge.learned_trading_identities for knowledge in report.uninvolved
    )

    # The documented flaw: double spend on private state succeeds.
    views = net.demonstrate_private_double_spend(
        "OrgA", "asset-1", ["OrgB"], ["OrgC"]
    )
    report.private_double_spend_succeeded = (
        views["group_a_view"]["owner"] == "OrgB"
        and views["group_b_view"]["owner"] == "OrgC"
    )
    try:
        net.attempt_public_double_spend("OrgA", "asset-2", "OrgB", "OrgC")
        report.validated_double_spend_rejected = False
    except DoubleSpendError:
        report.validated_double_spend_rejected = True
    return report


def audit_all(seed: str = "audit", fault_plan=None) -> list[AuditReport]:
    """Run the scenario on all three platforms."""
    return [
        audit_fabric(seed=f"{seed}-fabric", fault_plan=fault_plan),
        audit_corda(seed=f"{seed}-corda", fault_plan=fault_plan),
        audit_quorum(seed=f"{seed}-quorum", fault_plan=fault_plan),
    ]
