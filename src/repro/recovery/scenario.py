"""The canonical crash/recover/converge scenario.

One reusable script per platform, all telling the same story: a
letter-of-credit lifecycle is underway when one of the three parties
crashes mid-flow under an adverse fault plan (message loss, a congestion
window, a timed partition against an uninvolved outsider).  While the
node is down, business continues without it — including a *side
interaction it is not a party to*.  The node then checkpoints-recovers,
catches up through the visibility-filtered protocol, and the scenario
asserts three things:

1. **liveness**: the lifecycle finishes (``status == "paid"`` everywhere),
2. **convergence**: :func:`~repro.recovery.convergence.audit_convergence`
   reports zero divergence,
3. **privacy**: the recovered node learned *nothing* about the side
   interaction during catch-up, and the uninvolved outsider learned
   nothing at all — recovery must not widen anyone's knowledge.

This is what ``repro recover`` / ``repro converge`` run, and what the CI
convergence gate pins.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import PlatformError
from repro.faults import FaultPlan
from repro.recovery.convergence import ConvergenceReport, audit_convergence

CANONICAL_SEED = "recovery-scenario"
LOC_ID = "LC-R-001"
OUTSIDER = "OutsiderCo"
SIDE_KEY = "side/terms"  # the key the recovered node must never learn


def canonical_fault_plan() -> FaultPlan:
    """The adverse conditions every recovery scenario runs under."""
    return (
        FaultPlan()
        .set_default_loss(0.02)
        .slow_all(2.0, start=0.0, end=1.0)
        .partition_between("BuyerCo", OUTSIDER, start=0.0, end=0.5)
    )


@dataclass
class RecoveryScenarioResult:
    """Everything the CLI, tests, and the CI gate need from one run."""

    platform_name: str
    crashed_node: str
    checkpoint_sequence: int | None
    report: ConvergenceReport
    statuses: dict[str, str]
    leak_ok: bool
    leak_findings: list[str] = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return (
            self.report.converged
            and self.leak_ok
            and all(s == "paid" for s in self.statuses.values())
        )

    def render(self) -> str:
        lines = [
            f"recovery scenario: {self.platform_name}",
            f"  crashed + recovered: {self.crashed_node} "
            f"(checkpoint sequence: {self.checkpoint_sequence})",
            "  statuses: "
            + ", ".join(f"{p}={s}" for p, s in sorted(self.statuses.items())),
        ]
        for key in sorted(self.summary):
            lines.append(f"  {key}: {self.summary[key]}")
        lines.append(
            "  catch-up privacy: "
            + ("no entitlement widened" if self.leak_ok else "LEAK DETECTED")
        )
        for finding in self.leak_findings:
            lines.append(f"    ! {finding}")
        lines.append(self.report.render())
        verdict = "OK" if self.ok else "FAILED"
        lines.append(f"  verdict: {verdict}")
        return "\n".join(lines)


def _recovery_metrics(telemetry) -> dict:
    """The recovery.* counter family, flattened for the result summary."""
    counters = telemetry.metrics.snapshot()["counters"]
    return {
        key: value
        for key, value in sorted(counters.items())
        if key.startswith(("recovery.", "net.deduplicated"))
    }


def _outsider_clean(network, baseline_identities, baseline_keys) -> list[str]:
    """Findings if the uninvolved outsider learned anything new."""
    observer = network.network.node(OUTSIDER).observer
    findings = []
    new_identities = observer.seen_identities - baseline_identities
    new_keys = observer.seen_data_keys - baseline_keys
    if new_identities:
        findings.append(
            f"{OUTSIDER} learned identities {sorted(new_identities)}"
        )
    if new_keys:
        findings.append(f"{OUTSIDER} learned data keys {sorted(new_keys)}")
    return findings


def _result(
    net, crashed: str, checkpoint, statuses: dict[str, str], findings: list[str]
) -> RecoveryScenarioResult:
    """Audit *net* for convergence and package one scenario's outcome."""
    return RecoveryScenarioResult(
        platform_name=net.platform_name,
        crashed_node=crashed,
        checkpoint_sequence=None if checkpoint is None else checkpoint.sequence,
        report=audit_convergence(net),
        statuses=statuses,
        leak_ok=not findings,
        leak_findings=findings,
        summary=_recovery_metrics(net.telemetry),
    )


def _run_fabric(seed: str) -> RecoveryScenarioResult:
    from repro.execution.contracts import SmartContract
    from repro.ledger.validation import EndorsementPolicy
    from repro.platforms.fabric import FabricNetwork
    from repro.usecases.letter_of_credit import LetterOfCreditWorkflow

    net = FabricNetwork(seed=seed, resilient_delivery=True)
    wf = LetterOfCreditWorkflow(network=net)
    wf.setup(
        extra_network_members=(OUTSIDER,),
        # 2-of-3 so the lifecycle survives one crashed member.
        endorsement_policy=EndorsementPolicy.k_of(2, list(wf.PARTIES)),
    )
    net.inject_faults(canonical_fault_plan())
    outsider_obs = net.network.node(OUTSIDER).observer
    base_ids = set(outsider_obs.seen_identities)
    base_keys = set(outsider_obs.seen_data_keys)

    wf.apply_for_credit(LOC_ID, amount=100_000, buyer_passport="P-R-42")
    wf.issue(LOC_ID)
    wf.ship(LOC_ID)

    net.checkpoint_node("SellerCo")
    net.crash("SellerCo")

    # A side channel the crashed party is not a member of: its traffic and
    # state must stay invisible to SellerCo through recovery.
    side = net.create_channel("side-channel", ["BuyerCo", "IssuingBank"])

    def put(view, args):
        view.put(args["key"], args["value"])
        return args["value"]

    side_cc = SmartContract(
        contract_id="side-cc", version=1, language="python-chaincode",
        functions={"put": put},
    )
    net.deploy_chaincode("side-channel", side_cc, ["BuyerCo", "IssuingBank"])
    net.invoke(
        "side-channel", "BuyerCo", "side-cc", "put",
        {"key": SIDE_KEY, "value": 314},
    )

    # Business continues: the two live endorsers satisfy the 2-of-3 policy.
    wf.pay(LOC_ID)

    checkpoint = net.recover("SellerCo")

    statuses = {p: wf.status_of(LOC_ID, p) for p in wf.PARTIES}

    seller_obs = net.network.node("SellerCo").observer
    findings = []
    if SIDE_KEY in seller_obs.seen_data_keys:
        findings.append("SellerCo learned the side-channel data key")
    side_state = side.states.get("SellerCo")
    if side_state is not None:
        findings.append("SellerCo holds a replica of a channel it is not on")
    findings += _outsider_clean(net, base_ids, base_keys)

    return _result(net, "SellerCo", checkpoint, statuses, findings)


def _run_corda(seed: str) -> RecoveryScenarioResult:
    from repro.platforms.corda import Command, ContractState, CordaNetwork
    from repro.usecases.letter_of_credit_multi import (
        PARTIES,
        CordaLetterOfCredit,
    )

    net = CordaNetwork(seed=seed, resilient_delivery=True)
    wf = CordaLetterOfCredit(network=net)
    wf.setup(extra_network_members=(OUTSIDER,))
    net.inject_faults(canonical_fault_plan())
    outsider_obs = net.network.node(OUTSIDER).observer
    base_ids = set(outsider_obs.seen_identities)
    base_keys = set(outsider_obs.seen_data_keys)

    wf.apply_for_credit(LOC_ID, amount=100_000, buyer_passport="P-R-43")
    wf.advance("IssuingBank", LOC_ID)  # -> issued

    net.checkpoint_node("BuyerCo")
    net.crash("BuyerCo")

    # A two-party trade the crashed node is not entitled to: catch-up must
    # not re-ship this chain to BuyerCo.
    def verify_side(wire):
        return None

    net.register_contract("side-trade", verify_side, language="kotlin")
    side_state = ContractState(
        contract_id="side-trade",
        participants=("SellerCo", "IssuingBank"),
        data={SIDE_KEY: 7},
    )
    side_wire = net.build_transaction(
        inputs=[], outputs=[side_state],
        commands=[Command(name="Trade", signers=("SellerCo", "IssuingBank"))],
    )
    net.run_flow("SellerCo", side_wire)

    checkpoint = net.recover("BuyerCo")

    wf.advance("SellerCo", LOC_ID)      # -> shipped
    wf.advance("IssuingBank", LOC_ID)   # -> paid

    statuses = {p: wf.status_of(LOC_ID, p) for p in PARTIES}

    buyer_obs = net.network.node("BuyerCo").observer
    findings = []
    if SIDE_KEY in buyer_obs.seen_data_keys:
        findings.append("BuyerCo learned the side-trade data key")
    if net.vault("BuyerCo").knows_transaction(side_wire.tx_id):
        findings.append("BuyerCo's vault holds a transaction it was not party to")
    findings += _outsider_clean(net, base_ids, base_keys)

    return _result(net, "BuyerCo", checkpoint, statuses, findings)


def _run_quorum(seed: str) -> RecoveryScenarioResult:
    from repro.execution.contracts import SmartContract
    from repro.platforms.quorum import QuorumNetwork
    from repro.usecases.letter_of_credit_multi import (
        PARTIES,
        QuorumLetterOfCredit,
    )

    net = QuorumNetwork(seed=seed, resilient_delivery=True)
    wf = QuorumLetterOfCredit(network=net)
    wf.setup(extra_network_members=(OUTSIDER,))
    net.inject_faults(canonical_fault_plan())
    outsider_obs = net.network.node(OUTSIDER).observer
    base_keys = set(outsider_obs.seen_data_keys)

    wf.apply_for_credit(LOC_ID, amount=100_000)  # applied

    net.checkpoint_node("SellerCo")
    net.crash("SellerCo")

    # Advance while SellerCo is down: the resilient txmanager queues the
    # payload for redelivery instead of failing the whole transaction.
    wf.advance("IssuingBank", LOC_ID)  # -> issued (SellerCo owed a payload)

    # A side private transaction SellerCo is not entitled to.
    def put(view, args):
        view.put(args["key"], args["value"])
        return args["value"]

    side_cc = SmartContract(
        contract_id="side-evm", version=1, language="evm-solidity",
        functions={"put": put},
    )
    net.deploy_contract(
        "BuyerCo", side_cc, private_for=["BuyerCo", "IssuingBank"]
    )
    side = net.send_private_transaction(
        "BuyerCo", "side-evm", "put", {"key": SIDE_KEY, "value": 9},
        private_for=["IssuingBank"],
    )

    checkpoint = net.recover("SellerCo")
    net.redeliver_pending()

    wf.advance("SellerCo", LOC_ID)      # -> shipped
    wf.advance("IssuingBank", LOC_ID)   # -> paid

    statuses = {p: wf.status_of(LOC_ID, p) for p in PARTIES}

    findings = []
    if net.private_states["SellerCo"].exists(SIDE_KEY):
        findings.append("SellerCo's private state holds the side-tx key")
    if net.managers["SellerCo"].has_payload(side.payload_hash):
        findings.append("SellerCo's manager was re-served a payload it "
                        "was not entitled to")
    if SIDE_KEY in outsider_obs.seen_data_keys - base_keys:
        findings.append(f"{OUTSIDER} learned the side-tx data key")
    if net.private_states[OUTSIDER].keys():
        findings.append(f"{OUTSIDER} holds private state")

    return _result(net, "SellerCo", checkpoint, statuses, findings)


_SCENARIOS = {
    "fabric": _run_fabric,
    "corda": _run_corda,
    "quorum": _run_quorum,
}


def run_recovery_scenario(
    platform_name: str, seed: str = CANONICAL_SEED
) -> RecoveryScenarioResult:
    """Run the canonical crash/recover/converge scenario on one platform."""
    runner = _SCENARIOS.get(platform_name)
    if runner is None:
        raise PlatformError(
            f"no recovery scenario for platform {platform_name!r} "
            f"(choose from {sorted(_SCENARIOS)})"
        )
    return runner(seed)


def run_all_recovery_scenarios(
    seed: str = CANONICAL_SEED,
) -> list[RecoveryScenarioResult]:
    return [run_recovery_scenario(name, seed=seed) for name in sorted(_SCENARIOS)]
