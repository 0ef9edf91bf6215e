"""The canonical crash/recover/converge scenario.

One runner over the shared letter-of-credit workflow, telling the same
story on every platform: a lifecycle is underway when one of the three
parties crashes mid-flow under an adverse fault plan (message loss, a
congestion window, a timed partition against an uninvolved outsider).
While the node is down, business continues without it — including a
*side interaction it is not a party to*.  The node then checkpoints-recovers
and catches up through the visibility-filtered protocol; once the
lifecycle is done, every node is recovered once more, which heals any
live node a partition kept behind and ships nothing to the rest.  The
scenario then asserts three things:

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
from typing import Callable

from repro.common.errors import PlatformError
from repro.execution.contracts import SmartContract
from repro.faults import FaultPlan
from repro.ledger.validation import EndorsementPolicy
from repro.platforms.corda import Command, ContractState, CordaNetwork
from repro.platforms.fabric import FabricNetwork
from repro.platforms.quorum import QuorumNetwork
from repro.recovery.convergence import ConvergenceReport, audit_convergence
from repro.usecases.letter_of_credit import PARTIES, LetterOfCreditWorkflow

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


def _fabric_side(net: FabricNetwork) -> dict:
    """A side channel SellerCo is not a member of."""
    side = net.create_channel("side-channel", ["BuyerCo", "IssuingBank"])
    side_cc = SmartContract(
        contract_id="side-cc", version=1, language="python-chaincode",
        functions={"put": _put},
    )
    net.deploy_chaincode("side-channel", side_cc, ["BuyerCo", "IssuingBank"])
    net.invoke(
        "side-channel", "BuyerCo", "side-cc", "put",
        {"key": SIDE_KEY, "value": 314},
    )
    return {
        "SellerCo holds a replica of a channel it is not on":
            lambda: side.states.get("SellerCo") is not None,
    }


def _corda_side(net: CordaNetwork) -> dict:
    """A two-party trade BuyerCo is not entitled to: catch-up must not
    re-ship this chain to BuyerCo."""
    net.register_contract("side-trade", lambda wire: None, language="kotlin")
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
    return {
        "BuyerCo's vault holds a transaction it was not party to":
            lambda: net.vault("BuyerCo").knows_transaction(side_wire.tx_id),
    }


def _quorum_side(net: QuorumNetwork) -> dict:
    """A side private transaction SellerCo is not entitled to."""
    side_cc = SmartContract(
        contract_id="side-evm", version=1, language="evm-solidity",
        functions={"put": _put},
    )
    net.deploy_contract(
        "BuyerCo", side_cc, private_for=["BuyerCo", "IssuingBank"]
    )
    side = net.send_private_transaction(
        "BuyerCo", "side-evm", "put", {"key": SIDE_KEY, "value": 9},
        private_for=["IssuingBank"],
    )
    return {
        "SellerCo's private state holds the side-tx key":
            lambda: net.private_states["SellerCo"].exists(SIDE_KEY),
        "SellerCo's manager was re-served a payload it was not entitled to":
            lambda: net.managers["SellerCo"].has_payload(side.payload_hash),
        f"{OUTSIDER} holds private state":
            lambda: bool(net.private_states[OUTSIDER].keys()),
    }


def _put(view, args):
    view.put(args["key"], args["value"])
    return args["value"]


@dataclass(frozen=True)
class _Script:
    """The per-platform parts of the canonical scenario.

    Of the four lifecycle stages, the first ``crash_after`` run before
    ``crashed`` goes down and the next ``while_down`` while it is down;
    the rest run after it recovers.  ``side`` runs the side interaction
    while the node is down and returns its leak checks (finding ->
    predicate, evaluated after recovery).
    """

    network: type
    crashed: str
    passport: str | None
    crash_after: int
    while_down: int
    side: Callable[[object], dict]
    # 2-of-3 on Fabric, so the lifecycle survives one crashed member.
    endorsement_policy: EndorsementPolicy | None = None
    # Quorum names every private transaction's parties to the whole
    # network: a platform leak, not a recovery one.
    outsider_sees_parties: bool = False


_SCENARIOS = {
    "fabric": _Script(
        FabricNetwork, "SellerCo", "P-R-42", crash_after=3, while_down=1,
        side=_fabric_side,
        endorsement_policy=EndorsementPolicy.k_of(2, list(PARTIES)),
    ),
    "corda": _Script(
        CordaNetwork, "BuyerCo", "P-R-43", crash_after=2, while_down=0,
        side=_corda_side,
    ),
    # Quorum runs a stage while SellerCo is down: with resilient delivery
    # it commits for the reachable parties and SellerCo catches up later.
    "quorum": _Script(
        QuorumNetwork, "SellerCo", None, crash_after=1, while_down=1,
        side=_quorum_side, outsider_sees_parties=True,
    ),
}


def _run(script: _Script, seed: str) -> RecoveryScenarioResult:
    net = script.network(seed=seed, resilient_delivery=True)
    wf = LetterOfCreditWorkflow(net)
    wf.setup(
        extra_network_members=(OUTSIDER,),
        endorsement_policy=script.endorsement_policy,
    )
    net.inject_faults(canonical_fault_plan())
    outsider = net.network.node(OUTSIDER).observer
    base_ids = set(outsider.seen_identities)
    base_keys = set(outsider.seen_data_keys)

    stages = [
        lambda: wf.apply_for_credit(
            LOC_ID, amount=100_000, buyer_passport=script.passport
        ),
        lambda: wf.issue(LOC_ID),
        lambda: wf.ship(LOC_ID),
        lambda: wf.pay(LOC_ID),
    ]
    down_until = script.crash_after + script.while_down
    for stage in stages[:script.crash_after]:
        stage()
    net.checkpoint_node(script.crashed)
    net.crash(script.crashed)
    for stage in stages[script.crash_after:down_until]:
        stage()
    leak_checks = script.side(net)
    checkpoint = net.recover(script.crashed)
    for stage in stages[down_until:]:
        stage()
    # On Quorum the timed partition keeps the outsider from some gossip;
    # every other node is level and is shipped nothing.
    for name in sorted(net.parties):
        net.recover(name)

    statuses = {p: wf.status_of(LOC_ID, p) for p in PARTIES}
    findings = [finding for finding, leaked in leak_checks.items() if leaked()]
    if SIDE_KEY in net.network.node(script.crashed).observer.seen_data_keys:
        findings.append(f"{script.crashed} learned the side data key")
    new_identities = outsider.seen_identities - base_ids
    if new_identities and not script.outsider_sees_parties:
        findings.append(f"{OUTSIDER} learned identities {sorted(new_identities)}")
    new_keys = outsider.seen_data_keys - base_keys
    if new_keys:
        findings.append(f"{OUTSIDER} learned data keys {sorted(new_keys)}")
    return RecoveryScenarioResult(
        platform_name=net.platform_name,
        crashed_node=script.crashed,
        checkpoint_sequence=None if checkpoint is None else checkpoint.sequence,
        report=audit_convergence(net),
        statuses=statuses,
        leak_ok=not findings,
        leak_findings=findings,
        summary=_recovery_metrics(net.telemetry),
    )


def run_recovery_scenario(
    platform_name: str, seed: str = CANONICAL_SEED
) -> RecoveryScenarioResult:
    """Run the canonical crash/recover/converge scenario on one platform."""
    script = _SCENARIOS.get(platform_name)
    if script is None:
        raise PlatformError(
            f"no recovery scenario for platform {platform_name!r} "
            f"(choose from {sorted(_SCENARIOS)})"
        )
    return _run(script, seed)


def run_all_recovery_scenarios(
    seed: str = CANONICAL_SEED,
) -> list[RecoveryScenarioResult]:
    return [run_recovery_scenario(name, seed=seed) for name in sorted(_SCENARIOS)]
