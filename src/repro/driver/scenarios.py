"""Workload-to-platform scenario compilers.

``repro.workloads`` streams are platform-neutral; each platform expresses
confidentiality differently (channels + PDCs, participants, privacy
groups).  A scenario compiler owns that mapping: it stands up a seeded
platform with the needed contracts/flows and turns a stream into the
:class:`~repro.platforms.base.TxRequest` list the
:class:`~repro.driver.core.Driver` pumps.

All construction is deterministic in ``seed`` — two scenarios built with
the same parameters run identical transactions, which is what the
pipeline-parity tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import PlatformError
from repro.execution.contracts import SmartContract
from repro.ledger.validation import EndorsementPolicy
from repro.platforms.base import Platform, TxRequest
from repro.platforms.corda import Command, ContractState, CordaNetwork
from repro.platforms.fabric import FabricNetwork
from repro.platforms.quorum import QuorumNetwork
from repro.workloads import kv_update_stream, loc_stream, trade_stream

#: The benchmark consortium, aligned with the L1 leakage audit: OrgA/OrgB
#: trade, OrgC/OrgD/OrgE are uninvolved network members.
BENCH_ORGS = ("OrgA", "OrgB", "OrgC", "OrgD", "OrgE")
TRADERS = ("OrgA", "OrgB")

PLATFORM_NAMES = ("fabric", "corda", "quorum")


@dataclass
class BenchScenario:
    """A ready-to-drive workload: seeded platform + compiled requests."""

    platform: Platform
    requests: list[TxRequest]
    label: str
    params: dict = field(default_factory=dict)


def _make_platform(platform_name: str, seed: str) -> Platform:
    if platform_name == "fabric":
        return FabricNetwork(seed=seed)
    if platform_name == "corda":
        return CordaNetwork(seed=seed)
    if platform_name == "quorum":
        return QuorumNetwork(seed=seed)
    raise PlatformError(f"unknown platform {platform_name!r}")


def _onboard(platform: Platform) -> None:
    for org in BENCH_ORGS:
        platform.onboard(org)


# -- contract bodies shared across platforms -------------------------------


def _kv_put(view, args):
    view.put(args["key"], args["value"])
    return args["value"]


def _record_trade(view, args):
    view.put(args["key"], args["value"])
    if args.get("confidential"):
        # The confidential price rides the platform's own scoping
        # mechanism (channel / participants / private state); the driver
        # leakage regression cross-checks that nothing else carries it.
        # repro: allow(flow-to-state)
        view.put("trade-price", args["price"])
    return args["key"]


def _loc_advance(view, args):
    view.put(args["loc_id"], {"stage": args["stage"], "amount": args["amount"]})
    return args["stage"]


# -- KV update workload ----------------------------------------------------


def kv_scenario(
    platform_name: str,
    operations: int,
    skew: float = 0.0,
    key_count: int = 64,
    seed: str = "bench",
) -> BenchScenario:
    """Key-value updates with configurable Zipfian contention."""
    platform = _make_platform(platform_name, f"{seed}-{platform_name}-kv")
    _onboard(platform)
    submitters = list(BENCH_ORGS[:3])
    contract = SmartContract(
        contract_id="kv-store",
        version=1,
        language="evm-solidity" if platform_name == "quorum"
        else "python-chaincode",
        functions={"put": _kv_put},
    )
    if platform_name == "fabric":
        platform.create_channel("kv-channel", submitters)
        endorsers = submitters[:2]
        platform.deploy_chaincode(
            "kv-channel", contract, endorsers,
            policy=EndorsementPolicy.all_of(endorsers),
        )
    elif platform_name == "corda":
        def verify(wire):
            for state in wire.outputs:
                if state.contract_id == "kv-store" and state.data["value"] < 0:
                    raise PlatformError("kv values must be non-negative")
        platform.register_contract("kv-store", verify, language="kotlin")
        platform.register_flow("kv-store", "put", _corda_kv_builder)
    else:
        platform.deploy_contract(submitters[0], contract)
    requests = [
        TxRequest(
            submitter=op.submitter,
            contract_id="kv-store",
            function="put",
            args={"key": op.key, "value": op.value},
            metadata={"index": index},
        )
        for index, op in enumerate(
            kv_update_stream(
                submitters, operations, key_count=key_count, skew=skew,
                seed=f"{seed}-kv-stream",
            )
        )
    ]
    return BenchScenario(
        platform=platform,
        requests=requests,
        label=f"kv/{platform_name}",
        params={
            "operations": operations, "skew": skew, "key_count": key_count,
            "workers": len(submitters),
        },
    )


def _corda_kv_builder(net: CordaNetwork, request: TxRequest):
    participants = request.private_for or (request.submitter,)
    state = ContractState(
        contract_id="kv-store",
        participants=tuple(participants),
        data={"key": request.args["key"], "value": request.args["value"]},
    )
    return net.build_transaction(
        inputs=[], outputs=[state],
        commands=[Command(name="Put", signers=(request.submitter,))],
    )


# -- bilateral trade workload ----------------------------------------------


def trade_scenario(
    platform_name: str,
    trades: int,
    confidential_fraction: float = 0.5,
    seed: str = "bench",
) -> BenchScenario:
    """OrgA/OrgB trades, a fraction with a confidential price.

    Mirrors the L1 leakage audit's scenario shape so its cross-check
    (uninvolved orgs and the ordering principal learn no more than the
    platform's documented exposure) applies to driver-generated load.
    """
    platform = _make_platform(platform_name, f"{seed}-{platform_name}-trades")
    _onboard(platform)
    contract = SmartContract(
        contract_id="trade-contract",
        version=1,
        language="evm-solidity" if platform_name == "quorum"
        else "python-chaincode",
        functions={"record": _record_trade},
    )
    if platform_name == "fabric":
        platform.create_channel("trade-ab", list(TRADERS))
        platform.deploy_chaincode(
            "trade-ab", contract, list(TRADERS),
            policy=EndorsementPolicy.all_of(list(TRADERS)),
        )
    elif platform_name == "corda":
        def verify(wire):
            for state in wire.outputs:
                if state.contract_id == "trade-contract" and (
                    state.data.get("value", {}).get("notional", 1) <= 0
                ):
                    raise PlatformError("trade notional must be positive")
        platform.register_contract("trade-contract", verify, language="kotlin")
        platform.register_flow("trade-contract", "record", _corda_trade_builder)
    else:
        platform.deploy_contract(TRADERS[0], contract)
    requests = []
    for index, trade in enumerate(
        trade_stream(
            list(TRADERS), trades,
            confidential_fraction=confidential_fraction,
            seed=f"{seed}-trade-stream",
        )
    ):
        args = {
            "key": f"trade-{index:05d}",
            "value": {"instrument": trade.instrument, "seller": trade.seller},
            "confidential": trade.confidential,
        }
        if trade.confidential:
            args["price"] = trade.notional
        else:
            args["value"] = {
                **args["value"], "notional": trade.notional,
            }
        private_for = None
        if platform_name in ("corda", "quorum"):
            # p2p participants / privacy group: always the two traders.
            private_for = (trade.seller,)
        requests.append(
            TxRequest(
                submitter=trade.buyer,
                contract_id="trade-contract",
                function="record",
                args=args,
                private_for=private_for,
            )
        )
    return BenchScenario(
        platform=platform,
        requests=requests,
        label=f"trades/{platform_name}",
        params={
            "trades": trades,
            "confidential_fraction": confidential_fraction,
        },
    )


def _corda_trade_builder(net: CordaNetwork, request: TxRequest):
    participants = (request.submitter,) + tuple(request.private_for or ())
    data = {"key": request.args["key"], "value": request.args["value"]}
    if request.args.get("confidential"):
        # The price stays inside the participants' states — Corda's p2p
        # distribution is the scoping mechanism.
        # repro: allow(flow-to-state)
        data["trade-price"] = request.args["price"]
    state = ContractState(
        contract_id="trade-contract",
        participants=participants,
        data=data,
    )
    return net.build_transaction(
        inputs=[], outputs=[state],
        commands=[Command(name="Record", signers=(request.submitter,))],
    )


# -- letter-of-credit application mix --------------------------------------

LOC_APPLICANTS = ("OrgA", "OrgB")
LOC_BENEFICIARIES = ("OrgC", "OrgD")


def loc_scenario(
    platform_name: str,
    applications: int,
    completion_fraction: float = 0.75,
    seed: str = "bench",
) -> BenchScenario:
    """Letter-of-credit lifecycles: apply/issue/ship/pay stage requests.

    On Fabric, the application carries applicant KYC data as a PDC write
    (``private_args``); Corda and Quorum cannot host deletable PII
    (Table 1), so their applications reference it by anchor only.
    """
    platform = _make_platform(platform_name, f"{seed}-{platform_name}-loc")
    _onboard(platform)
    members = sorted(set(LOC_APPLICANTS + LOC_BENEFICIARIES))
    contract = SmartContract(
        contract_id="loc-contract",
        version=1,
        language="evm-solidity" if platform_name == "quorum"
        else "python-chaincode",
        functions={stage: _loc_advance for stage in
                   ("apply", "issue", "ship", "pay")},
    )
    if platform_name == "fabric":
        channel = platform.create_channel("loc-channel", members)
        channel.create_collection("kyc-pii", list(LOC_APPLICANTS))
        endorsers = [LOC_APPLICANTS[0], LOC_BENEFICIARIES[0]]
        platform.deploy_chaincode(
            "loc-channel", contract, endorsers,
            policy=EndorsementPolicy.all_of(endorsers),
        )
    elif platform_name == "corda":
        def verify(wire):
            for state in wire.outputs:
                if state.contract_id == "loc-contract" and (
                    state.data.get("amount", 1) <= 0
                ):
                    raise PlatformError("credit amount must be positive")
        platform.register_contract("loc-contract", verify, language="kotlin")
        for stage in ("apply", "issue", "ship", "pay"):
            platform.register_flow("loc-contract", stage, _corda_loc_builder)
    else:
        platform.deploy_contract(LOC_APPLICANTS[0], contract)
    requests = []
    for application in loc_stream(
        list(LOC_APPLICANTS), list(LOC_BENEFICIARIES), applications,
        completion_fraction=completion_fraction,
        seed=f"{seed}-loc-stream",
    ):
        for stage in application.stages:
            submitter = (
                application.applicant if stage in ("apply", "issue")
                else application.beneficiary
            )
            private_args = None
            if platform_name == "fabric" and stage == "apply":
                private_args = {
                    "kyc-pii": {
                        f"kyc-{application.loc_id}": {
                            "applicant": application.applicant,
                            "amount": application.amount,
                        }
                    }
                }
            private_for = None
            if platform_name in ("corda", "quorum"):
                counterparty = (
                    application.beneficiary if submitter == application.applicant
                    else application.applicant
                )
                private_for = (counterparty,)
            requests.append(
                TxRequest(
                    submitter=submitter,
                    contract_id="loc-contract",
                    function=stage,
                    args={
                        "loc_id": application.loc_id,
                        "stage": stage,
                        "amount": application.amount,
                    },
                    private_for=private_for,
                    private_args=private_args,
                    metadata={"loc_id": application.loc_id},
                )
            )
    return BenchScenario(
        platform=platform,
        requests=requests,
        label=f"loc/{platform_name}",
        params={
            "applications": applications,
            "completion_fraction": completion_fraction,
        },
    )


def _corda_loc_builder(net: CordaNetwork, request: TxRequest):
    participants = (request.submitter,) + tuple(request.private_for or ())
    state = ContractState(
        contract_id="loc-contract",
        participants=participants,
        data={
            "loc_id": request.args["loc_id"],
            "stage": request.args["stage"],
            "amount": request.args["amount"],
        },
    )
    return net.build_transaction(
        inputs=[], outputs=[state],
        commands=[Command(name=request.args["stage"].capitalize(),
                          signers=(request.submitter,))],
    )


def build_scenario(
    platform_name: str,
    workload: str,
    operations: int,
    skew: float = 0.0,
    seed: str = "bench",
) -> BenchScenario:
    """CLI-facing dispatch: one scenario per (platform, workload) pair."""
    if platform_name not in PLATFORM_NAMES:
        raise PlatformError(f"unknown platform {platform_name!r}")
    if workload == "kv":
        return kv_scenario(platform_name, operations, skew=skew, seed=seed)
    if workload == "trades":
        return trade_scenario(platform_name, operations, seed=seed)
    if workload == "loc":
        return loc_scenario(platform_name, operations, seed=seed)
    raise PlatformError(f"unknown workload {workload!r}")
