"""Workload-to-platform scenario compilers.

Each workload is one :class:`HostingRow` (its contract and how that is
hosted) plus a stream of platform-neutral
:class:`~repro.platforms.base.TxRequest` s for the
:class:`~repro.driver.core.Driver`.  Each platform expresses
confidentiality differently (channels + PDCs, participants, privacy
groups); only :func:`_host` (deploy a row) and :func:`_scoped` (keep the
request scoping a platform uses) tell the platforms apart.

All construction is deterministic in ``seed`` — two scenarios built with
the same parameters run identical transactions, which is what the
pipeline-parity tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.common.errors import PlatformError
from repro.execution.contracts import ContractFunction, SmartContract
from repro.platforms import PLATFORMS
from repro.platforms.base import Platform, TxRequest
from repro.platforms.corda import Command, ContractState
from repro.workloads import kv_update_stream, loc_stream, trade_stream

#: The benchmark consortium, aligned with the L1 leakage audit: OrgA/OrgB
#: trade, OrgC/OrgD/OrgE are uninvolved network members.
BENCH_ORGS = ("OrgA", "OrgB", "OrgC", "OrgD", "OrgE")
TRADERS = ("OrgA", "OrgB")


@dataclass
class BenchScenario:
    """A ready-to-drive workload: seeded platform + compiled requests."""

    platform: Platform
    requests: list[TxRequest]
    label: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class HostingRow:
    """How one workload's contract is hosted, on every platform.

    - ``channel`` / ``members`` / ``endorsers``: the Fabric channel the
      chaincode runs on and the peers that must all endorse it; Quorum
      deploys the contract publicly from ``members[0]``.
    - ``pdc``: an optional Fabric private data collection
      ``(name, members)`` that the requests' ``private_args`` write to.
    - ``refuses`` / ``refusal``: the Corda contract rule.  An output
      state whose data ``refuses`` is rejected with ``refusal``.
    - ``corda_data``: shapes a request's args into the data of the one
      fresh state its Corda flow records.
    """

    contract_id: str
    functions: dict[str, ContractFunction]
    channel: str
    members: tuple[str, ...]
    endorsers: tuple[str, ...]
    refuses: Callable[[dict], bool]
    refusal: str
    pdc: tuple[str, tuple[str, ...]] | None = None
    corda_data: Callable[[dict], dict] = dict


def _host(platform_name: str, seed: str, row: HostingRow) -> Platform:
    """A seeded *platform_name*, ``BENCH_ORGS`` onboarded, *row* deployed."""
    if platform_name not in PLATFORMS:
        raise PlatformError(f"unknown platform {platform_name!r}")
    platform = PLATFORMS[platform_name](seed=seed)
    for org in BENCH_ORGS:
        platform.onboard(org)
    if platform_name == "corda":
        def verify(wire):
            for state in wire.outputs:
                if state.contract_id == row.contract_id and row.refuses(state.data):
                    raise PlatformError(row.refusal)

        def record(net, request: TxRequest):
            state = ContractState(
                contract_id=row.contract_id,
                participants=(request.submitter, *(request.private_for or ())),
                data=row.corda_data(request.args),
            )
            return net.build_transaction(
                inputs=[], outputs=[state],
                commands=[Command(name=request.function.capitalize(),
                                  signers=(request.submitter,))],
            )

        platform.register_contract(row.contract_id, verify, language="kotlin")
        for function in row.functions:
            platform.register_flow(row.contract_id, function, record)
        return platform
    language = "python-chaincode" if platform_name == "fabric" else "evm-solidity"
    contract = SmartContract(row.contract_id, 1, language, row.functions)
    if platform_name == "fabric":
        channel = platform.create_channel(row.channel, list(row.members))
        if row.pdc is not None:
            channel.create_collection(row.pdc[0], list(row.pdc[1]))
        platform.deploy_chaincode(row.channel, contract, list(row.endorsers))
    else:
        platform.deploy_contract(row.members[0], contract)
    return platform


def _scoped(platform_name: str, private_for, private_args=None, **request) -> TxRequest:
    """A neutral *request* with the part of its scoping *platform_name* uses.

    A workload names both the counterparty (``private_for``) and any PII
    write (``private_args``).  Fabric scopes by channel and PDC, so it
    keeps only the PDC write; Corda and Quorum keep only the
    counterparty, since neither can host deletable PII (Table 1).
    """
    if platform_name == "fabric":
        return TxRequest(private_args=private_args, **request)
    return TxRequest(private_for=private_for, **request)


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


def _trade_state_data(args):
    data = {"key": args["key"], "value": args["value"]}
    if args.get("confidential"):
        # The price stays inside the participants' states — Corda's p2p
        # distribution is the scoping mechanism.
        # repro: allow(flow-to-state)
        data["trade-price"] = args["price"]
    return data


def _loc_advance(view, args):
    view.put(args["loc_id"], {"stage": args["stage"], "amount": args["amount"]})
    return args["stage"]


# -- KV update workload ----------------------------------------------------

KV_ROW = HostingRow(
    contract_id="kv-store",
    functions={"put": _kv_put},
    channel="kv-channel",
    members=BENCH_ORGS[:3],
    endorsers=BENCH_ORGS[:2],
    refuses=lambda data: data["value"] < 0,
    refusal="kv values must be non-negative",
)


def kv_scenario(
    platform_name: str,
    operations: int,
    skew: float = 0.0,
    key_count: int = 64,
    seed: str = "bench",
) -> BenchScenario:
    """Key-value updates with configurable Zipfian contention."""
    platform = _host(platform_name, f"{seed}-{platform_name}-kv", KV_ROW)
    requests = [
        TxRequest(
            submitter=op.submitter,
            contract_id=KV_ROW.contract_id,
            function="put",
            args={"key": op.key, "value": op.value},
            metadata={"index": index},
        )
        for index, op in enumerate(
            kv_update_stream(
                list(KV_ROW.members), operations, key_count=key_count,
                skew=skew, seed=f"{seed}-kv-stream",
            )
        )
    ]
    return BenchScenario(
        platform=platform,
        requests=requests,
        label=f"kv/{platform_name}",
        params={
            "operations": operations, "skew": skew, "key_count": key_count,
            "workers": len(KV_ROW.members),
        },
    )


# -- bilateral trade workload ----------------------------------------------

TRADE_ROW = HostingRow(
    contract_id="trade-contract",
    functions={"record": _record_trade},
    channel="trade-ab",
    members=TRADERS,
    endorsers=TRADERS,
    refuses=lambda data: data.get("value", {}).get("notional", 1) <= 0,
    refusal="trade notional must be positive",
    corda_data=_trade_state_data,
)


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
    platform = _host(platform_name, f"{seed}-{platform_name}-trades", TRADE_ROW)
    requests = []
    for index, trade in enumerate(
        trade_stream(
            list(TRADERS), trades,
            confidential_fraction=confidential_fraction,
            seed=f"{seed}-trade-stream",
        )
    ):
        value = {"instrument": trade.instrument, "seller": trade.seller}
        args = {"key": f"trade-{index:05d}", "value": value,
                "confidential": trade.confidential}
        if trade.confidential:
            args["price"] = trade.notional
        else:
            value["notional"] = trade.notional
        requests.append(_scoped(
            platform_name,
            submitter=trade.buyer,
            contract_id=TRADE_ROW.contract_id,
            function="record",
            args=args,
            private_for=(trade.seller,),
        ))
    return BenchScenario(
        platform=platform,
        requests=requests,
        label=f"trades/{platform_name}",
        params={
            "trades": trades,
            "confidential_fraction": confidential_fraction,
        },
    )


# -- letter-of-credit application mix --------------------------------------

LOC_APPLICANTS = ("OrgA", "OrgB")
LOC_BENEFICIARIES = ("OrgC", "OrgD")

LOC_ROW = HostingRow(
    contract_id="loc-contract",
    functions={stage: _loc_advance for stage in
               ("apply", "issue", "ship", "pay")},
    channel="loc-channel",
    members=tuple(sorted(LOC_APPLICANTS + LOC_BENEFICIARIES)),
    endorsers=(LOC_APPLICANTS[0], LOC_BENEFICIARIES[0]),
    refuses=lambda data: data.get("amount", 1) <= 0,
    refusal="credit amount must be positive",
    pdc=("kyc-pii", LOC_APPLICANTS),
)


def loc_scenario(
    platform_name: str,
    applications: int,
    completion_fraction: float = 0.75,
    seed: str = "bench",
) -> BenchScenario:
    """Letter-of-credit lifecycles: apply/issue/ship/pay stage requests.

    Each application writes the applicant's KYC data to the ``kyc-pii``
    PDC, which only Fabric hosts (see :func:`_scoped`).
    """
    platform = _host(platform_name, f"{seed}-{platform_name}-loc", LOC_ROW)
    requests = []
    for application in loc_stream(
        list(LOC_APPLICANTS), list(LOC_BENEFICIARIES), applications,
        completion_fraction=completion_fraction,
        seed=f"{seed}-loc-stream",
    ):
        kyc = {"kyc-pii": {f"kyc-{application.loc_id}": {
            "applicant": application.applicant, "amount": application.amount,
        }}}
        for stage in application.stages:
            submitter, counterparty = (
                (application.applicant, application.beneficiary)
                if stage in ("apply", "issue")
                else (application.beneficiary, application.applicant)
            )
            requests.append(_scoped(
                platform_name,
                submitter=submitter,
                contract_id=LOC_ROW.contract_id,
                function=stage,
                args={
                    "loc_id": application.loc_id,
                    "stage": stage,
                    "amount": application.amount,
                },
                private_for=(counterparty,),
                private_args=kyc if stage == "apply" else None,
                metadata={"loc_id": application.loc_id},
            ))
    return BenchScenario(
        platform=platform,
        requests=requests,
        label=f"loc/{platform_name}",
        params={
            "applications": applications,
            "completion_fraction": completion_fraction,
        },
    )


#: Workload name -> its scenario as ``build(platform_name, operations,
#: skew, seed)``; only ``kv`` reads the skew.
WORKLOADS = {
    "kv": lambda name, ops, skew, seed: kv_scenario(
        name, ops, skew=skew, seed=seed),
    "trades": lambda name, ops, skew, seed: trade_scenario(
        name, ops, seed=seed),
    "loc": lambda name, ops, skew, seed: loc_scenario(name, ops, seed=seed),
}


def build_scenario(
    platform_name: str,
    workload: str,
    operations: int,
    skew: float = 0.0,
    seed: str = "bench",
) -> BenchScenario:
    """CLI-facing dispatch: one scenario per (platform, workload) pair."""
    if workload not in WORKLOADS:
        raise PlatformError(f"unknown workload {workload!r}")
    return WORKLOADS[workload](platform_name, operations, skew, seed)
