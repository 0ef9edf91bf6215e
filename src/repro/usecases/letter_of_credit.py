"""The Section 4 use case: letters of credit.

"A letter of credit is a financial instrument in which a bank vouches to
pay a seller if a buyer is unable to make an agreed-upon payment.  Parties
on a DLT network used to record letters of credit are banks, sellers, and
buyers.  Sellers and buyers will neither want to share that they are
entering in a business relationship nor the details of their agreement
with the network."

This module provides (a) the paper's requirements, encoded; (b) the
expected design per the paper's own walkthrough, for the U1 benchmark to
check the guide against; and (c) the executable workflow, written once
and hosted by each platform the way its Table 1 column dictates: KYC PII
in a Fabric private data collection, in an external store anchored in
the Corda state, and refused on Quorum, whose private payloads must stay
replayable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

from repro.common.errors import PlatformError
from repro.core.guide import SolutionDesign, design_solution
from repro.core.mechanisms import Mechanism
from repro.core.requirements import (
    DataClassRequirements,
    DeploymentContext,
    InteractionPrivacy,
    LogicRequirements,
    UseCaseRequirements,
)
from repro.execution.contracts import SmartContract
from repro.offchain.stores import Hosting, OffChainStore
from repro.platforms.base import Platform, TxRequest
from repro.platforms.corda import Command, ContractState, CordaNetwork
from repro.platforms.fabric import FabricNetwork
from repro.platforms.quorum import QuorumNetwork
from repro.platforms.quorum.network import PRIVATE


def letter_of_credit_requirements(
    orderer_trusted: bool = True,
) -> UseCaseRequirements:
    """The paper's Section 4 requirements, encoded for the guide.

    - Sellers and buyers keep both the relationship and the agreement
      private from the network -> group-private interactions.
    - PII is deletable on request (GDPR) -> its own data class.
    - Non-personal trade data needs no deletion, encrypted sharing is
      permitted, and validators are the transaction's own parties.
    - Logic is 'highly standardized and non-confidential'.
    """
    return UseCaseRequirements(
        name="letter-of-credit",
        interaction_privacy=InteractionPrivacy.GROUP_PRIVATE,
        data_classes=(
            DataClassRequirements(
                name="pii",
                deletion_required=True,
            ),
            DataClassRequirements(
                name="trade-data",
                deletion_required=False,
                encrypted_sharing_allowed=True,
                onchain_record_desired=True,
                uninvolved_validation_required=False,
            ),
        ),
        logic=LogicRequirements(keep_logic_private=False),
        deployment=DeploymentContext(
            ordering_service_trusted=orderer_trusted,
            third_party_node_admin=False,
        ),
    )


def expected_paper_design() -> dict:
    """What Section 4's prose concludes, as assertions for the U1 bench."""
    return {
        "pii_primary": Mechanism.OFF_CHAIN_PEER_DATA,
        "trade_primary": Mechanism.SEPARATION_OF_LEDGERS_DATA,
        "interaction": Mechanism.SEPARATION_OF_LEDGERS_PARTIES,
        # "If a third party is trusted to run the ordering service and have
        # visibility of transacting parties, transaction data can be
        # encrypted." -> with an *untrusted* orderer the guide adds
        # symmetric encryption to the trade-data class.
        "untrusted_orderer_adds": Mechanism.SYMMETRIC_ENCRYPTION,
    }


def design_letter_of_credit(orderer_trusted: bool = True) -> SolutionDesign:
    """Run the guide over the LoC requirements."""
    return design_solution(letter_of_credit_requirements(orderer_trusted))


# ---------------------------------------------------------------------------
# Executable workflow
# ---------------------------------------------------------------------------

BUYER, SELLER, BANK = "BuyerCo", "SellerCo", "IssuingBank"
PARTIES = (BUYER, SELLER, BANK)


class Stage(NamedTuple):
    """One lifecycle step: who takes it and the status it leaves."""

    name: str
    actor: str
    status: str


STAGES = (
    Stage("apply", BUYER, "applied"),
    Stage("issue", BANK, "issued"),
    Stage("ship", SELLER, "shipped"),
    Stage("pay", BANK, "paid"),
)
APPLY, ISSUE, SHIP, PAY = STAGES
NEXT_STATUS = {
    done.status: then.status for done, then in zip(STAGES, STAGES[1:])
}


@dataclass
class LetterOfCredit:
    """The business object tracked on the segregated ledger."""

    loc_id: str
    buyer: str
    seller: str
    issuing_bank: str
    amount: int
    status: str = "applied"  # applied -> issued -> shipped -> paid


def _letter_key(loc_id: str) -> str:
    return f"loc/{loc_id}"


def _opened(args: dict) -> dict:
    """The record an application opens: the request's terms, at
    'applied'.  A Fabric request also names the parties, its ``bank``
    stored as ``issuing_bank``."""
    letter = {
        ("issuing_bank" if key == "bank" else key): value
        for key, value in args.items()
    }
    letter["status"] = "applied"
    return letter


def _advanced(loc_id: str, letter: dict | None) -> dict:
    """*letter* moved on one stage; refused if unknown or already paid."""
    if letter is None:
        raise PlatformError(f"unknown letter of credit {loc_id!r}")
    status = letter["status"]
    if status not in NEXT_STATUS:
        raise PlatformError(f"letter of credit already {status!r}")
    return {**letter, "status": NEXT_STATUS[status]}


def _apply_loc(view, args):
    """Contract body: open a letter."""
    letter = _opened(args)
    view.put(_letter_key(args["loc_id"]), letter)
    return letter


def _advance_loc(view, args):
    """Contract body: move a letter on one stage."""
    key = _letter_key(args["loc_id"])
    letter = _advanced(args["loc_id"], view.get(key))
    view.put(key, letter)
    return letter


def _loc_contract(contract_id: str, language: str) -> SmartContract:
    """The one contract body, as Fabric chaincode or a Quorum EVM contract."""
    return SmartContract(
        contract_id=contract_id, version=1, language=language,
        functions={"apply": _apply_loc, "advance": _advance_loc},
    )


class LetterHost:
    """How one platform hosts the workflow.  Each subclass only deploys
    (``deploy``), places and erases the KYC PII (``place_pii``,
    ``erase_pii``, ``pii_is_erased``), reads a party's copy of a letter
    (``letter``) and scopes a request to the three parties (``scoped``).
    ``lifecycle_passport`` is the PII :meth:`run_full_lifecycle
    <LetterOfCreditWorkflow.run_full_lifecycle>` places (None: the
    platform cannot hold any)."""

    lifecycle_passport: str | None = None

    def __init__(self, network) -> None:
        self.network = network

    def deploy(self, endorsement_policy) -> None:
        if endorsement_policy is not None:
            raise PlatformError(
                f"{self.network.platform_name} has no endorsement policy"
            )
        self._deploy()

    def scoped(self, request: TxRequest) -> TxRequest:
        """Corda participants / Quorum privacy group: the other two."""
        return replace(request, private_for=tuple(
            party for party in PARTIES if party != request.submitter
        ))


class FabricHost(LetterHost):
    """A channel of the three parties; PII in its ``kyc-pii`` PDC."""

    contract_id = "loc-contract"
    channel_name = "loc-channel"
    lifecycle_passport = "P-99887766"

    def deploy(self, endorsement_policy) -> None:
        """``endorsement_policy`` overrides the default all-of policy; the
        recovery scenario deploys with ``k_of(2, PARTIES)`` so the
        lifecycle can keep moving while one member is crashed."""
        channel = self.network.create_channel(self.channel_name, list(PARTIES))
        channel.create_collection("kyc-pii", list(PARTIES))
        self.network.deploy_chaincode(
            self.channel_name,
            _loc_contract(self.contract_id, "python-chaincode"),
            list(PARTIES),
            policy=endorsement_policy,
        )

    def _collection(self):
        return self.network.channel(self.channel_name).collection("kyc-pii")

    def place_pii(self, request: TxRequest, passport: str) -> TxRequest:
        loc_id = request.args["loc_id"]
        return replace(request, private_args={
            "kyc-pii": {f"passport/{loc_id}": {"number": passport}}
        })

    def erase_pii(self, loc_id: str) -> None:
        """Purge the passport record from every peer store."""
        self._collection().purge(
            f"passport/{loc_id}", reason="GDPR erasure request",
            now=self.network.clock.now,
        )

    def pii_is_erased(self, loc_id: str) -> bool:
        return all(
            store.is_deleted(f"passport/{loc_id}")
            for store in self._collection().stores.values()
        )

    def letter(self, loc_id: str, viewer: str) -> dict | None:
        """*viewer*'s state of the channel; a non-member holds none."""
        state = self.network.replicas[viewer].states.get(self.channel_name)
        return None if state is None else state.get_or(_letter_key(loc_id))

    def scoped(self, request: TxRequest) -> TxRequest:
        """The channel, endorsed on live peers only: with a k-of-n policy
        the lifecycle survives a crashed member until it recovers.  A
        channel record has no participants, so an application names its
        parties in the letter itself."""
        args = request.args
        if request.function == "apply":
            args = {
                "loc_id": args["loc_id"], "buyer": BUYER, "seller": SELLER,
                "bank": BANK, "amount": args["amount"],
            }
        live = [
            member for member in sorted(PARTIES)
            if not self.network.network.is_crashed(member)
        ]
        return replace(
            request, args=args, scope=self.channel_name,
            options={"endorsers": live},
        )


def _verify_loc(wire) -> None:
    for state in wire.outputs:
        if state.contract_id == "loc" and state.data.get("amount", 0) <= 0:
            raise PlatformError("letter amount must be positive")


class CordaHost(LetterHost):
    """Each letter a state of the three parties, consumed at every stage
    and signed by all three; PII in an external store, its hash anchored
    in the state."""

    contract_id = "loc"
    lifecycle_passport = "P-C-1"

    def _deploy(self) -> None:
        self.network.register_contract("loc", _verify_loc, language="kotlin")
        self.network.register_flow("loc", "apply", self._build_apply)
        self.network.register_flow("loc", "advance", self._build_advance)
        self.pii_store = OffChainStore(
            "loc-kyc", hosting=Hosting.EXTERNAL, authorized=set(PARTIES)
        )

    def _tip(self, viewer: str, loc_id: str):
        """(ref, state) of *loc_id*'s unconsumed state in *viewer*'s
        vault; (None, None) if it holds none."""
        for ref, state in self.network.vault(viewer).unconsumed.items():
            if state.contract_id == "loc" and state.data.get("loc_id") == loc_id:
                return ref, state
        return None, None

    def _wire(self, request: TxRequest, inputs: list, letter: dict, command: str):
        parties = tuple(
            p for p in PARTIES
            if p == request.submitter or p in request.private_for
        )
        return self.network.build_transaction(
            inputs=inputs,
            outputs=[ContractState("loc", parties, letter)],
            commands=[Command(name=command, signers=parties)],
        )

    def _build_apply(self, network, request: TxRequest):
        return self._wire(request, [], _opened(request.args), "Apply")

    def _build_advance(self, network, request: TxRequest):
        loc_id = request.args["loc_id"]
        ref, tip = self._tip(request.submitter, loc_id)
        letter = _advanced(loc_id, None if tip is None else tip.data)
        return self._wire(request, [ref], letter, "Advance")

    def place_pii(self, request: TxRequest, passport: str) -> TxRequest:
        loc_id = request.args["loc_id"]
        anchor = self.pii_store.put(
            f"passport/{loc_id}", {"number": passport},
            now=self.network.clock.now,
        )
        return replace(request, args={**request.args, "kyc_anchor": anchor})

    def erase_pii(self, loc_id: str) -> None:
        """Deletable because the store is application-managed ('*')."""
        self.pii_store.delete(
            f"passport/{loc_id}", reason="gdpr", now=self.network.clock.now
        )

    def pii_is_erased(self, loc_id: str) -> bool:
        return self.pii_store.is_deleted(f"passport/{loc_id}")

    def letter(self, loc_id: str, viewer: str) -> dict | None:
        __, tip = self._tip(viewer, loc_id)
        return None if tip is None else tip.data


class QuorumHost(LetterHost):
    """Private transactions among the three parties; no home for PII."""

    contract_id = "loc-evm"

    def _deploy(self) -> None:
        self.network.deploy_contract(
            BANK, _loc_contract(self.contract_id, "evm-solidity"),
            private_for=list(PARTIES),
        )

    def place_pii(self, *_args) -> TxRequest:
        """Refused: the design requires deletable PII, which this platform
        cannot provide -- deleting a private payload breaks state replay
        (Table 1 off-chain cell '-')."""
        raise PlatformError(
            "the letter-of-credit design requires deletable PII storage; "
            "Quorum private payloads must remain replayable, so PII must "
            "be kept off-platform (see Table 1 and the S4 design)"
        )

    erase_pii = pii_is_erased = place_pii

    def letter(self, loc_id: str, viewer: str) -> dict | None:
        state = self.network.replicas[viewer].states[PRIVATE]
        return state.get_or(_letter_key(loc_id))


_HOSTS = (
    (FabricNetwork, FabricHost),
    (CordaNetwork, CordaHost),
    (QuorumNetwork, QuorumHost),
)


class LetterOfCreditWorkflow:
    """The Section 4 lifecycle -- apply, issue, ship, pay -- on *network*.

    Parties: a buyer, a seller and the issuing bank, whose letters the
    rest of the network cannot see.  Every stage is one
    :class:`TxRequest` sent through :meth:`Platform.submit`; a stage the
    submitter's own copy shows cannot happen is refused before anything
    is sent.
    """

    PARTIES = PARTIES

    def __init__(self, network: Platform) -> None:
        self.network = network
        host = next(
            (host for kind, host in _HOSTS if isinstance(network, kind)), None
        )
        if host is None:
            raise PlatformError(
                f"no letter-of-credit hosting on {network.platform_name}"
            )
        self.host = host(network)
        self._initialized = False

    @property
    def telemetry(self):
        """The platform's telemetry bundle (spans, metrics, events)."""
        return self.network.telemetry

    def setup(
        self,
        extra_network_members: tuple[str, ...] = (),
        endorsement_policy=None,
    ) -> None:
        """Onboard parties, then deploy the platform's contract.

        ``endorsement_policy`` is Fabric's chaincode policy (default
        all-of); the other platforms refuse one.
        """
        for org in PARTIES + tuple(extra_network_members):
            self.network.onboard(org)
        self.host.deploy(endorsement_policy)
        self._initialized = True

    def _require_setup(self) -> None:
        if not self._initialized:
            raise RuntimeError("call setup() first")

    def _submit(self, stage: Stage, request: TxRequest, **attributes) -> None:
        with self.telemetry.span(f"loc.{stage.name}", **attributes):
            self.network.submit(self.host.scoped(request))

    def apply_for_credit(
        self, loc_id: str, amount: int, buyer_passport: str | None = None
    ) -> LetterOfCredit:
        """The buyer applies; KYC PII goes wherever the platform keeps it
        off the shared ledger.  Refused if the buyer already holds
        *loc_id*."""
        self._require_setup()
        if self.letter(loc_id, BUYER) is not None:
            raise PlatformError(f"letter of credit {loc_id!r} already exists")
        request = TxRequest(
            submitter=BUYER, contract_id=self.host.contract_id,
            function="apply", args={"loc_id": loc_id, "amount": amount},
        )
        attributes = {"loc_id": loc_id}
        if buyer_passport is not None:
            request = self.host.place_pii(request, buyer_passport)
            # Recorded on purpose: the telemetry redaction filter must hash
            # it before it ever reaches a span, and the leakage cross-check
            # test pins that behavior.
            attributes["buyer_passport"] = buyer_passport
        self._submit(APPLY, request, **attributes)
        return LetterOfCredit(loc_id, BUYER, SELLER, BANK, amount)

    def _advance(self, stage: Stage, loc_id: str) -> str:
        self._require_setup()
        _advanced(loc_id, self.letter(loc_id, stage.actor))
        request = TxRequest(
            submitter=stage.actor, contract_id=self.host.contract_id,
            function="advance", args={"loc_id": loc_id},
        )
        self._submit(stage, request, loc_id=loc_id, actor=stage.actor)
        return stage.status

    def issue(self, loc_id: str) -> str:
        """The bank vouches for the buyer."""
        return self._advance(ISSUE, loc_id)

    def ship(self, loc_id: str) -> str:
        """The seller ships against the issued letter."""
        return self._advance(SHIP, loc_id)

    def pay(self, loc_id: str) -> str:
        """Settlement (by the bank if the buyer defaults)."""
        return self._advance(PAY, loc_id)

    def letter(self, loc_id: str, viewer: str) -> dict | None:
        """*viewer*'s copy of the letter; None if it holds none."""
        return self.host.letter(loc_id, viewer)

    def status_of(self, loc_id: str, viewer: str) -> str:
        """The letter's status in *viewer*'s copy."""
        self._require_setup()
        letter = self.letter(loc_id, viewer)
        if letter is None:
            raise PlatformError(f"{viewer!r} holds no letter {loc_id!r}")
        return letter["status"]

    def erase_pii(self, loc_id: str) -> None:
        """GDPR erasure of the applicant's passport record."""
        self._require_setup()
        self.host.erase_pii(loc_id)
        self.telemetry.events.emit("loc.pii_erased", loc_id=loc_id)

    def pii_is_erased(self, loc_id: str) -> bool:
        return self.host.pii_is_erased(loc_id)

    def run_full_lifecycle(self, loc_id: str = "LC-001") -> LetterOfCredit:
        """Apply -> issue -> ship -> pay, returning the final object."""
        with self.telemetry.span("loc.lifecycle", loc_id=loc_id):
            loc = self.apply_for_credit(
                loc_id, amount=250_000,
                buyer_passport=self.host.lifecycle_passport,
            )
            self.issue(loc_id)
            self.ship(loc_id)
            loc.status = self.pay(loc_id)
        return loc
