"""The Section 4 use case: letters of credit.

"A letter of credit is a financial instrument in which a bank vouches to
pay a seller if a buyer is unable to make an agreed-upon payment.  Parties
on a DLT network used to record letters of credit are banks, sellers, and
buyers.  Sellers and buyers will neither want to share that they are
entering in a business relationship nor the details of their agreement
with the network."

This module provides (a) the paper's requirements, encoded; (b) the
expected design per the paper's own walkthrough, for the U1 benchmark to
check the guide against; and (c) an executable end-to-end letter-of-credit
workflow on the Fabric simulation, following that design: segregated
ledger (channel), PII off-chain with deletion, symmetric encryption for
the trusted-third-party-orderer variant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
from repro.platforms.base import TxRequest
from repro.platforms.fabric import FabricNetwork


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


@dataclass
class LetterOfCredit:
    """The business object tracked on the segregated ledger."""

    loc_id: str
    buyer: str
    seller: str
    issuing_bank: str
    amount: int
    status: str = "applied"  # applied -> issued -> shipped -> paid


@dataclass
class LetterOfCreditWorkflow:
    """End-to-end LoC lifecycle on a Fabric channel, per the S4 design.

    Parties: a buyer, a seller, and the issuing bank share a channel that
    the rest of the network cannot see.  PII (passport numbers for KYC)
    lives in a private data collection and can be erased on request; the
    LoC business states are channel state.
    """

    network: FabricNetwork = field(default_factory=lambda: FabricNetwork(seed="loc"))
    channel_name: str = "loc-channel"
    contract_id: str = "loc-contract"
    _initialized: bool = False

    PARTIES = ("BuyerCo", "SellerCo", "IssuingBank")

    @property
    def telemetry(self):
        """The platform's telemetry bundle (spans, metrics, events)."""
        return self.network.telemetry

    def setup(
        self,
        extra_network_members: tuple[str, ...] = (),
        endorsement_policy=None,
    ) -> None:
        """Onboard parties, create the segregated ledger, deploy logic.

        ``endorsement_policy`` overrides the default all-of policy; the
        recovery scenarios deploy with ``k_of(2, PARTIES)`` so the
        lifecycle can keep moving while one member is crashed.
        """
        for org in self.PARTIES + tuple(extra_network_members):
            self.network.onboard(org)
        channel = self.network.create_channel(self.channel_name, list(self.PARTIES))
        channel.create_collection("kyc-pii", list(self.PARTIES))

        def apply_loc(view, args):
            loc = {
                "loc_id": args["loc_id"], "buyer": args["buyer"],
                "seller": args["seller"], "issuing_bank": args["bank"],
                "amount": args["amount"], "status": "applied",
            }
            view.put(f"loc/{args['loc_id']}", loc)
            return loc

        def advance(view, args):
            key = f"loc/{args['loc_id']}"
            loc = view.get(key)
            if loc is None:
                raise ValueError(f"unknown letter of credit {args['loc_id']!r}")
            transitions = {
                "applied": "issued", "issued": "shipped", "shipped": "paid",
            }
            current = loc["status"]
            if current not in transitions:
                raise ValueError(f"letter of credit already {current!r}")
            loc = {**loc, "status": transitions[current]}
            view.put(key, loc)
            return loc

        contract = SmartContract(
            contract_id=self.contract_id, version=1,
            language="python-chaincode",
            functions={"apply": apply_loc, "advance": advance},
        )
        self.network.deploy_chaincode(
            self.channel_name, contract, list(self.PARTIES),
            policy=endorsement_policy,
        )
        self._initialized = True

    def _require_setup(self) -> None:
        if not self._initialized:
            raise RuntimeError("call setup() first")

    def live_endorsers(self) -> list[str]:
        """Channel members whose peers are currently up."""
        channel = self.network.channel(self.channel_name)
        return [
            m for m in sorted(channel.members)
            if not self.network.network.is_crashed(m)
        ]

    def apply_for_credit(
        self, loc_id: str, amount: int, buyer_passport: str
    ) -> LetterOfCredit:
        """Buyer applies; KYC PII goes to the off-chain collection only."""
        self._require_setup()
        # The passport attribute is recorded on purpose: the telemetry
        # redaction filter must hash it before it ever reaches a span, and
        # the leakage cross-check test pins that behavior.
        with self.telemetry.span(
            "loc.apply", loc_id=loc_id, buyer_passport=buyer_passport
        ):
            receipt = self.network.submit(TxRequest(
                submitter="BuyerCo",
                contract_id=self.contract_id,
                function="apply",
                args={
                    "loc_id": loc_id, "buyer": "BuyerCo", "seller": "SellerCo",
                    "bank": "IssuingBank", "amount": amount,
                },
                scope=self.channel_name,
                private_args={
                    "kyc-pii": {f"passport/{loc_id}": {"number": buyer_passport}}
                },
                options={"endorsers": self.live_endorsers()},
            ))
        loc = receipt.result
        return LetterOfCredit(
            loc_id=loc["loc_id"], buyer=loc["buyer"], seller=loc["seller"],
            issuing_bank=loc["issuing_bank"], amount=loc["amount"],
            status=loc["status"],
        )

    def _advance(self, step: str, actor: str, loc_id: str) -> str:
        with self.telemetry.span(f"loc.{step}", loc_id=loc_id, actor=actor):
            receipt = self.network.submit(TxRequest(
                submitter=actor,
                contract_id=self.contract_id,
                function="advance",
                args={"loc_id": loc_id},
                scope=self.channel_name,
                # Endorse on live peers only: with a k-of-n policy the
                # lifecycle survives a crashed member until it recovers.
                options={"endorsers": self.live_endorsers()},
            ))
        return receipt.result["status"]

    def issue(self, loc_id: str) -> str:
        """The bank vouches for the buyer."""
        return self._advance("issue", "IssuingBank", loc_id)

    def ship(self, loc_id: str) -> str:
        """The seller ships against the issued letter."""
        return self._advance("ship", "SellerCo", loc_id)

    def pay(self, loc_id: str) -> str:
        """Settlement (by the bank if the buyer defaults)."""
        return self._advance("pay", "IssuingBank", loc_id)

    def status_of(self, loc_id: str, viewer: str) -> str:
        """Read the LoC status from *viewer*'s channel replica."""
        self._require_setup()
        channel = self.network.channel(self.channel_name)
        return channel.state_of(viewer).get(f"loc/{loc_id}")["status"]

    def erase_pii(self, loc_id: str) -> None:
        """GDPR erasure: purge the passport record from every peer store."""
        self._require_setup()
        channel = self.network.channel(self.channel_name)
        channel.collection("kyc-pii").purge(
            f"passport/{loc_id}", reason="GDPR erasure request",
            now=self.network.clock.now,
        )
        self.telemetry.emit("loc.pii_erased", loc_id=loc_id)

    def pii_is_erased(self, loc_id: str) -> bool:
        channel = self.network.channel(self.channel_name)
        collection = channel.collection("kyc-pii")
        return all(
            store.is_deleted(f"passport/{loc_id}")
            for store in collection.stores.values()
        )

    def run_full_lifecycle(self, loc_id: str = "LC-001") -> LetterOfCredit:
        """Apply -> issue -> ship -> pay, returning the final object."""
        with self.telemetry.span("loc.lifecycle", loc_id=loc_id):
            loc = self.apply_for_credit(loc_id, amount=250_000,
                                        buyer_passport="P-99887766")
            self.issue(loc_id)
            self.ship(loc_id)
            final_status = self.pay(loc_id)
        loc.status = final_status
        return loc
