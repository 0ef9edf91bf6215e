"""The Section 4 letter of credit on Corda and Quorum.

The Fabric execution lives in :mod:`repro.usecases.letter_of_credit`;
these variants run the same business lifecycle on the other two
platforms, each the way its architecture (and its Table 1 column)
dictates:

- **Corda**: the segregated ledger is per-transaction (p2p flows among
  buyer, seller, issuing bank); PII lives in an application-managed
  external store with a hash anchor in the state — the '*' path, since
  Corda has no native PDC.
- **Quorum**: LoC states move through private transactions among the
  three parties; but the design's deletable-PII class has *no* faithful
  home — deleting a private payload breaks state replay (Table 1: '-').
  The workflow therefore refuses to place PII on the platform and
  reports the mismatch, which is exactly the answer the design guide's
  platform scoring gives (`score_platforms` ranks Quorum last for this
  use case).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import PlatformError
from repro.offchain.stores import Hosting, OffChainStore
from repro.platforms.corda import (
    Command,
    ContractState,
    CordaNetwork,
    StateRef,
)
from repro.platforms.quorum import QuorumNetwork
from repro.execution.contracts import SmartContract

PARTIES = ("BuyerCo", "SellerCo", "IssuingBank")
TRANSITIONS = {"applied": "issued", "issued": "shipped", "shipped": "paid"}


@dataclass
class CordaLetterOfCredit:
    """LoC lifecycle as consumed/produced states on p2p flows."""

    network: CordaNetwork = field(
        default_factory=lambda: CordaNetwork(seed="loc-corda")
    )
    _initialized: bool = False

    def setup(self, extra_network_members: tuple[str, ...] = ()) -> None:
        for org in PARTIES + tuple(extra_network_members):
            self.network.onboard(org)

        def verify(wire):
            for state in wire.outputs:
                if state.contract_id == "loc" and state.data.get("amount", 0) <= 0:
                    raise PlatformError("letter amount must be positive")

        self.network.register_contract("loc", verify, language="kotlin")
        self.pii_store = OffChainStore(
            "loc-kyc", hosting=Hosting.EXTERNAL, authorized=set(PARTIES)
        )
        self._tips: dict[str, StateRef] = {}
        self._initialized = True

    def _require_setup(self) -> None:
        if not self._initialized:
            raise RuntimeError("call setup() first")

    def apply_for_credit(self, loc_id: str, amount: int, buyer_passport: str):
        """Issue the initial state; PII goes to the external store."""
        self._require_setup()
        anchor = self.pii_store.put(
            f"passport/{loc_id}", {"number": buyer_passport},
            now=self.network.clock.now,
        )
        state = ContractState(
            contract_id="loc", participants=PARTIES,
            data={"loc_id": loc_id, "amount": amount, "status": "applied",
                  "kyc_anchor": anchor},
        )
        wire = self.network.build_transaction(
            inputs=[], outputs=[state],
            commands=[Command(name="Apply", signers=PARTIES)],
        )
        result = self.network.run_flow("BuyerCo", wire)
        self._tips[loc_id] = result.output_refs[0]
        return result

    def advance(self, actor: str, loc_id: str) -> str:
        """Consume the current state, produce the next-status state."""
        self._require_setup()
        ref = self._tips[loc_id]
        current = self.network.vault(actor).state_at(ref)
        status = current.data["status"]
        if status not in TRANSITIONS:
            raise PlatformError(f"letter of credit already {status!r}")
        next_state = ContractState(
            contract_id="loc", participants=PARTIES,
            data={**current.data, "status": TRANSITIONS[status]},
        )
        wire = self.network.build_transaction(
            inputs=[ref], outputs=[next_state],
            commands=[Command(name="Advance", signers=PARTIES)],
        )
        result = self.network.run_flow(actor, wire)
        self._tips[loc_id] = result.output_refs[0]
        return TRANSITIONS[status]

    def run_full_lifecycle(self, loc_id: str = "LC-C-001") -> str:
        self.apply_for_credit(loc_id, amount=250_000, buyer_passport="P-C-1")
        self.advance("IssuingBank", loc_id)
        self.advance("SellerCo", loc_id)
        return self.advance("IssuingBank", loc_id)

    def status_of(self, loc_id: str, viewer: str) -> str:
        return self.network.vault(viewer).state_at(self._tips[loc_id]).data["status"]

    def erase_pii(self, loc_id: str) -> None:
        """Deletable because the store is application-managed ('*')."""
        self.pii_store.delete(
            f"passport/{loc_id}", reason="gdpr", now=self.network.clock.now
        )

    def pii_is_erased(self, loc_id: str) -> bool:
        return self.pii_store.is_deleted(f"passport/{loc_id}")


@dataclass
class QuorumLetterOfCredit:
    """LoC lifecycle over private transactions — with the PII mismatch."""

    network: QuorumNetwork = field(
        default_factory=lambda: QuorumNetwork(seed="loc-quorum")
    )
    _initialized: bool = False

    def setup(self, extra_network_members: tuple[str, ...] = ()) -> None:
        for org in PARTIES + tuple(extra_network_members):
            self.network.onboard(org)

        def apply_loc(view, args):
            view.put(f"loc/{args['loc_id']}", {
                "loc_id": args["loc_id"], "amount": args["amount"],
                "status": "applied",
            })
            return "applied"

        def advance(view, args):
            key = f"loc/{args['loc_id']}"
            loc = view.get(key)
            status = TRANSITIONS[loc["status"]]
            view.put(key, {**loc, "status": status})
            return status

        contract = SmartContract(
            "loc-evm", 1, "evm-solidity",
            {"apply": apply_loc, "advance": advance},
        )
        self.network.deploy_contract(
            "IssuingBank", contract, private_for=list(PARTIES)
        )
        self._initialized = True

    def _require_setup(self) -> None:
        if not self._initialized:
            raise RuntimeError("call setup() first")

    def apply_for_credit(self, loc_id: str, amount: int):
        """No PII parameter: see :meth:`store_pii`."""
        self._require_setup()
        return self.network.send_private_transaction(
            "BuyerCo", "loc-evm", "apply",
            {"loc_id": loc_id, "amount": amount},
            private_for=[p for p in PARTIES if p != "BuyerCo"],
        )

    def advance(self, actor: str, loc_id: str):
        """Move the letter one stage on; refused before anything is sent
        once *actor*'s private state shows it terminal."""
        self._require_setup()
        state = self.network.private_states.get(actor)
        loc = None if state is None else state.get_or(f"loc/{loc_id}")
        if loc is not None and loc["status"] not in TRANSITIONS:
            raise PlatformError(f"letter of credit already {loc['status']!r}")
        return self.network.send_private_transaction(
            actor, "loc-evm", "advance", {"loc_id": loc_id},
            private_for=[p for p in PARTIES if p != actor],
        )

    def run_full_lifecycle(self, loc_id: str = "LC-Q-001") -> str:
        self.apply_for_credit(loc_id, amount=250_000)
        self.advance("IssuingBank", loc_id)
        self.advance("SellerCo", loc_id)
        result = self.advance("IssuingBank", loc_id)
        return result.return_values["IssuingBank"]

    def status_of(self, loc_id: str, viewer: str) -> str:
        return self.network.private_states[viewer].get(f"loc/{loc_id}")["status"]

    def store_pii(self, *_args, **_kwargs):
        """Refused: the design requires deletable PII, which this platform
        cannot provide — deleting a private payload breaks state replay
        (Table 1 off-chain cell '-').  Keep PII off this platform entirely.
        """
        raise PlatformError(
            "the letter-of-credit design requires deletable PII storage; "
            "Quorum private payloads must remain replayable, so PII must "
            "be kept off-platform (see Table 1 and the S4 design)"
        )
