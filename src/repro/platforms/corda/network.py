"""The Corda simulation.

Section 5: "Rather than globally broadcasting transactions to all peers in
the network or a sub-network, Corda uses a concept of peer-to-peer
transactions...  interactions between parties are kept private, both in
terms of the relationships that exist and data shared between them."

The flow model: the initiator builds a :class:`WireTransaction`, sends it
point-to-point to the counterparties, every participant verifies the
attached contract *by executing business logic outside the platform* (the
paper's off-chain execution characterization of Corda), all sign the
Merkle root, the notary certifies uniqueness (validating: sees all;
non-validating: sees a tear-off), and each participant's vault records the
result.  No uninvolved node ever receives a byte.  Each counterparty
verifies and signs in its own ``flow-proposal`` handler, and the notary
decides in its ``notarise-*`` handler; their replies are what the
initiator's call reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.common.errors import (
    ContractError,
    DeliveryTimeout,
    MembershipError,
    PlatformError,
    ReproError,
    ValidationError,
)
from repro.crypto.onetime import OneTimeIdentity, OneTimeKeyFactory, resolve_owner
from repro.crypto.signatures import Signature
from repro.ledger.transaction import Endorsement
from repro.network.messages import Refusal
from repro.platforms.base import (
    Party,
    Platform,
    delivers,
    TxReceipt,
    TxRequest,
)
from repro.platforms.corda.backchain import (
    collect_backchain,
    disclosure_of,
    verify_backchain,
)
from repro.platforms.corda.notary import NotarisationReceipt, Notary
from repro.platforms.corda.states import Command, ContractState, StateRef
from repro.platforms.corda.transactions import (
    ComponentGroup,
    SignedTransaction,
    WireTransaction,
)
from repro.platforms.corda.vault import Vault

NOTARY_NODE = "corda-notary"

ContractVerifier = Callable[[WireTransaction], None]

# A flow builder turns a platform-neutral TxRequest into the wire
# transaction the initiating node would assemble: (network, request) ->
# WireTransaction.  Builders close over application state (e.g. which
# StateRef is the current tip of an asset) exactly like a CorDapp flow.
FlowBuilder = Callable[["CordaNetwork", TxRequest], WireTransaction]


@dataclass
class FlowResult:
    """Outcome of one completed flow."""

    stx: SignedTransaction
    receipt: NotarisationReceipt
    output_refs: list[StateRef]


class CordaNetwork(Platform):
    """A Corda network: nodes with vaults, one notary, p2p flows."""

    platform_name = "corda"

    def __init__(
        self,
        seed: str = "corda",
        validating_notary: bool = False,
        notary_operators: tuple[str, ...] = ("third-party",),
        resilient_delivery: bool = False,
    ) -> None:
        super().__init__(seed=seed, resilient_delivery=resilient_delivery)
        self.notary = Notary(
            NOTARY_NODE,
            self.scheme,
            self.clock,
            validating=validating_notary,
            operators=notary_operators,
            network=self.network,
            contract_verifier=self._verify_contracts,
            telemetry=self.telemetry,
        )
        self.ordering = self.notary
        self.verifiers: dict[str, ContractVerifier] = {}
        self.verifier_language: dict[str, str] = {}
        self.flows: dict[tuple[str, str], FlowBuilder] = {}
        self._onetime_factories: dict[str, OneTimeKeyFactory] = {}
        self._onetime_index: dict[int, OneTimeIdentity] = {}

    # -- membership

    def onboard(self, name: str, attributes: dict | None = None) -> Party:
        party = super().onboard(name, attributes=attributes)
        self._onetime_factories[name] = OneTimeKeyFactory(
            root_certificate=party.certificate,
            ca=self.ca,
            scheme=self.scheme,
            rng=self.rng.fork("onetime:" + name),
        )
        node = self.network.node(name)
        node.on("flow-proposal", self._on_flow_proposal)
        node.on("finalise", self._on_finalise)
        node.on("backchain-tx", self._on_backchain_tx)
        for reply in ("flow-signature", "notarised", "attestation"):
            node.on(reply, self.network.record_reply)
        return party

    def _new_replica(self, name: str) -> Vault:
        return Vault(owner=name)

    @property
    def vaults(self) -> dict[str, Vault]:
        """Each node's vault: the replicas themselves."""
        return self.replicas

    def vault(self, name: str) -> Vault:
        if name not in self.replicas:
            raise PlatformError(f"unknown party {name!r}")
        return self.replicas[name]

    # -- CorDapps: contracts travel with the states that reference them

    def register_contract(
        self, contract_id: str, verifier: ContractVerifier, language: str = "kotlin"
    ) -> None:
        """Register the verify function participants run for a contract."""
        self.verifiers[contract_id] = verifier
        self.verifier_language[contract_id] = language

    def _verify_contracts(self, wire: WireTransaction) -> None:
        """Run every referenced contract's verify over the transaction."""
        contract_ids = {state.contract_id for state in wire.outputs}
        for contract_id in sorted(contract_ids):
            verifier = self.verifiers.get(contract_id)
            if verifier is None:
                raise ContractError(f"no verifier registered for {contract_id!r}")
            verifier(wire)

    def register_flow(
        self, contract_id: str, function: str, builder: FlowBuilder
    ) -> None:
        """Register the flow the pipeline runs for ``contract_id.function``.

        Corda has no server-side contract-function dispatch: the initiator
        assembles the transaction locally and runs a flow.  The builder is
        that assembly step; :meth:`_submit_one_native` then drives the
        native :meth:`run_flow` with its output.
        """
        if contract_id not in self.verifiers:
            raise ContractError(f"no verifier registered for {contract_id!r}")
        self.flows[(contract_id, function)] = builder

    # -- confidential identities (one-time public keys, Section 2.1)

    def create_confidential_identity(self, owner: str) -> OneTimeIdentity:
        """Mint a fresh one-time key for *owner*; certificate stays off-ledger."""
        identity = self._onetime_factories[owner].mint()
        self._crypto_ops["one-time-public-keys"].inc()
        self._onetime_index[identity.public.y] = identity
        return identity

    def reveal_owner(self, counterparty: str, key_y: int) -> str:
        """Resolve a one-time key via its linking certificate.

        Models handing the linking certificate to an authorized
        counterparty; anyone without the certificate only sees the key.
        """
        identity = self._onetime_index.get(key_y)
        if identity is None:
            raise MembershipError("no linking certificate available for this key")
        owner, __ = resolve_owner(self.ca, identity.linking_certificate)
        return owner

    # -- the flow

    def _signers_of(self, wire: WireTransaction) -> set[str]:
        return {signer for command in wire.commands for signer in command.signers}

    def _participants_of(self, wire: WireTransaction) -> set[str]:
        return {party for state in wire.outputs for party in state.participants}

    def build_transaction(
        self,
        inputs: list[StateRef],
        outputs: list[ContractState],
        commands: list[Command],
        attachments: list[str] | None = None,
    ) -> WireTransaction:
        """Assemble a wire transaction bound to this network's notary."""
        return WireTransaction(
            inputs=tuple(inputs),
            outputs=tuple(outputs),
            commands=tuple(commands),
            attachments=tuple(attachments or ()),
            notary=NOTARY_NODE,
            time_window=self.clock.now,
        )

    def _sign(self, signer: str, wire: WireTransaction) -> Signature:
        """*signer*'s signature over *wire*'s Merkle root."""
        self._crypto_ops["flow-signature"].inc()
        return self.scheme.sign(self.parties[signer].key, wire.signing_payload())

    @delivers
    def run_flow(
        self,
        initiator: str,
        wire: WireTransaction,
        extra_signatures: dict[str, object] | None = None,
    ) -> FlowResult:
        """Execute the collect-signatures / notarise / finalise flow.

        The initiator verifies the contracts and proposes *wire* to every
        counterparty, which verifies and signs in its ``flow-proposal``
        handler.  With the signatures in, it asks the notary, which
        decides in its ``notarise-*`` handler; then it finalises.  A
        counterparty's or the notary's refusal is raised here.

        ``extra_signatures`` maps pseudonymous signer labels to
        pre-computed signatures (used with one-time keys, where the signer
        is not an onboarded legal identity).
        """
        participants = self._participants_of(wire)
        signers = self._signers_of(wire)
        legal_signers = {s for s in signers if s in self.parties}
        if initiator not in self.parties:
            raise MembershipError(f"initiator {initiator!r} is not onboarded")
        self.authenticate(initiator)
        # Fail before proposals go out or vaults change so the flow can be
        # re-run cleanly after the notary recovers.
        leader = self.notary.require_available()

        counterparties = sorted(
            (participants | legal_signers) & set(self.parties) - {initiator}
        )

        with self.telemetry.span(
            "corda.flow", initiator=initiator, outputs=len(wire.outputs)
        ):
            # 1. The initiator verifies contract logic locally (business
            # logic executes outside the platform — the paper's Corda
            # model), then proposes to every involved legal identity,
            # which verifies and signs on delivery.
            with self.telemetry.span("corda.verify"):
                self._verify_contracts(wire)
            with self.telemetry.span(
                "corda.propose", counterparties=len(counterparties)
            ):
                proposals = [
                    self._send_critical(initiator, counterparty, "flow-proposal", wire)
                    for counterparty in counterparties
                ]

            # 2. Collect the signatures over the Merkle root.
            with self.telemetry.span("corda.sign", signers=len(signers)):
                replies = self.network.outcomes(proposals)
                answers = {reply.sender: reply.payload for reply in replies}
                signatures = {
                    signer: self._sign(signer, wire) if signer == initiator
                    else answers[signer].signature
                    for signer in sorted(legal_signers)
                }
                signatures.update(extra_signatures or {})
                missing = signers - set(signatures)
                if missing:
                    raise ValidationError(
                        f"missing signatures from {sorted(missing)}"
                    )
                stx = SignedTransaction(wire=wire, signatures=signatures)

            # 3. Notarise.  Non-validating notaries get a tear-off only.
            with self.telemetry.span(
                "corda.notarise", validating=self.notary.validating
            ):
                if self.notary.validating:
                    kind, request = "notarise-full", stx
                else:
                    kind = "notarise-filtered"
                    request = wire.filtered(
                        [ComponentGroup.INPUTS, ComponentGroup.NOTARY]
                    )
                    self._crypto_ops["merkle-tear-off"].inc()
                with self.network.acting_on(replies[-1] if replies else None):
                    sent = self._send_critical(initiator, leader, kind, request)
                notarised = self.network.outcome(sent)

            # 4. Finalise: record in the initiator's vault and ship to every
            # other involved party (recorded on delivery), preceded by the
            # backchain of every consumed input (transaction resolution) —
            # new counterparties must be able to verify provenance, which is
            # the mechanism's inherent history disclosure.
            with self.telemetry.span("corda.finalise"):
                self.replicas[initiator].record(stx)
                with self.network.acting_on(notarised):
                    for counterparty in counterparties:
                        for ref in wire.inputs:
                            self.resolve_backchain(initiator, counterparty, ref)
                        self._send_or_lag(initiator, counterparty, "finalise", stx)
        output_refs = [
            StateRef(tx_id=wire.tx_id, index=i) for i in range(len(wire.outputs))
        ]
        return FlowResult(
            stx=stx, receipt=notarised.payload, output_refs=output_refs
        )

    def _on_flow_proposal(self, message) -> None:
        """Delivery handler for ``flow-proposal``: the counterparty verifies
        the contracts of the wire transaction it carries, signs its root
        if it is a required signer, and replies ``flow-signature`` with
        its :class:`~repro.ledger.transaction.Endorsement` (``None`` from a
        participant that does not sign) or its refusal."""
        wire = message.payload
        party = message.recipient
        try:
            self._verify_contracts(wire)
        except ReproError as error:
            answer = Refusal(error)
        else:
            answer = (
                Endorsement(party, self._sign(party, wire))
                if party in self._signers_of(wire) else None
            )
        self.network.reply(message, "flow-signature", answer)

    # ------------------------------------------------------------------
    # Unified transaction pipeline (Platform hooks)
    #
    # Corda mapping: the registered :class:`FlowBuilder` for
    # (contract_id, function) assembles the wire transaction — typically
    # reading ``request.args`` and ``request.private_for`` (the state's
    # participants) — and the native flow runs it end to end.  There is
    # no batch-accumulating orderer: the notary answers per transaction,
    # so ``force_cut`` has nothing to act on and batches run sequentially
    # through the same flow.  ``private_args`` is refused: every
    # participant of a Corda state sees the whole state.
    # ------------------------------------------------------------------

    def _submit_one_native(self, request: TxRequest) -> TxReceipt:
        if request.private_args is not None:
            raise PlatformError(
                "corda shares each state with all of its participants; "
                "TxRequest.private_args is not supported — model "
                "confidential fields with off-ledger anchors or tear-offs"
            )
        builder = self.flows.get((request.contract_id, request.function))
        if builder is None:
            raise PlatformError(
                f"no flow registered for {request.contract_id!r}."
                f"{request.function!r}; call register_flow first"
            )
        submitted_at = self.clock.now
        wire = builder(self, request)
        result = self.run_flow(request.submitter, wire)
        return TxReceipt(
            request=request,
            platform=self.platform_name,
            tx_id=result.stx.wire.tx_id,
            committed=True,
            status="committed",
            submitted_at=submitted_at,
            committed_at=self.clock.now,
            result=result,
            info={
                "output_refs": [
                    [ref.tx_id, ref.index] for ref in result.output_refs
                ],
                "notary_validating": self.notary.validating,
            },
        )

    def _state_snapshot(self) -> dict:
        vaults = {}
        for name, vault in sorted(self.replicas.items()):
            # tx ids are content-derived, so listing them pins the full
            # transaction content; unconsumed refs pin the spend frontier.
            vaults[name] = {
                "transactions": sorted(vault.transactions),
                "unconsumed": sorted(
                    [ref.tx_id, ref.index] for ref in vault.unconsumed
                ),
            }
        return {"platform": self.platform_name, "vaults": vaults}

    # -- delivery handlers: the recipient's vault takes the stx its
    #    message carries

    def _on_finalise(self, message) -> None:
        self.replicas[message.recipient].record(message.payload)

    def _on_backchain_tx(self, message) -> None:
        """``backchain-tx``, in transaction resolution or a peer's catch-up
        answer: store the shipped history."""
        stx = message.payload
        self.replicas[message.recipient].transactions.setdefault(stx.wire.tx_id, stx)

    # -- transaction resolution (backchain)

    @delivers
    def resolve_backchain(
        self, provider: str, requester: str, ref: StateRef
    ):
        """Ship a state's full lineage from *provider* to *requester*.

        The requester verifies the chain structurally and records every
        ancestor in its vault on delivery — and, unavoidably, learns
        everything those ancestors disclose.  Returns the
        :class:`~repro.platforms.corda.backchain.BackchainDisclosure`
        accounting for that leak (see the S2 backchain ablation).
        """
        for party in (provider, requester):
            if party not in self.parties:
                raise MembershipError(f"{party!r} is not onboarded")
        backchain = collect_backchain(self.replicas[provider], ref.tx_id)
        if not verify_backchain(backchain, ref):
            raise ValidationError("backchain failed structural verification")
        for stx in backchain:
            self._send_or_lag(provider, requester, "backchain-tx", stx)
        return disclosure_of(backchain)

    def _send_or_lag(self, sender, recipient, kind, stx) -> None:
        """Send *stx*; with ``resilient_delivery`` a recipient still
        unreachable after the retries lags until :meth:`recover`."""
        try:
            self._send_critical(sender, recipient, kind, stx)
        except DeliveryTimeout:
            pass

    # ------------------------------------------------------------------
    # Crash recovery (Platform hooks)
    #
    # Durable per node: checkpoints only — the vault IS the node's store,
    # and it is volatile here (the crash wipes it).  Catch-up therefore
    # asks every live peer for transaction chains, and the visibility
    # rule is Corda's own: a peer serves a lagging node exactly the
    # transactions that node was a party to (output participant or
    # command signer), never the rest of its vault.  The unconsumed-state
    # view is then rebuilt as a pure function of the recovered store.
    # ------------------------------------------------------------------

    def _entitled_parties(self, stx: SignedTransaction) -> set[str]:
        """Who is entitled to hold *stx*: participants and signers."""
        return (
            self._participants_of(stx.wire) | self._signers_of(stx.wire)
        )

    def _catchup_request(self, name: str, scope: None) -> tuple[str, ...]:
        """The ids of the transactions *name*'s vault holds: it cannot know
        what it lacks, so it asks every live peer."""
        return tuple(sorted(self.replicas[name].transactions))

    def _catchup_answer(self, provider: str, requester: str, held) -> tuple:
        """Each transaction of *provider*'s vault the requester does not
        hold and was a party to."""
        held = set(held)
        transactions = self.replicas[provider].transactions
        return tuple(
            ("backchain-tx", transactions[tx_id])
            for tx_id in sorted(transactions)
            if tx_id not in held
            # The privacy filter: a peer never re-serves a transaction
            # the lagging node was not party to.
            and requester in self._entitled_parties(transactions[tx_id])
        )

    def _caught_up(self, name: str, pairs: list[tuple]) -> None:
        self.replicas[name].rebuild_unconsumed()
