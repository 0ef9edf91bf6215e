"""The Hyperledger Fabric simulation.

Reproduces Fabric's privacy architecture as the paper describes it
(Section 5): channels as separate ledgers, chaincode visible only where
installed, an ordering service with full visibility of channel members and
transactions, Idemix for zero-knowledge client identity, and private data
collections.  The execute-order-validate flow is message-accurate: every
proposal, endorsement, submission, and block delivery between two nodes
crosses the simulated network, so the leakage auditor can account for
every exposure.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.common.errors import (
    EndorsementError,
    MembershipError,
    PlatformError,
    ReproError,
    ValidationError,
)
from repro.crypto.anoncred import (
    CredentialHolder,
    CredentialIssuer,
    verify_presentation,
)
from repro.execution.contracts import SmartContract
from repro.execution.engines import LedgerEngine
from repro.ledger.ordering import OrderingService
from repro.ledger.transaction import (
    Endorsement,
    ReadEntry,
    Transaction,
    WriteEntry,
)
from repro.ledger.state import WorldState
from repro.ledger.validation import EndorsementPolicy, verify_endorsements
from repro.network.messages import Exposure
from repro.platforms.base import (
    Platform,
    delivers,
    TxReceipt,
    TxRequest,
    rejection_receipt,
)
from repro.platforms.fabric.channel import Channel
from repro.recovery.catchup import catchup_dedup_key, pick_provider, ship

ORDERER_NODE = "fabric-orderer"
ANONYMOUS_CLIENT = "anonymous-client"


def _tx_exposure(tx: Transaction) -> Exposure:
    """What carrying *tx* exposes: its participants and the keys it
    reads and writes (order submission and ``block``, live or re-sent)."""
    return Exposure.of(
        identities=set(tx.metadata.get("participants", [])),
        data_keys={w.key for w in tx.writes} | {r.key for r in tx.reads},
    )


class ValidationCode(enum.Enum):
    """Fabric-style per-transaction validation outcomes."""

    VALID = "VALID"
    MVCC_READ_CONFLICT = "MVCC_READ_CONFLICT"
    ENDORSEMENT_POLICY_FAILURE = "ENDORSEMENT_POLICY_FAILURE"


@dataclass
class ProposedTransaction:
    """An endorsed transaction awaiting ordering (propose-phase output).

    ``contract_id`` names the chaincode it was endorsed for: validation
    checks that chaincode's endorsement policy.  The channel is
    ``tx.channel``.
    """

    tx: Transaction
    contract_id: str
    return_value: object


@dataclass
class InvokeResult:
    """Outcome of one chaincode invocation through the full flow."""

    tx: Transaction
    return_value: object
    valid: bool
    commit_time: float
    validation_code: "ValidationCode" = None  # set by the commit path


class FabricNetwork(Platform):
    """A Fabric network: orgs with one peer each, channels, and one
    ordering service, replicated over one node per ``orderer_operators``
    entry when there are several."""

    platform_name = "fabric"

    def __init__(
        self,
        seed: str = "fabric",
        orderer_operators: tuple[str, ...] = ("third-party",),
        resilient_delivery: bool = False,
    ) -> None:
        super().__init__(seed=seed, resilient_delivery=resilient_delivery)
        # The Idemix client: anonymous proposals and their order
        # submission come from here, and its endorsements come back here.
        self.network.add_node(ANONYMOUS_CLIENT)
        self.orderer = OrderingService(
            ORDERER_NODE,
            self.clock,
            operators=orderer_operators,
            network=self.network,
            telemetry=self.telemetry,
        )
        self.ordering = self.orderer
        self.channels: dict[str, Channel] = {}
        # contract id -> channel it is committed on; lets the pipeline
        # infer the channel when TxRequest.scope is omitted.
        self.contract_channels: dict[str, str] = {}
        self.engine = LedgerEngine(telemetry=self.telemetry)
        self.idemix_issuer = CredentialIssuer(
            "fabric-idemix-msp", scheme=self.scheme, rng=self.rng.fork("idemix")
        )
        self._idemix_holders: dict[str, CredentialHolder] = {}

    # -- membership & channels

    def onboard(self, name: str, attributes: dict | None = None):
        party = super().onboard(name, attributes=attributes)
        self.idemix_issuer.enroll(name, {"msp": "fabric", **(attributes or {})})
        self._idemix_holders[name] = CredentialHolder(
            name, self.idemix_issuer, rng=self.rng.fork("holder:" + name)
        )
        self.network.node(name).on("block", self._on_block)
        return party

    def create_channel(self, name: str, members: list[str]) -> Channel:
        """Stand up a separate ledger for *members* only."""
        for member in members:
            if member not in self.parties:
                raise MembershipError(f"{member!r} is not onboarded")
        if name in self.channels:
            raise PlatformError(f"channel {name!r} already exists")
        channel = Channel(name, members)
        self.channels[name] = channel
        return channel

    def channel(self, name: str) -> Channel:
        if name not in self.channels:
            raise PlatformError(f"unknown channel {name!r}")
        return self.channels[name]

    # -- chaincode lifecycle

    def install_chaincode(self, org: str, contract: SmartContract) -> None:
        """Install code on one org's peer (code visible only there)."""
        self.engine.install(org, contract)

    def deploy_chaincode(
        self,
        channel_name: str,
        contract: SmartContract,
        endorsers: list[str],
        policy: EndorsementPolicy | None = None,
    ) -> None:
        """Full lifecycle: install on endorsers, approve by all, commit."""
        channel = self.channel(channel_name)
        for endorser in endorsers:
            channel.require_member(endorser)
            self.install_chaincode(endorser, contract)
        policy = policy or EndorsementPolicy.all_of(endorsers)
        for member in channel.members:
            channel.approve_definition(member, contract.contract_id, contract.version, policy)
        channel.commit_definition(contract.contract_id)
        self.contract_channels[contract.contract_id] = channel_name

    # -- the execute-order-validate flow

    def _crashed_members(self, channel: Channel) -> set[str]:
        """Members whose peers are currently down (miss blocks, lag state)."""
        return {m for m in channel.members if self.network.is_crashed(m)}

    @delivers
    def propose(
        self,
        channel_name: str,
        submitter: str,
        contract_id: str,
        function: str,
        args: dict,
        endorsers: list[str] | None = None,
        collection_writes: dict[str, dict] | None = None,
        anonymous: bool = False,
    ) -> "ProposedTransaction":
        """Run the propose/endorse phase only; returns an endorsed proposal.

        Several proposals endorsed against the same snapshot can then be
        submitted together with :meth:`submit_batch`, which is how MVCC
        read conflicts arise in real Fabric.  ``collection_writes`` maps
        PDC name -> {key: value}; the values go to member peer stores,
        only hashes reach the ledger, and the PDC member list is disclosed
        in transaction metadata (the paper's caveat).  ``anonymous=True``
        submits with an Idemix presentation instead of the client
        certificate.
        """
        channel = self.channel(channel_name)
        if not anonymous:
            channel.require_member(submitter)
            self.authenticate(submitter)
        definition = channel.committed_definition(contract_id)
        endorsers = endorsers or sorted(
            definition.policy.required & channel.members
        )
        for endorser in endorsers:
            channel.require_member(endorser)

        visible_identities = set(endorsers)
        metadata: dict = {}
        if anonymous:
            holder = self._idemix_holders[submitter]
            presentation = holder.obtain_presentation({"msp": "fabric"})
            if not verify_presentation(self.idemix_issuer, presentation):
                raise MembershipError("Idemix presentation failed verification")
            self.telemetry.metrics.counter("crypto.ops", mechanism="idemix").inc()
            metadata["anonymous"] = True
            metadata["idemix"] = {
                "disclosed": presentation.disclosed,
                "nonce": presentation.nonce.hex(),
            }
            client = ANONYMOUS_CLIENT
        else:
            visible_identities.add(submitter)
            client = submitter

        # Send the proposals, execute on each endorser, check agreement.
        proposal_exposure = Exposure.of(
            identities=visible_identities, code_ids={contract_id}
        )
        reference = channel.reference_state(skip=self._crashed_members(channel))
        results = []
        with self.telemetry.span(
            "fabric.endorse",
            channel=channel.name,
            contract=contract_id,
            endorsers=len(endorsers),
        ):
            for endorser in endorsers:
                # An endorser-submitter executes its own proposal in place.
                if endorser != client:
                    self.network.send(
                        client,
                        endorser,
                        "proposal",
                        {"contract": contract_id, "function": function, "args": args},
                        exposure=proposal_exposure,
                    )
                results.append(self.engine.execute(
                    endorser, contract_id, function, args, reference
                ))
        execution = results[0]
        for endorser, result in zip(endorsers[1:], results[1:]):
            if result.writes != execution.writes or result.deletes != execution.deletes:
                raise EndorsementError(
                    f"endorser {endorser!r} produced a divergent write set"
                )

        private_hashes: dict = {}
        if collection_writes:
            disclosures = []
            for collection_name, writes in collection_writes.items():
                collection = channel.collection(collection_name)
                for key, value in writes.items():
                    anchor = collection.put(
                        endorsers[0] if anonymous else submitter,
                        key,
                        value,
                        now=self.clock.now,
                    )
                    private_hashes[f"{collection_name}/{key}"] = anchor
                    self.telemetry.metrics.counter(
                        "crypto.ops", mechanism="private-data-collection"
                    ).inc()
                disclosures.append(collection.disclosure())
            metadata["collections"] = disclosures

        # The participant list the orderer will see (paper Section 5) is
        # part of the content every endorser signs.
        metadata["participants"] = sorted(visible_identities)
        tx = Transaction(
            channel=channel_name,
            submitter=client,
            reads=tuple(ReadEntry(key=k, version=v) for k, v in sorted(execution.reads.items())),
            writes=tuple(
                [WriteEntry(key=k, value=v) for k, v in sorted(execution.writes.items())]
                + [WriteEntry(key=k, is_delete=True) for k in sorted(execution.deletes)]
            ),
            private_hashes=private_hashes,
            metadata=metadata,
            timestamp=self.clock.now,
        )
        endorsements = []
        for endorser in endorsers:
            signature = self.scheme.sign(self.parties[endorser].key, tx.signing_bytes())
            self.telemetry.metrics.counter(
                "crypto.ops", mechanism="endorsement-signature"
            ).inc()
            endorsement = Endorsement(endorser=endorser, signature=signature)
            endorsements.append(endorsement)
            if endorser != client:
                self.network.send(
                    endorser,
                    client,
                    "endorsement",
                    endorsement,
                    exposure=Exposure.of(identities={endorser}),
                )
        tx = tx.with_endorsements(endorsements)
        return ProposedTransaction(
            tx=tx,
            contract_id=contract_id,
            return_value=execution.return_value,
        )

    @delivers
    def invoke(
        self,
        channel_name: str,
        submitter: str,
        contract_id: str,
        function: str,
        args: dict,
        endorsers: list[str] | None = None,
        collection_writes: dict[str, dict] | None = None,
        anonymous: bool = False,
    ) -> InvokeResult:
        """Full flow for one transaction: propose -> order -> commit.

        Raises :class:`ValidationError` if the transaction is invalidated
        at commit (e.g. a stale read).  For batch semantics with per-tx
        validation codes, use :meth:`propose` + :meth:`submit_batch`.
        Raises :class:`OrderingError` before anything is endorsed or sent
        when the ordering service cannot take the transaction.
        """
        self.orderer.require_available()
        with self.telemetry.span(
            "fabric.invoke",
            channel=channel_name,
            contract=contract_id,
            function=function,
        ):
            proposal = self.propose(
                channel_name, submitter, contract_id, function, args,
                endorsers=endorsers, collection_writes=collection_writes,
                anonymous=anonymous,
            )
            result = self.submit_batch(channel_name, [proposal])[0]
        if not result.valid:
            raise ValidationError(
                f"transaction {result.tx.tx_id} invalidated: "
                f"{result.validation_code}"
            )
        return result

    @delivers
    def submit_batch(
        self,
        channel_name: str,
        proposals: list["ProposedTransaction"],
        force_cut: bool = True,
    ) -> list[InvokeResult]:
        """Order several endorsed proposals into one block and commit.

        Mirrors Fabric's validate phase: every transaction lands on the
        chain, each carrying a validation code; only VALID transactions
        mutate state.  Proposals endorsed against the same snapshot that
        touch the same keys therefore conflict — the first commits, the
        rest are marked MVCC_READ_CONFLICT.

        ``force_cut=True`` (the synchronous default) flushes the orderer
        immediately; ``force_cut=False`` leaves the cut to the orderer's
        own policy, so a partial batch is not released until its oldest
        transaction has waited out ``batch_timeout`` — the backpressure a
        drip-feeding client actually experiences.
        """
        channel = self.channel(channel_name)
        # Fail before any state or queue mutation so a caller can retry the
        # whole batch after recovery without double-apply.
        leader = self.orderer.require_available()
        with self.telemetry.span(
            "fabric.order", channel=channel_name, batch_size=len(proposals)
        ):
            for proposal in proposals:
                if proposal.tx.channel != channel_name:
                    raise PlatformError("proposal belongs to a different channel")
                exposure = _tx_exposure(proposal.tx)
                self._send_critical(
                    proposal.tx.submitter, leader, "submit", proposal.tx,
                    exposure=exposure,
                )
                self.orderer.submit(proposal.tx, exposure)
            batch = self.orderer.cut_batch(channel_name, force=force_cut)
        return self._commit_block(channel, leader, proposals, batch.released_at)

    def _commit_block(
        self,
        channel: Channel,
        leader: str,
        proposals: list["ProposedTransaction"],
        released_at: float,
    ) -> list[InvokeResult]:
        """Validate each tx of one block, then send it from the orderer's
        *leader* to every live member.

        Fabric semantics: every transaction lands on the chain with a
        validation code; invalid ones do not touch state.  Validation runs
        sequentially against the channel's committed versions, so a tx
        whose read set an earlier valid tx wrote conflicts, in this block
        or an earlier one, however far a replica lags.  Replicas apply the
        valid writes when the ``block`` message reaches them
        (:meth:`_on_block`).
        """
        results: list[InvokeResult] = []
        # A crashed member misses block delivery and its replica lags —
        # that is what checkpoint + catch-up recover from later.  Live
        # members keep committing as long as the endorsement policy can
        # still be met without the crashed peer.
        crashed = self._crashed_members(channel)
        live = [m for m in sorted(channel.members) if m not in crashed]
        if not self.resilient_delivery:
            # Refuse an unreachable member before anything is committed,
            # as the block broadcast would.
            for member in live:
                self.network._check_link(leader, member)
        for proposal in proposals:
            tx = proposal.tx
            with self.telemetry.span(
                "fabric.validate", channel=channel.name
            ) as validate_span:
                code = ValidationCode.VALID
                # 1. Endorsement policy of the chaincode the proposal was
                # endorsed for.  Every live committing peer validates
                # independently (the honest Fabric model); the signature-
                # verification cache turns the repeats into lookups.
                policy = channel.committed_definition(proposal.contract_id).policy
                try:
                    for __ in live or [None]:
                        verify_endorsements(
                            tx, policy, self.scheme,
                            lambda n: self.parties[n].public_key,
                        )
                except EndorsementError:
                    code = ValidationCode.ENDORSEMENT_POLICY_FAILURE
                # 2. MVCC read-set check against the committed versions.
                if code is ValidationCode.VALID:
                    for read in tx.reads:
                        if channel.versions.get(read.key, 0) != read.version:
                            code = ValidationCode.MVCC_READ_CONFLICT
                            break
                self.telemetry.tracer.set_attribute(
                    validate_span, "validation_code", code.value
                )
                self.telemetry.metrics.counter(
                    "fabric.validation", code=code.value
                ).inc()
            valid = code is ValidationCode.VALID
            with self.telemetry.span(
                "fabric.commit", channel=channel.name, valid=valid
            ):
                entry = channel.record_commit(tx, valid)
            self._fan_out(leader, live, "block", entry, _tx_exposure(tx))
            results.append(InvokeResult(
                tx=tx,
                return_value=proposal.return_value,
                valid=valid,
                commit_time=released_at,
                validation_code=code,
            ))
        channel.chain.append([p.tx for p in proposals], self.clock.now)
        self.clock.advance_to(released_at)
        return results

    def _on_block(self, message) -> None:
        """Delivery handler for ``block``, from the orderer or re-sent by a
        peer in catch-up: the recipient's replica applies the block entry
        it carries, in commit order."""
        entry = message.payload
        self.channels[entry.tx.channel].apply(message.recipient, entry)

    # ------------------------------------------------------------------
    # Unified transaction pipeline (Platform hooks)
    #
    # A TxRequest routes through the *same* propose -> order -> validate
    # -> commit path as the native entrypoints.  Fabric-specific mapping:
    # ``scope`` is the channel (inferred from the committed chaincode when
    # omitted), ``private_args`` are PDC collection writes, and
    # ``options`` may carry ``endorsers`` / ``anonymous``.  ``private_for``
    # is refused — Fabric's confidentiality tools are channels and PDCs,
    # not ad-hoc participant lists.
    # ------------------------------------------------------------------

    def _request_channel(self, request: TxRequest) -> str:
        if request.scope:
            return request.scope
        channel_name = self.contract_channels.get(request.contract_id)
        if channel_name is None:
            raise PlatformError(
                f"cannot infer a channel for contract {request.contract_id!r}; "
                "set TxRequest.scope"
            )
        return channel_name

    def _check_request(self, request: TxRequest) -> None:
        if request.private_for is not None:
            raise PlatformError(
                "fabric expresses confidentiality through channels and "
                "private data collections; TxRequest.private_for is not "
                "supported — use scope and private_args"
            )

    def _receipt_from(
        self, request: TxRequest, result: InvokeResult, submitted_at: float
    ) -> TxReceipt:
        return TxReceipt(
            request=request,
            platform=self.platform_name,
            tx_id=result.tx.tx_id,
            committed=result.valid,
            status="committed" if result.valid else result.validation_code.value,
            submitted_at=submitted_at,
            committed_at=result.commit_time,
            result=result.return_value,
            info={
                "channel": result.tx.channel,
                "validation_code": result.validation_code.value,
            },
        )

    def _run_request(self, step, request: TxRequest):
        """Call *step* (:meth:`propose` or :meth:`invoke`) with the
        arguments *request* maps to."""
        self._check_request(request)
        return step(
            self._request_channel(request),
            request.submitter,
            request.contract_id,
            request.function,
            dict(request.args),
            endorsers=request.options.get("endorsers"),
            collection_writes=request.private_args,
            anonymous=request.options.get("anonymous", False),
        )

    def _submit_one_native(self, request: TxRequest) -> TxReceipt:
        submitted_at = self.clock.now
        result = self._run_request(self.invoke, request)
        return self._receipt_from(request, result, submitted_at)

    def _submit_batch_native(
        self, requests: list[TxRequest], force_cut: bool
    ) -> list[TxReceipt]:
        # Endorse every request first (all against the same committed
        # snapshot — this is how real Fabric clients create MVCC read
        # conflicts), then order each channel's proposals as one batch.
        receipts: list[TxReceipt | None] = [None] * len(requests)
        # Channels are ordered in the order of their first request.
        by_channel: dict[str, list[tuple[int, ProposedTransaction, float]]] = {}
        for index, request in enumerate(requests):
            submitted_at = self.clock.now
            try:
                proposal = self._run_request(self.propose, request)
            except ReproError as error:
                receipts[index] = rejection_receipt(
                    request, self.platform_name, submitted_at, error
                )
                continue
            by_channel.setdefault(proposal.tx.channel, []).append(
                (index, proposal, submitted_at)
            )
        for channel_name, entries in by_channel.items():
            try:
                results = self.submit_batch(
                    channel_name,
                    [proposal for __, proposal, __ in entries],
                    force_cut=force_cut,
                )
            except ReproError as error:
                for index, __, submitted_at in entries:
                    receipts[index] = rejection_receipt(
                        requests[index], self.platform_name, submitted_at, error
                    )
                continue
            for (index, __, submitted_at), result in zip(entries, results):
                receipts[index] = self._receipt_from(
                    requests[index], result, submitted_at
                )
        return receipts

    def _state_snapshot(self) -> dict:
        channels = {}
        for name in sorted(self.channels):
            channel = self.channels[name]
            channels[name] = {
                "members": sorted(channel.members),
                "height": channel.chain.height,
                "committed": sorted(channel.committed_tx_ids),
                "invalid": sorted(channel.invalid_tx_ids),
                "replicas": {
                    member: channel.states[member].snapshot()
                    for member in sorted(channel.members)
                },
            }
        return {"platform": self.platform_name, "channels": channels}

    # ------------------------------------------------------------------
    # Crash recovery (Platform hooks)
    #
    # Durable per peer: the chain (append-only, shared), PDC stores
    # (off-chain storage services), and checkpoints.  Volatile: the
    # world-state replica and the network node's dedup memory.
    # Catch-up re-sends a channel's ``block`` messages only — Fabric's
    # visibility rule: a lagging member receives its channels'
    # transactions, whose PDC values are on chain as anchors only
    # (``tx.private_hashes``), never another channel's traffic.
    # ------------------------------------------------------------------

    def _member_channels(self, name: str) -> list[Channel]:
        return [
            self.channels[channel_name]
            for channel_name in sorted(self.channels)
            if name in self.channels[channel_name].members
        ]

    def _checkpoint_data(self, name: str) -> dict:
        # A channel's height here counts the ordered transactions the
        # replica has applied, which may be fewer than the chain holds.
        heights: dict[str, int] = {}
        snapshots: dict[str, dict] = {}
        for channel in self._member_channels(name):
            heights[channel.name] = channel.applied[name]
            snapshots[channel.name] = channel.states[name].dump()
        return {"heights": heights, "snapshots": snapshots}

    def _restore_checkpoint(self, name: str, checkpoint) -> None:
        for channel in self._member_channels(name):
            if checkpoint is not None and channel.name in checkpoint.snapshots:
                channel.states[name] = WorldState.from_dump(
                    checkpoint.snapshots[channel.name]
                )
                channel.applied[name] = checkpoint.height_of(channel.name)
            else:
                channel.states[name] = WorldState()
                channel.applied[name] = 0

    def _catch_up(self, name: str, checkpoint) -> int:
        blocks_behind = 0
        for channel in self._member_channels(name):
            provider = pick_provider(self.network, channel.members, name)
            if provider is None:
                continue  # no live peer on this channel; stays behind
            unapplied = [
                (block.height, tx)
                for block in channel.chain.blocks()
                for tx in block.transactions
            ][channel.applied[name]:]
            blocks_behind += len({height for height, __ in unapplied})
            for __, tx in unapplied:
                delivered = ship(
                    self.network,
                    provider,
                    name,
                    "block",
                    channel.outcomes[tx.tx_id],
                    exposure=_tx_exposure(tx),
                    dedup_key=catchup_dedup_key(
                        "fabric", channel.name, name, tx.tx_id
                    ),
                )
                if not delivered:
                    break  # the rest would land past the gap
        return blocks_behind
