"""The Hyperledger Fabric simulation.

Reproduces Fabric's privacy architecture as the paper describes it
(Section 5): channels as separate ledgers, chaincode visible only where
installed, an ordering service with full visibility of channel members and
transactions, Idemix for zero-knowledge client identity, and private data
collections.  The execute-order-validate flow is message-accurate: every
proposal, endorsement, submission, and block delivery between two nodes
crosses the simulated network, so the leakage auditor can account for
every exposure, and each principal decides in its own delivery handler:
an endorser executes and signs on ``proposal``, the orderer orders on
``submit``, and every member validates on ``block``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import NamedTuple

from repro.common.errors import (
    DeliveryError,
    EndorsementError,
    MembershipError,
    OrderingError,
    PlatformError,
    ReproError,
    ValidationError,
)
from repro.common.serialization import canonical_bytes
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
from repro.ledger.validation import (
    EndorsementPolicy,
    check_read_set,
    verify_endorsements,
)
from repro.network.messages import Exposure, Message, Refusal
from repro.platforms.base import (
    Platform,
    delivers,
    TxReceipt,
    TxRequest,
    rejection_receipt,
)
from repro.platforms.fabric.channel import BlockEntry, Channel, ValidationCode

ORDERER_NODE = "fabric-orderer"
ANONYMOUS_CLIENT = "anonymous-client"


class _ProposalFields(NamedTuple):
    contract_id: str
    function: str
    args: dict
    channel: str
    submitter: str
    private_hashes: dict
    metadata: dict
    timestamp: float


class Proposal(_ProposalFields):
    """What a client sends each endorser: the chaincode call, and the
    header (channel, submitter, metadata, private-data hashes, timestamp)
    that every endorser completes with its own execution's read and write
    sets, so that all of them build the same transaction.

    Beside its fields (all that is encoded) a proposal keeps the
    transactions built from it: endorsers whose read and write sets agree
    share one, so its content is encoded once, as a Corda wire
    transaction's Merkle tree is built once."""

    def transaction(self, execution) -> Transaction:
        reads = tuple(ReadEntry(k, v) for k, v in sorted(execution.reads.items()))
        writes = tuple(
            [WriteEntry(k, v) for k, v in sorted(execution.writes.items())]
            + [WriteEntry(k, is_delete=True) for k in sorted(execution.deletes)]
        )
        built = self.__dict__.setdefault("built", [])
        for tx in built:
            if (tx.reads, tx.writes) == (reads, writes):
                return tx
        tx = Transaction(
            self.channel, self.submitter, reads=reads, writes=writes,
            private_hashes=self.private_hashes,
            metadata=self.metadata,
            timestamp=self.timestamp,
        )
        built.append(tx)
        return tx

    @cached_property
    def exposure(self) -> Exposure:
        """A proposal names its participants and the chaincode it calls."""
        return Exposure.of(
            identities=self.metadata["participants"], code_ids={self.contract_id}
        )

    @cached_property
    def _encoded_size(self) -> int:
        return len(canonical_bytes(self))

    def wire_size(self) -> int:
        """Sized once: every endorser's copy is the same proposal."""
        return self._encoded_size


class ProposalResponse(NamedTuple):
    """An endorser's ``endorsement`` reply: the transaction it executed,
    the chaincode's return value, and its signature over the transaction."""

    tx: Transaction
    return_value: object
    endorsement: Endorsement

    @property
    def exposure(self) -> Exposure:
        """A response carries the executed transaction back to the client,
        so it reveals what the transaction does (its participants name
        every endorser)."""
        return self.tx.exposure


@dataclass
class ProposedTransaction:
    """An endorsed transaction awaiting ordering (propose-phase output).

    ``contract_id`` names the chaincode it was endorsed for: validation
    checks that chaincode's endorsement policy.  The channel is
    ``tx.channel``.  ``cause`` is the endorsement reply that completed it,
    which its order submission acts on (``None`` when the client endorsed
    alone).
    """

    tx: Transaction
    contract_id: str
    return_value: object
    cause: Message | None = None


@dataclass
class InvokeResult:
    """Outcome of one chaincode invocation through the full flow."""

    tx: Transaction
    return_value: object
    valid: bool
    commit_time: float
    validation_code: ValidationCode


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
        self.network.add_node(ANONYMOUS_CLIENT).on(
            "endorsement", self.network.record_reply
        )
        self.orderer = OrderingService(
            ORDERER_NODE,
            self.clock,
            operators=orderer_operators,
            network=self.network,
            telemetry=self.telemetry,
        )
        for replica in self.orderer.replicas:
            self.network.node(replica).on("submit", self._on_submit)
        self.ordering = self.orderer
        self.channels: dict[str, Channel] = {}
        # contract id -> channel it is committed on; lets the pipeline
        # infer the channel when TxRequest.scope is omitted.
        self.contract_channels: dict[str, str] = {}
        self.engine = LedgerEngine(telemetry=self.telemetry)
        self._validations = self.telemetry.metrics.bind(
            lambda m, code: m.counter("fabric.validation", code=code)
        )
        self.idemix_issuer = CredentialIssuer(
            "fabric-idemix-msp", scheme=self.scheme, rng=self.rng.fork("idemix")
        )
        self._idemix_holders: dict[str, CredentialHolder] = {}
        # Per orderer leader and channel: the batch whose shares are
        # arriving (its order, the pairs so far, and the request of each
        # share, by the transactions it carries).
        self._arriving: dict[tuple[str, str], tuple] = {}

    # -- membership & channels

    def onboard(self, name: str, attributes: dict | None = None):
        party = super().onboard(name, attributes=attributes)
        self.idemix_issuer.enroll(name, {"msp": "fabric", **(attributes or {})})
        self._idemix_holders[name] = CredentialHolder(
            name, self.idemix_issuer, rng=self.rng.fork("holder:" + name)
        )
        node = self.network.node(name)
        node.on("proposal", self._on_proposal)
        node.on("endorsement", self.network.record_reply)
        node.on("block", self._on_block)
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

        The client sends each endorser a ``proposal``; the endorser
        executes it against its own replica, signs, and replies
        ``endorsement`` (an endorser that is the client does so in place).
        The endorsers' write sets must agree.  Several proposals endorsed
        against the same snapshot can then be submitted together with
        :meth:`submit_batch`, which is how MVCC read conflicts arise in
        real Fabric.  ``collection_writes`` maps PDC name -> {key: value};
        the values go to member peer stores, only hashes reach the ledger,
        and the PDC member list is disclosed in transaction metadata (the
        paper's caveat).  ``anonymous=True`` submits with an Idemix
        presentation instead of the client certificate.
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
            self._crypto_ops["idemix"].inc()
            metadata["anonymous"] = True
            metadata["idemix"] = {
                "disclosed": presentation.disclosed,
                "nonce": presentation.nonce.hex(),
            }
            client = ANONYMOUS_CLIENT
        else:
            visible_identities.add(submitter)
            client = submitter

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
                    self._crypto_ops["private-data-collection"].inc()
                disclosures.append(collection.disclosure())
            metadata["collections"] = disclosures

        # The participant list the orderer will see (paper Section 5) is
        # part of the content every endorser signs.
        metadata["participants"] = sorted(visible_identities)
        proposal = Proposal(
            contract_id, function, args, channel_name, client,
            private_hashes, metadata, self.clock.now,
        )
        with self.telemetry.span(
            "fabric.endorse",
            channel=channel.name,
            contract=contract_id,
            endorsers=len(endorsers),
        ):
            answers = {}
            if client in endorsers:
                answers[client] = self._endorse(client, proposal)
                if isinstance(answers[client], Refusal):
                    raise answers[client].error
            replies = self.network.outcomes([
                self._send_critical(client, endorser, "proposal", proposal)
                for endorser in endorsers
                if endorser != client
            ])
        answers.update((reply.sender, reply.payload) for reply in replies)
        responses = [answers[endorser] for endorser in endorsers]
        for endorser, response in zip(endorsers[1:], responses[1:]):
            if response.tx.writes != responses[0].tx.writes:
                raise EndorsementError(
                    f"endorser {endorser!r} produced a divergent write set"
                )
        return ProposedTransaction(
            tx=responses[0].tx.with_endorsements(
                [response.endorsement for response in responses]
            ),
            contract_id=contract_id,
            return_value=responses[0].return_value,
            cause=replies[-1] if replies else None,
        )

    def _endorse(self, endorser: str, proposal: Proposal):
        """*endorser* executes *proposal* against its own replica and
        signs the transaction it yields: a :class:`ProposalResponse`, or
        the :class:`Refusal` of what the execution raised."""
        try:
            execution = self.engine.execute(
                endorser, proposal.contract_id, proposal.function, proposal.args,
                self.channels[proposal.channel].states[endorser],
            )
        except ReproError as error:
            return Refusal(error)
        tx = proposal.transaction(execution)
        signature = self.scheme.sign(self.parties[endorser].key, tx.signing_bytes())
        self._crypto_ops["endorsement-signature"].inc()
        return ProposalResponse(
            tx, execution.return_value,
            Endorsement(endorser=endorser, signature=signature),
        )

    def _on_proposal(self, message) -> None:
        """Delivery handler for ``proposal``: endorse it and reply."""
        self.network.reply(
            message, "endorsement", self._endorse(message.recipient, message.payload)
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
        """Order several endorsed proposals into blocks and commit.

        Each submitter sends its own transactions to the orderer's leader
        as one ``submit``; once the whole batch has arrived the orderer
        orders it in its handler, one block per ``max_batch_size``
        transactions, and sends every live member one ``block`` per cut,
        and each member validates its entries in its own handler.
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
        for proposal in proposals:
            if proposal.tx.channel != channel_name:
                raise PlatformError("proposal belongs to a different channel")
        if not proposals:
            raise OrderingError(f"no pending transactions on channel {channel_name!r}")
        # Each submitter sends its own transactions, naming the batch's
        # order so that the orderer can order it whole.
        order = tuple(proposal.tx.tx_id for proposal in proposals)
        by_submitter: dict[str, list[ProposedTransaction]] = {}
        for proposal in proposals:
            by_submitter.setdefault(proposal.tx.submitter, []).append(proposal)
        requests = []
        for submitter, group in by_submitter.items():
            causes = [p.cause for p in group if p.cause is not None]
            with self.network.acting_on(causes[-1] if causes else None):
                requests.append(self._send_critical(
                    submitter, leader, "submit",
                    (
                        channel_name, order,
                        tuple((p.tx, p.contract_id) for p in group), force_cut,
                    ),
                ))
        released_at = self.network.outcomes(requests)[0]
        self.clock.advance_to(released_at)
        results = []
        for proposal in proposals:
            code = channel.code_of(proposal.tx.tx_id)
            if code is None:
                raise DeliveryError(
                    f"no member of {channel_name!r} received {proposal.tx.tx_id}"
                )
            results.append(InvokeResult(
                tx=proposal.tx,
                return_value=proposal.return_value,
                valid=code is ValidationCode.VALID,
                commit_time=released_at,
                validation_code=code,
            ))
        return results

    def _on_submit(self, message) -> None:
        """Delivery handler for ``submit``, on the orderer's leader: one
        submitter's share of a batch (channel, the batch's tx ids in
        order, its ``(tx, contract id)`` pairs, flush flag).  Once the
        whole batch has arrived, order it (one chain block per cut of at
        most ``max_batch_size``), and send each live member one ``block``
        per cut: the tuple of the cut's block entries, in commit
        order.  The last cut's release time (or the refusal) is recorded
        for every share's call.

        A crashed member misses its blocks and lags — that is what
        checkpoint + catch-up recover from later.  Without
        ``resilient_delivery`` a live member the leader cannot reach
        refuses the batch before anything is ordered, as the block
        broadcast would; with it, that member lags too.
        """
        leader = message.recipient
        channel_name, order, pairs, flush = message.payload
        # One batch arrives at a time per channel: a share of another
        # batch replaces what is left of an earlier, incomplete one.
        arriving = self._arriving.get((leader, channel_name))
        if arriving is None or arriving[0] != order:
            arriving = self._arriving[(leader, channel_name)] = (order, {}, {})
        __, shares, requests = arriving
        shares.update((tx.tx_id, (tx, contract_id)) for tx, contract_id in pairs)
        requests[tuple(tx.tx_id for tx, __ in pairs)] = message
        if len(shares) < len(order):
            return
        del self._arriving[(leader, channel_name)]
        batch = [shares[tx_id] for tx_id in order]
        channel = self.channels[channel_name]
        live = [m for m in sorted(channel.members) if not self.network.is_crashed(m)]
        with self.telemetry.span(
            "fabric.order", channel=channel_name, batch_size=len(batch)
        ):
            try:
                if not self.resilient_delivery:
                    for member in live:
                        self.network._check_link(leader, member)
                cuts = self.orderer.order(channel_name, [tx for tx, __ in batch], flush)
                outcome = cuts[-1].released_at
            except ReproError as refusal:
                outcome = Refusal(refusal)
            else:
                reachable = [
                    m for m in live if not self.network.is_partitioned(leader, m)
                ]
                pairs = iter(batch)
                for cut in cuts:
                    block = tuple(
                        channel.record_order(tx, contract_id)
                        for tx, contract_id in islice(pairs, len(cut.transactions))
                    )
                    self.network.broadcast(
                        leader, "block", block, recipients=reachable
                    )
                    channel.chain.append(cut.transactions, self.clock.now)
        for request in requests.values():
            self.network.record(request, outcome)

    def _on_block(self, message) -> None:
        """Delivery handler for ``block``, from the orderer (one cut's
        entries, in commit order) or in a peer's catch-up answer (one
        entry): the member validates each entry against its own replica and
        commits it, in commit order only.  Entries it already applied are
        skipped; an entry past a gap (an earlier block lost in flight) and
        everything after it change nothing, so the member stays behind
        until catch-up."""
        member = message.recipient
        block: tuple[BlockEntry, ...] = message.payload
        channel = self.channels[block[0].tx.channel]
        span = self.telemetry.span
        set_attribute = self.telemetry.tracer.set_attribute
        for entry in block:
            if entry.position < channel.applied[member]:
                continue
            if entry.position > channel.applied[member]:
                return
            with span("fabric.validate", channel=channel.name) as validate_span:
                code = self._validate(channel, member, entry)
                set_attribute(validate_span, "validation_code", code.value)
                self._validations[code.value].inc()
            with span(
                "fabric.commit", channel=channel.name,
                valid=code is ValidationCode.VALID,
            ):
                channel.commit(member, entry, code)

    def _validate(
        self, channel: Channel, member: str, entry: BlockEntry
    ) -> ValidationCode:
        """*member*'s verdict on *entry*: the endorsement policy of the
        chaincode it was endorsed for (the signature-verification cache
        turns every member's repeat into a lookup), then the MVCC read set
        against the member's own replica."""
        try:
            verify_endorsements(
                entry.tx,
                channel.committed_definition(entry.contract_id).policy,
                self.scheme,
                lambda name: self.parties[name].public_key,
            )
        except EndorsementError:
            return ValidationCode.ENDORSEMENT_POLICY_FAILURE
        try:
            check_read_set(entry.tx, channel.states[member])
        except ValidationError:
            return ValidationCode.MVCC_READ_CONFLICT
        return ValidationCode.VALID

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
    # A lagging member asks, per channel, from the height its own replica
    # has applied; a co-member answers with the channel's ordered
    # transactions from there, each as a one-entry ``block``, and nothing
    # else — Fabric's visibility rule: a member receives its channels'
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

    def _catchup_scopes(self, name: str) -> list[tuple[str, frozenset[str]]]:
        return [
            (channel.name, channel.members)
            for channel in self._member_channels(name)
        ]

    def _catchup_request(self, name: str, channel_name: str):
        """``(channel, the height *name*'s replica applied)``, or ``None``
        once it applied every ordered transaction."""
        channel = self.channels[channel_name]
        height = channel.applied[name]
        return None if height == len(channel.outcomes) else (channel_name, height)

    def _catchup_answer(self, provider: str, requester: str, request) -> tuple:
        channel_name, height = request
        channel = self.channels[channel_name]
        if requester not in channel.members:
            return ()
        return tuple(
            ("block", (entry,))
            for entry in islice(channel.outcomes.values(), height, None)
        )
