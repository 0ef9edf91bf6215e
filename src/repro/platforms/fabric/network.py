"""The Hyperledger Fabric simulation.

Reproduces Fabric's privacy architecture as the paper describes it
(Section 5): channels as separate ledgers, chaincode visible only where
installed, an ordering service with full visibility of channel members and
transactions, Idemix for zero-knowledge client identity, and private data
collections.  The execute-order-validate flow is message-accurate: every
proposal, endorsement, submission, and block delivery crosses the
simulated network, so the leakage auditor can account for every exposure.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.common.errors import (
    ContractError,
    EndorsementError,
    MembershipError,
    PlatformError,
    ReproError,
    ValidationError,
)
from repro.core.mechanisms import Mechanism
from repro.crypto.anoncred import (
    CredentialHolder,
    CredentialIssuer,
    verify_presentation,
)
from repro.crypto.hashing import hash_hex
from repro.crypto.merkle import MerkleTree
from repro.crypto.symmetric import SymmetricKey
from repro.execution.contracts import SmartContract
from repro.execution.engines import LedgerEngine, OffChainEngine, TEEEngine
from repro.ledger.ordering import (
    OrdererVisibility,
    OrderingService,
    make_private_orderer,
)
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
    ProbeResult,
    SupportLevel,
    TxReceipt,
    TxRequest,
    rejection_receipt,
)
from repro.platforms.fabric.channel import Channel
from repro.platforms.fabric.pdc import PrivateDataCollection
from repro.recovery.catchup import catchup_dedup_key, pick_provider, ship

ORDERER_NODE = "fabric-orderer"
ANONYMOUS_CLIENT = "anonymous-client"


class ValidationCode(enum.Enum):
    """Fabric-style per-transaction validation outcomes."""

    VALID = "VALID"
    MVCC_READ_CONFLICT = "MVCC_READ_CONFLICT"
    ENDORSEMENT_POLICY_FAILURE = "ENDORSEMENT_POLICY_FAILURE"


@dataclass
class ProposedTransaction:
    """An endorsed transaction awaiting ordering (propose-phase output)."""

    channel_name: str
    tx: Transaction
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
    """A Fabric network: orgs with one peer each, channels, one orderer."""

    platform_name = "fabric"

    def __init__(
        self,
        seed: str = "fabric",
        orderer_operator: str = "third-party",
        resilient_delivery: bool = False,
    ) -> None:
        super().__init__(seed=seed, resilient_delivery=resilient_delivery)
        self.network.add_node(ORDERER_NODE)
        self.orderer = OrderingService(
            ORDERER_NODE,
            self.clock,
            visibility=OrdererVisibility.FULL,
            operator=orderer_operator,
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
        node = self.network.node(name)
        node.on("block", self._on_block)
        node.on("catchup-block", self._on_block)
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

    def _endorse(
        self,
        channel: Channel,
        submitter_label: str,
        contract_id: str,
        function: str,
        args: dict,
        endorsers: list[str],
        proposal_exposure: Exposure,
    ):
        """Send proposals, execute on each endorser, check agreement."""
        reference = channel.reference_state(skip=self._crashed_members(channel))
        results = []
        with self.telemetry.span(
            "fabric.endorse",
            channel=channel.name,
            contract=contract_id,
            endorsers=len(endorsers),
        ):
            for endorser in endorsers:
                self.network.send(
                    submitter_label if submitter_label in self.parties else endorsers[0],
                    endorser,
                    "proposal",
                    {"contract": contract_id, "function": function, "args": args},
                    exposure=proposal_exposure,
                )
                result = self.engine.execute(
                    endorser, contract_id, function, args, reference
                )
                results.append((endorser, result))
        first = results[0][1]
        for endorser, result in results[1:]:
            if result.writes != first.writes or result.deletes != first.deletes:
                raise EndorsementError(
                    f"endorser {endorser!r} produced a divergent write set"
                )
        return first

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
            submitter_label = ANONYMOUS_CLIENT
        else:
            visible_identities.add(submitter)
            submitter_label = submitter

        proposal_exposure = Exposure.of(
            identities=visible_identities, code_ids={contract_id}
        )
        execution = self._endorse(
            channel, submitter_label, contract_id, function, args, endorsers,
            proposal_exposure,
        )

        private_hashes: dict = {}
        if collection_writes:
            disclosures = []
            for collection_name, writes in collection_writes.items():
                collection = channel.collection(collection_name)
                for key, value in writes.items():
                    anchor = collection.put(
                        endorsers[0] if submitter_label == ANONYMOUS_CLIENT else submitter,
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
        metadata["participants"] = sorted(
            visible_identities if not anonymous else set(endorsers)
        )
        tx = Transaction(
            channel=channel_name,
            submitter=submitter_label,
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
            endorsements.append(Endorsement(endorser=endorser, signature=signature))
            self.network.send(
                endorser,
                submitter_label if submitter_label in self.parties else endorser,
                "endorsement",
                {"tx_id": tx.tx_id},
                exposure=Exposure.of(identities={endorser}),
            )
        tx = tx.with_endorsements(endorsements)
        return ProposedTransaction(
            channel_name=channel_name,
            tx=tx,
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
        """
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
        self.orderer.require_available()
        with self.telemetry.span(
            "fabric.order", channel=channel_name, batch_size=len(proposals)
        ):
            for proposal in proposals:
                if proposal.channel_name != channel_name:
                    raise PlatformError("proposal belongs to a different channel")
                self._send_critical(
                    proposal.tx.submitter
                    if proposal.tx.submitter in self.parties
                    else sorted(channel.members)[0],
                    ORDERER_NODE,
                    "submit",
                    {"tx_id": proposal.tx.tx_id},
                    exposure=Exposure.of(
                        identities=set(proposal.tx.metadata.get("participants", [])),
                        data_keys={w.key for w in proposal.tx.writes}
                        | {r.key for r in proposal.tx.reads},
                    ),
                )
                self.orderer.submit(proposal.tx)
            batch = self.orderer.cut_batch(channel_name, force=force_cut)
        return self._commit_block(channel, proposals, batch.released_at)

    def _commit_block(
        self,
        channel: Channel,
        proposals: list["ProposedTransaction"],
        released_at: float,
    ) -> list[InvokeResult]:
        """Validate each tx of one block, then send it to every live member.

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
                self.network._check_link(ORDERER_NODE, member)
        for proposal in proposals:
            tx = proposal.tx
            with self.telemetry.span(
                "fabric.validate", channel=channel.name
            ) as validate_span:
                code = ValidationCode.VALID
                # 1. Endorsement policy of the (single committed) chaincode.
                # Every live committing peer validates independently (the
                # honest Fabric model); the signature-verification cache
                # turns the repeats into lookups.
                contract_id = self._contract_of(channel, tx)
                if contract_id is not None:
                    policy = channel.committed_definition(contract_id).policy
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
                channel.record_commit(tx, valid)
            self._fan_out(
                ORDERER_NODE,
                live,
                "block",
                {"tx_id": tx.tx_id, "channel": channel.name},
                Exposure.of(
                    identities=set(tx.metadata.get("participants", [])),
                    data_keys={w.key for w in tx.writes} | {r.key for r in tx.reads},
                ),
            )
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
        """Delivery handler for ``block`` and ``catchup-block``: the
        recipient's replica applies the transaction, in commit order."""
        channel = self.channels[message.payload["channel"]]
        channel.apply(message.recipient, message.payload["tx_id"])

    def _contract_of(self, channel: Channel, tx: Transaction) -> str | None:
        """Best-effort recovery of which committed chaincode produced *tx*."""
        committed = [
            cid for cid, d in channel.definitions.items() if d.committed
        ]
        if len(committed) == 1:
            return committed[0]
        return None

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

    def _submit_one_native(self, request: TxRequest) -> TxReceipt:
        self._check_request(request)
        channel_name = self._request_channel(request)
        submitted_at = self.clock.now
        result = self.invoke(
            channel_name,
            request.submitter,
            request.contract_id,
            request.function,
            dict(request.args),
            endorsers=request.options.get("endorsers"),
            collection_writes=request.private_args,
            anonymous=request.options.get("anonymous", False),
        )
        return self._receipt_from(request, result, submitted_at)

    def _submit_batch_native(
        self, requests: list[TxRequest], force_cut: bool
    ) -> list[TxReceipt]:
        # Endorse every request first (all against the same committed
        # snapshot — this is how real Fabric clients create MVCC read
        # conflicts), then order each channel's proposals as one batch.
        receipts: list[TxReceipt | None] = [None] * len(requests)
        by_channel: dict[str, list[tuple[int, ProposedTransaction, float]]] = {}
        channel_order: list[str] = []
        for index, request in enumerate(requests):
            submitted_at = self.clock.now
            try:
                self._check_request(request)
                channel_name = self._request_channel(request)
                proposal = self.propose(
                    channel_name,
                    request.submitter,
                    request.contract_id,
                    request.function,
                    dict(request.args),
                    endorsers=request.options.get("endorsers"),
                    collection_writes=request.private_args,
                    anonymous=request.options.get("anonymous", False),
                )
            except ReproError as error:
                receipts[index] = rejection_receipt(
                    request, self.platform_name, submitted_at, error
                )
                continue
            if channel_name not in by_channel:
                channel_order.append(channel_name)
            by_channel.setdefault(channel_name, []).append(
                (index, proposal, submitted_at)
            )
        for channel_name in channel_order:
            entries = by_channel[channel_name]
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
    # Catch-up ships per-channel blocks only — Fabric's visibility rule:
    # a rejoining member receives its channels' transactions, with PDC
    # values reduced to their on-chain anchors (``tx.private_hashes``),
    # never another channel's traffic.
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
        state_hashes: dict[str, str] = {}
        snapshots: dict[str, dict] = {}
        for channel in self._member_channels(name):
            heights[channel.name] = channel.applied[name]
            snapshots[channel.name] = channel.states[name].dump()
            state_hashes[channel.name] = hash_hex(
                "repro/recovery/fabric-state", channel.states[name].snapshot()
            )
        return {
            "heights": heights,
            "state_hashes": state_hashes,
            "snapshots": snapshots,
        }

    def _drop_volatile(self, name: str) -> None:
        self._restore_checkpoint(name, None)

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
            for height, tx in unapplied:
                delivered = ship(
                    self.network,
                    provider,
                    name,
                    "catchup-block",
                    {
                        "tx_id": tx.tx_id,
                        "channel": channel.name,
                        "height": height,
                        # PDC values never travel: anchors only.
                        "private_hashes": dict(tx.private_hashes),
                    },
                    exposure=Exposure.of(
                        identities=set(tx.metadata.get("participants", [])),
                        data_keys={w.key for w in tx.writes}
                        | {r.key for r in tx.reads},
                    ),
                    dedup_key=catchup_dedup_key(
                        "fabric", channel.name, name, tx.tx_id
                    ),
                )
                if not delivered:
                    break  # the rest would land past the gap
        return blocks_behind

    # ------------------------------------------------------------------
    # Table 1 capability probes (HLF column)
    # ------------------------------------------------------------------

    def _probe_fixture(self) -> tuple[Channel, SmartContract]:
        """A throwaway channel + chaincode for probes that need one."""
        suffix = f"probe{len(self.channels)}"
        for org in ("probe-org1", "probe-org2"):
            if org not in self.parties:
                self.onboard(org)
        channel = self.create_channel(f"ch-{suffix}", ["probe-org1", "probe-org2"])

        def put(view, args):
            view.put(args["key"], args["value"])
            return args["value"]

        contract = SmartContract(
            contract_id=f"cc-{suffix}",
            version=1,
            language="python-chaincode",
            functions={"put": put},
        )
        self.deploy_chaincode(channel.name, contract, ["probe-org1", "probe-org2"])
        return channel, contract

    def _probe_separation_of_ledgers_parties(self) -> ProbeResult:
        channel, contract = self._probe_fixture()
        if "probe-outsider" not in self.parties:
            self.onboard("probe-outsider")
        self.invoke(channel.name, "probe-org1", contract.contract_id, "put",
                    {"key": "k", "value": 1})
        outsider = self.network.node("probe-outsider").observer
        leaked = outsider.seen_identities & {"probe-org1", "probe-org2"}
        level = SupportLevel.NATIVE if not leaked else SupportLevel.REWRITE
        return self._result(
            Mechanism.SEPARATION_OF_LEDGERS_PARTIES, level,
            "channels confine member identities: an onboarded non-member "
            f"observed {sorted(leaked) or 'no member identities'}",
        )

    def _probe_one_time_public_keys(self) -> ProbeResult:
        # Fabric identities must chain to an enrolled MSP certificate; a
        # fresh uncertified key is rejected at membership, and changing
        # that means rewriting the MSP (paper: '-').
        channel, contract = self._probe_fixture()
        fresh_key = self.scheme.keygen(self.rng.fork("fresh-ot"))
        tx = Transaction(channel=channel.name, submitter="one-time-pseudonym")
        signature = self.scheme.sign(fresh_key, tx.signing_bytes())
        try:
            self.membership.verify_member_signature(
                self.scheme, "one-time-pseudonym", tx.signing_bytes(), signature
            )
            level = SupportLevel.NATIVE
            evidence = "unexpected: uncertified key accepted"
        except Exception:
            level = SupportLevel.REWRITE
            evidence = (
                "a fresh key with no MSP certificate is rejected at membership; "
                "supporting per-transaction keys requires rewriting the MSP"
            )
        return self._result(Mechanism.ONE_TIME_PUBLIC_KEYS, level, evidence)

    def _probe_zkp_of_identity(self) -> ProbeResult:
        channel, contract = self._probe_fixture()
        result = self.invoke(
            channel.name, "probe-org1", contract.contract_id, "put",
            {"key": "anon", "value": 7}, anonymous=True,
        )
        anonymous = result.tx.submitter == ANONYMOUS_CLIENT
        has_proof = "idemix" in result.tx.metadata
        level = (
            SupportLevel.NATIVE if anonymous and has_proof else SupportLevel.REWRITE
        )
        return self._result(
            Mechanism.ZKP_OF_IDENTITY, level,
            "Idemix: transaction committed with a verified anonymous "
            "credential presentation and no client identity on the wire",
        )

    def _probe_separation_of_ledgers_data(self) -> ProbeResult:
        channel, contract = self._probe_fixture()
        self.invoke(channel.name, "probe-org1", contract.contract_id, "put",
                    {"key": "secret-data", "value": 42})
        if "probe-outsider" not in self.parties:
            self.onboard("probe-outsider")
        outsider = self.network.node("probe-outsider").observer
        leaked = "secret-data" in outsider.seen_data_keys
        return self._result(
            Mechanism.SEPARATION_OF_LEDGERS_DATA,
            SupportLevel.REWRITE if leaked else SupportLevel.NATIVE,
            "channel transactions are delivered to channel members only",
        )

    def _probe_off_chain_peer_data(self) -> ProbeResult:
        channel, contract = self._probe_fixture()
        collection = channel.create_collection("probe-pdc", ["probe-org1"])
        result = self.invoke(
            channel.name, "probe-org1", contract.contract_id, "put",
            {"key": "public-ref", "value": "see-pdc"},
            collection_writes={"probe-pdc": {"pii": {"ssn": "000-11-2222"}}},
        )
        anchored = any(k.startswith("probe-pdc/") for k in result.tx.private_hashes)
        readable = collection.get("probe-org1", "pii") == {"ssn": "000-11-2222"}
        members_listed = result.tx.metadata["collections"][0]["members"] == ["probe-org1"]
        level = (
            SupportLevel.NATIVE
            if anchored and readable and members_listed
            else SupportLevel.REWRITE
        )
        return self._result(
            Mechanism.OFF_CHAIN_PEER_DATA, level,
            "PDC stores data on member peers, anchors a hash on-chain, and "
            "(per the paper's caveat) lists collection members in the tx",
        )

    def _probe_symmetric_encryption(self) -> ProbeResult:
        channel, contract = self._probe_fixture()
        key = SymmetricKey.from_seed("probe-shared-key")
        ciphertext = key.encrypt(b"confidential payload", self.rng.fork("sym"))
        self.invoke(
            channel.name, "probe-org1", contract.contract_id, "put",
            {"key": "enc-blob", "value": ciphertext.body.hex()},
        )
        stored = channel.reference_state().get("enc-blob")
        roundtrip = key.decrypt(ciphertext) == b"confidential payload"
        return self._result(
            Mechanism.SYMMETRIC_ENCRYPTION,
            SupportLevel.NATIVE if stored and roundtrip else SupportLevel.REWRITE,
            "ledger values are opaque bytes; AES-style encryption of values "
            "with PKI-shared keys needs no platform change",
        )

    def _probe_merkle_tear_offs(self) -> ProbeResult:
        # Fabric transactions are not Merkle-structured component groups;
        # tear-offs can be layered on by applications (library Merkle tree
        # inside a value) but no platform API consumes them: '*'.
        tree = MerkleTree(["amount:100", "price:42", "secret-margin:7"])
        tear_off = tree.tear_off({0, 1})
        works_in_library = tear_off.verify(tree.root)
        return self._result(
            Mechanism.MERKLE_TEAR_OFFS,
            SupportLevel.IMPLEMENTABLE if works_in_library
            else SupportLevel.REWRITE,
            "no native filtered-transaction API; applications can embed "
            "library Merkle roots in values and share tear-offs off-band",
        )

    def _probe_install_on_involved_nodes(self) -> ProbeResult:
        channel, contract = self._probe_fixture()
        visible = self.engine.registry.nodes_with_code_visibility(contract.contract_id)
        outsiders = visible - set(channel.members)
        return self._result(
            Mechanism.INSTALL_ON_INVOLVED_NODES,
            SupportLevel.NATIVE if not outsiders else SupportLevel.REWRITE,
            f"chaincode visible only on endorsing peers {sorted(visible)}",
        )

    def _probe_off_chain_execution_engine(self) -> ProbeResult:
        engine = OffChainEngine()

        def business_logic(view, args):
            view.put("result", args["x"] * 2)
            return args["x"] * 2

        contract = SmartContract(
            contract_id="probe-external", version=1, language="kotlin",
            functions={"run": business_logic},
        )
        engine.install("external-host", contract)
        result = engine.execute("external-host", "probe-external", "run",
                                {"x": 21}, WorldState())
        return self._result(
            Mechanism.OFF_CHAIN_EXECUTION_ENGINE,
            SupportLevel.IMPLEMENTABLE if result.return_value == 42 else SupportLevel.REWRITE,
            "feasible via the Hyperledger transaction-execution-platform "
            "proposal (paper ref [1]); not part of the released platform",
        )

    def _probe_trusted_execution_environment(self) -> ProbeResult:
        # The TEE engine works standalone, but wiring it into Fabric's
        # endorsement flow would replace peer-side chaincode execution
        # entirely — the paper classifies this as requiring a rewrite.
        engine = TEEEngine()

        def noop(view, args):
            return "ok"

        contract = SmartContract(
            contract_id="probe-tee", version=1, language="python-chaincode",
            functions={"noop": noop},
        )
        engine.install("peer-tee", contract)
        standalone = engine.execute("peer-tee", "probe-tee", "noop", {}, WorldState())
        endorsement_flow_integrates_tee = isinstance(self.engine, TEEEngine)
        level = (
            SupportLevel.NATIVE if endorsement_flow_integrates_tee
            else SupportLevel.REWRITE
        )
        return self._result(
            Mechanism.TRUSTED_EXECUTION_ENVIRONMENT, level,
            "enclave execution works in isolation but the peer endorsement "
            "path has no enclave integration; replacing it is a rewrite "
            f"(standalone attestation verified: {standalone.return_value == 'ok'})",
        )

    def _probe_private_sequencing_service(self) -> ProbeResult:
        member_orderer = make_private_orderer("probe-org1", self.clock)
        runs_for_member = member_orderer.is_member_operated({"probe-org1", "probe-org2"})
        return self._result(
            Mechanism.PRIVATE_SEQUENCING_SERVICE,
            SupportLevel.NATIVE if runs_for_member else SupportLevel.REWRITE,
            "channel members can operate the ordering service themselves, "
            "containing its full visibility within the member set",
        )

