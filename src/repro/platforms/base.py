"""Common platform API.

Every platform simulation (Fabric, Corda, Quorum) implements this
interface: organizations onboard through PKI, and transactions run through
the platform's native flow.  :class:`SupportLevel` and
:class:`ProbeResult` are the vocabulary of the Table 1 capability probes,
which live outside the platform classes (``repro.platforms.<p>.probes``,
dispatched by :mod:`repro.core.probe`).

The **unified transaction pipeline** lives here too: a
:class:`TxRequest` describes one submission in platform-neutral terms, and
:meth:`Platform.submit` / :meth:`Platform.submit_many` route it through the
platform's *native* lifecycle (endorse→order→validate→commit on Fabric,
flow+notarise on Corda, distribute→execute→order on Quorum), returning a
:class:`TxReceipt`.  Privacy semantics stay platform-specific — an adapter
refuses request shapes its architecture cannot honor (e.g. Quorum rejects
deletable private payloads) rather than silently approximating them.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

from repro.common.clock import SimClock
from repro.common.errors import PlatformError, ReproError
from repro.common.rng import DeterministicRNG
from repro.common.serialization import canonical_bytes
from repro.crypto.hashing import tagged_hash
from repro.crypto.pki import Certificate, CertificateAuthority, MembershipService
from repro.crypto.signatures import PrivateKey, SignatureScheme
from repro.core.mechanisms import Mechanism
from repro.network.messages import Message
from repro.network.simnet import SimNetwork
from repro.recovery.catchup import ask, live_providers
from repro.telemetry import Telemetry


class SupportLevel(enum.Enum):
    """Table 1 legend: native / implementable / requires rewrite / N/A."""

    NATIVE = "+"
    IMPLEMENTABLE = "*"
    REWRITE = "-"
    NOT_APPLICABLE = "N/A"


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of one Table 1 cell on one platform.

    ``exercised`` is False when the cell is a constant row the paper
    rates without anything to run (see :mod:`repro.core.probe`).
    """

    platform: str
    mechanism: Mechanism
    level: SupportLevel
    evidence: str
    exercised: bool


@dataclass
class Party:
    """An onboarded organization: name, signing key, and certificate."""

    name: str
    key: PrivateKey
    certificate: Certificate

    @property
    def public_key(self):
        return self.key.public


@dataclass(frozen=True)
class TxRequest:
    """One platform-neutral transaction submission.

    - ``scope`` names the ledger partition where one exists (a Fabric
      channel); platforms without partitions ignore it.
    - ``private_for`` restricts data visibility to the named parties plus
      the submitter (Quorum privacy groups, Corda participants).  Fabric
      rejects it: its confidentiality tools are channels and PDCs.
    - ``private_args`` carries data that must stay off the shared ledger
      (Fabric PDC writes, keyed by collection name).  Quorum rejects it:
      private payloads must remain replayable, so deletable off-ledger
      data is architecturally unsupported (Table 1).
    - ``options`` holds platform-specific tuning (Fabric ``endorsers`` /
      ``anonymous``) that does not change what the transaction *does*.
    - ``metadata`` is caller bookkeeping, echoed untouched on the receipt.
    """

    submitter: str
    contract_id: str
    function: str
    args: dict = field(default_factory=dict)
    scope: str | None = None
    private_for: tuple[str, ...] | None = None
    private_args: dict | None = None
    options: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)


@dataclass
class TxReceipt:
    """The unified outcome of one submitted :class:`TxRequest`.

    ``committed`` is True iff the transaction mutated committed state;
    ``status`` is ``"committed"``, a platform validation code (e.g.
    ``"MVCC_READ_CONFLICT"``), or ``"rejected:<ErrorType>"`` for requests
    the platform refused.  ``result`` carries the native flow's return
    value so pipeline callers lose nothing over the native entrypoints.
    """

    request: TxRequest
    platform: str
    tx_id: str | None
    committed: bool
    status: str
    submitted_at: float
    committed_at: float | None = None
    result: object = None
    info: dict = field(default_factory=dict)

    @property
    def latency(self) -> float | None:
        """Simulated submit-to-commit latency; None if never committed."""
        if self.committed_at is None:
            return None
        return self.committed_at - self.submitted_at


def rejection_receipt(
    request: TxRequest, platform: str, submitted_at: float, error: ReproError
) -> TxReceipt:
    """A failed receipt for a request the platform's native flow refused."""
    return TxReceipt(
        request=request,
        platform=platform,
        tx_id=None,
        committed=False,
        status=f"rejected:{type(error).__name__}",
        submitted_at=submitted_at,
        info={"error": str(error)},
    )


def delivers(flow):
    """Decorate a public platform call that sends: it returns only once
    everything in flight is delivered or dropped, also when it raises
    (what was sent still travels).  Replicas other than the sender's
    change only in delivery handlers, so the call's effects are then
    applied exactly where its messages arrived.  A call nested in
    another delivers on its own return, so the outer call reads what its
    handlers recorded."""

    @functools.wraps(flow)
    def run_and_deliver(self, *args, **kwargs):
        try:
            return flow(self, *args, **kwargs)
        finally:
            self.network.run()

    return run_and_deliver


class Platform:
    """Base class for the three platform simulations.

    A subclass implements the hooks: ``_submit_one_native`` (one request
    through its native flow), ``_state_snapshot`` (the committed-state
    picture :meth:`state_fingerprint` hashes), and for recovery
    ``_checkpoint_data``, ``_restore_checkpoint`` (to a checkpoint, or to
    empty on a crash), ``_catchup_request`` (what a lagging node asks
    for, from its own state) and ``_catchup_answer`` (what a peer
    serves it, from its own account).
    """

    platform_name = "abstract"

    def __init__(
        self, seed: str = "platform", resilient_delivery: bool = False
    ) -> None:
        self.clock = SimClock()
        self.rng = DeterministicRNG(seed)
        self.scheme = SignatureScheme()
        # One Telemetry bundle per platform: the network, ordering service,
        # execution engine, and use-case workflows all record into it, so a
        # single trace follows a transaction across every principal.
        self.telemetry = Telemetry(clock=self.clock)
        # Hot-path series, bound on first use: ``crypto.ops`` by
        # mechanism, and the pipeline's receipt counters.
        metrics = self.telemetry.metrics
        self._crypto_ops = metrics.bind(
            lambda m, mechanism: m.counter("crypto.ops", mechanism=mechanism)
        )
        self._pipeline = metrics.bind(
            lambda m, name: m.counter(name, platform=self.platform_name)
        )
        self.network = SimNetwork(
            clock=self.clock, rng=self.rng.fork("net"), telemetry=self.telemetry
        )
        self.ca = CertificateAuthority(
            f"{self.platform_name}-root-ca", self.scheme, self.clock,
            rng=self.rng.fork("ca"),
        )
        self.membership = MembershipService()
        self.membership.register_authority(self.ca)
        self.parties: dict[str, Party] = {}
        self.resilient_delivery = resilient_delivery
        # The ordering principal: Fabric's orderer, Corda's notary or
        # Quorum's sequencer, set by each subclass.  Fault injection and
        # ordering crash/recover act on it.
        self.ordering = None
        # Durable checkpoint storage: lives outside the nodes (disk
        # survives the process), so it is *not* wiped by crash().
        from repro.recovery.checkpoint import CheckpointStore

        self.checkpoints = CheckpointStore(telemetry=self.telemetry)

    # -- onboarding

    def onboard(self, name: str, attributes: dict | None = None) -> Party:
        """Verify and enroll an organization; creates its network node."""
        if name in self.parties:
            raise PlatformError(f"party {name!r} already onboarded")
        key = self.scheme.keygen_from_seed(f"{self.platform_name}/{name}")
        certificate = self.ca.issue(name, key.public, attributes=attributes)
        self.membership.enroll(certificate)
        node = self.network.add_node(name)
        node.on("catchup-request", self._on_catchup_request)
        node.on("catchup", self._on_catchup)
        party = Party(name=name, key=key, certificate=certificate)
        self.parties[name] = party
        return party

    def party(self, name: str) -> Party:
        if name not in self.parties:
            raise PlatformError(f"unknown party {name!r}")
        return self.parties[name]

    def authenticate(self, name: str) -> Party:
        """Resolve *name* and re-validate its certificate chain.

        Every native submission path calls this first, modeling the
        per-request identity check real deployments perform.  The CA's
        chain-validation cache makes repeats cheap; expiry and revocation
        stay live, so a revoked party is refused on its next submission.
        """
        party = self.party(name)
        self.ca.verify(party.certificate)
        return party

    # -- the unified transaction pipeline

    def submit(self, request: TxRequest) -> TxReceipt:
        """Route one request through the platform's native lifecycle.

        Error semantics match the native entrypoint: a refused or
        invalidated transaction raises the same typed error the native
        call would (use :meth:`submit_many` for capture-don't-raise
        batch semantics).
        """
        receipt = self._submit_one_native(request)
        self._record_receipt(receipt)
        return receipt

    def submit_many(
        self, requests: list[TxRequest], force_cut: bool = True
    ) -> list[TxReceipt]:
        """Submit a batch through the native lifecycle, one receipt each.

        Per-request failures become failed receipts instead of raising, so
        a workload driver keeps pumping.  ``force_cut=False`` leaves batch
        release to the ordering service's own cutting policy (size or
        ``batch_timeout``) on platforms with a batch-accumulating orderer
        (Fabric); platforms that sequence per transaction ignore it.
        """
        receipts = self._submit_batch_native(list(requests), force_cut=force_cut)
        for receipt in receipts:
            self._record_receipt(receipt)
        return receipts

    def _submit_batch_native(
        self, requests: list[TxRequest], force_cut: bool
    ) -> list[TxReceipt]:
        """Subclass hook: run a batch through the native flow.

        Default: sequential single submissions with failures captured as
        rejection receipts.  Platforms with real batch semantics override.
        """
        receipts = []
        for request in requests:
            submitted_at = self.clock.now
            try:
                receipts.append(self._submit_one_native(request))
            except ReproError as error:
                receipts.append(
                    rejection_receipt(
                        request, self.platform_name, submitted_at, error
                    )
                )
        return receipts

    def _record_receipt(self, receipt: TxReceipt) -> None:
        self._pipeline["pipeline.submitted"].inc()
        self._pipeline["pipeline.committed" if receipt.committed else "pipeline.failed"].inc()

    def state_fingerprint(self) -> str:
        """Canonical hash of all committed state, for parity checks.

        Two runs that executed the same transactions — whether through
        native entrypoints or the pipeline — must produce identical
        fingerprints.  The snapshot is the subclass's full committed
        picture: every replica/vault, chain heights, and committed ids.
        """
        snapshot = self._state_snapshot()
        return tagged_hash(
            "repro/pipeline/state-fingerprint", canonical_bytes(snapshot)
        ).hex()

    def crypto_cache_stats(self) -> dict:
        """Hot-path crypto cache hit/miss counters for this platform."""
        return {
            "signature_verify": self.scheme.cache_info(),
            "certificate_chain": self.ca.cache_info(),
        }

    # -- fault injection

    def inject_faults(self, plan) -> None:
        """Attach a :class:`repro.faults.FaultPlan` to the substrate and
        the ordering principal (orderer, notary, sequencer)."""
        self.network.fault_plan = plan
        self.ordering.fault_plan = plan

    def crash_ordering(self) -> None:
        """Take the ordering principal down (its durable state survives)."""
        self.ordering.crash()

    def recover_ordering(self) -> None:
        self.ordering.recover()

    def _send_critical(self, sender: str, recipient: str, kind: str, payload) -> Message:
        """Send on a hop the flow cannot proceed without; returns the
        message (with ``resilient_delivery``, the copy that arrived).

        With ``resilient_delivery`` the hop retries through transient
        faults; otherwise it is a plain send.
        """
        if self.resilient_delivery:
            return self.network.send_with_retry(sender, recipient, kind, payload).message
        return self.network.send(sender, recipient, kind, payload)

    # -- crash recovery
    #
    # The template methods below are platform-independent; subclasses
    # implement the hooks that define what is durable, what a crash
    # loses, what a lagging node asks for and — critically — what a peer
    # is *entitled* to serve it (its channels, its party chains, its
    # private payloads; never anyone else's).

    def checkpoint_node(self, name: str):
        """Flush *name*'s durable snapshot to the checkpoint store."""
        from repro.recovery.checkpoint import NodeCheckpoint

        self.party(name)
        with self.telemetry.span(
            "recovery.checkpoint", node=name, platform=self.platform_name
        ) as span:
            data = self._checkpoint_data(name)
            checkpoint = NodeCheckpoint(
                node=name,
                platform=self.platform_name,
                sequence=self.checkpoints.next_sequence(name),
                taken_at=self.clock.now,
                **data,
            )
            saved = self.checkpoints.save(checkpoint)
            self.telemetry.tracer.set_attribute(span, "sequence", saved.sequence)
        return saved

    def crash(self, name: str) -> None:
        """Crash party *name*: network down + volatile state lost.

        Durable artifacts — checkpoints, the shared chains, off-chain
        stores — survive; the node's in-memory state (replicas, vaults,
        payload caches) is reset as if restored from no checkpoint.
        """
        self.party(name)
        if self.network.is_crashed(name):
            return
        self.network.crash_node(name)
        self._restore_checkpoint(name, None)
        self.telemetry.metrics.counter("recovery.crashes").inc()
        self.telemetry.events.emit(
            "recovery.crash", node=name, platform=self.platform_name
        )

    @delivers
    def recover(self, name: str):
        """Bring *name* level with its peers: the one catch-up path.

        A node that was down restarts from its latest checkpoint; any
        node, down or live, then catches up: acting as the node, it asks
        each live peer of a scope in rank order with one
        ``catchup-request`` built from its own state, until it lacks
        nothing there.  Each peer answers only what *name* is entitled
        to see, and a node already level asks nothing.  A node still
        inside a fault-plan crash window is left untouched.  Returns the
        latest checkpoint (``None`` if the node never checkpointed).
        """
        self.party(name)
        restarted = self.network.recover_node(name)
        checkpoint = self.checkpoints.latest(name)
        if not restarted and self.network.is_crashed(name):
            return checkpoint
        metrics = self.telemetry.metrics
        with self.telemetry.span(
            "recovery.catchup", node=name, platform=self.platform_name
        ) as span:
            if restarted:
                self._restore_checkpoint(name, checkpoint)
            pairs: list[tuple] = []
            for scope, peers in self._catchup_scopes(name):
                for provider in live_providers(self.network, peers, name):
                    request = self._catchup_request(name, scope)
                    if request is None:
                        break
                    pairs.extend(ask(self.network, name, provider, request))
            self._caught_up(name, pairs)
            # Items apply in the recipient's delivery handlers, so the
            # items received are exactly those of the answers that arrived.
            metrics.counter("recovery.catchup.items").inc(len(pairs))
            self.telemetry.tracer.set_attribute(span, "items", len(pairs))
        if restarted:
            metrics.counter("recovery.recoveries").inc()
            self.telemetry.events.emit(
                "recovery.recover",
                node=name,
                platform=self.platform_name,
                from_sequence=None if checkpoint is None else checkpoint.sequence,
            )
        return checkpoint

    def _catchup_scopes(self, name: str) -> list[tuple[object, object]]:
        """What *name* catches up on: ``(scope, peers that may serve it)``
        pairs.  By default one scope, served by every other party."""
        return [(None, self.parties)]

    def _caught_up(self, name: str, pairs: list[tuple]) -> None:
        """Subclass hook: *name* has applied every pair that arrived."""

    def _on_catchup_request(self, message) -> None:
        """Delivery handler for ``catchup-request``, on a provider: it
        answers from its own account with one ``catchup`` reply, kept to
        send again if the request is."""
        self.network.reply(
            message,
            "catchup",
            self._catchup_answer(message.recipient, message.sender, message.payload),
        )

    def _on_catchup(self, message) -> None:
        """Delivery handler for ``catchup``, on the requester: each
        ``(kind, payload)`` pair goes to the node's own handler for that
        kind, as if it had arrived live (the answer itself was observed
        once), then the answer is kept for the call."""
        node = self.network.node(message.recipient)
        for kind, payload in message.payload:
            node.handle(message._replace(kind=kind, payload=payload))
        self.network.record_reply(message)
