"""The Quorum simulation.

Section 5: "Its key differentiator is the ability to store private state
separate from the public ledger...  One key limitation of the private
transaction model in Quorum is that it does not prevent the double
spending of assets...  Another major drawback of Quorum is that the public
ledger includes private transactions, including the list of participants
of the transaction, revealing to the entire network which parties are
interacting."

Both documented weaknesses are reproduced faithfully and demonstrated by
dedicated methods: :meth:`demonstrate_private_double_spend` succeeds (the
flaw), while the same spend on public state is rejected; and every private
transaction broadcast exposes its participant list to all nodes (checked
by the leakage audit).

A sender executes its transaction and submits it to consensus only;
consensus orders it, appends it to the public chain and gossips it to
every other node, all in its ``submit`` handler.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import (
    ContractError,
    DeliveryError,
    DoubleSpendError,
    MembershipError,
    OffChainError,
    PlatformError,
    PrivacyError,
    ReproError,
)
from repro.common.serialization import canonical_bytes, from_canonical_json
from repro.execution.contracts import SmartContract, StateView
from repro.ledger.block import Chain
from repro.ledger.ordering import OrderingService
from repro.ledger.state import WorldState
from repro.ledger.transaction import Transaction, WriteEntry
from repro.ledger.validation import apply_writes
from repro.network.messages import Refusal
from repro.platforms.base import (
    Platform,
    delivers,
    TxReceipt,
    TxRequest,
)
from repro.platforms.quorum.txmanager import PrivateTransactionManager

SEQUENCER_NODE = "quorum-consensus"


def _gossip_kind(tx: Transaction) -> str:
    """The message kind that carries *tx* to the other nodes."""
    return f"{tx.metadata['kind']}-tx"


@dataclass
class QuorumTxResult:
    """Outcome of one (public or private) transaction.

    ``return_values`` holds the sender's own execution result, keyed by
    the sender; other nodes execute when the transaction reaches them.
    """

    tx: Transaction
    payload_hash: str | None
    participants: list[str]
    return_values: dict[str, object]


class QuorumNetwork(Platform):
    """A Quorum network: shared public chain, per-node private state."""

    platform_name = "quorum"

    def __init__(
        self,
        seed: str = "quorum",
        resilient_delivery: bool = False,
    ) -> None:
        super().__init__(seed=seed, resilient_delivery=resilient_delivery)
        self.chain = Chain("quorum-public")
        self.public_states: dict[str, WorldState] = {}
        self.private_states: dict[str, WorldState] = {}
        self.managers: dict[str, PrivateTransactionManager] = {}
        self.contracts: dict[str, SmartContract] = {}
        self.contract_hosts: dict[str, set[str]] = {}
        # The height up to which each node has applied every
        # transaction, in chain order: what it asks to catch up from.
        self._applied_upto: dict[str, int] = {}
        self.sequencer = OrderingService(
            SEQUENCER_NODE,
            self.clock,
            operators=("member",),
            network=self.network,
            telemetry=self.telemetry,
        )
        self.network.node(SEQUENCER_NODE).on("submit", self._on_submit)
        self.ordering = self.sequencer

    # -- membership

    def onboard(self, name: str, attributes: dict | None = None):
        party = super().onboard(name, attributes=attributes)
        # A new node starts empty, like one restored from no checkpoint.
        self._restore_checkpoint(name, None)
        node = self.network.node(name)
        for kind in ("public-tx", "private-tx"):
            node.on(kind, self._on_chain_tx)
        node.on("private-payload", self._on_payload)
        if len(self.parties) == 1:
            # The first onboarded member operates consensus.
            self.sequencer.operators = (name,)
        return party

    # -- contract deployment

    def deploy_contract(
        self,
        deployer: str,
        contract: SmartContract,
        private_for: list[str] | None = None,
    ) -> None:
        """Deploy a contract publicly or privately.

        Private deployment distributes the code only to ``private_for``
        (plus the deployer); other nodes never see the bytecode — Quorum's
        native 'install on involved nodes' equivalent.
        """
        if deployer not in self.parties:
            raise MembershipError(f"{deployer!r} is not onboarded")
        if contract.language != "evm-solidity":
            raise ContractError("Quorum contracts must target the EVM")
        self.contracts[contract.contract_id] = contract
        if private_for is None:
            self.contract_hosts[contract.contract_id] = set(self.parties)
        else:
            hosts = set(private_for) | {deployer}
            unknown = hosts - set(self.parties)
            if unknown:
                raise MembershipError(f"unknown parties {sorted(unknown)}")
            self.contract_hosts[contract.contract_id] = hosts

    def code_visible_to(self, contract_id: str) -> set[str]:
        if contract_id not in self.contract_hosts:
            raise ContractError(f"unknown contract {contract_id!r}")
        return set(self.contract_hosts[contract_id])

    # -- transaction paths

    def _reachable(self, sender: str, target: str) -> bool:
        return not (
            self.network.is_crashed(target)
            or self.network.is_partitioned(sender, target)
        )

    def _simulate(
        self,
        node: str,
        contract_id: str,
        function: str,
        args: dict,
        state: WorldState,
    ):
        """*node* runs a contract over a view of *state*, leaving the state
        as it was; returns the value and the view holding the writes."""
        if node not in self.contract_hosts[contract_id]:
            raise PrivacyError(f"{node!r} has no code for {contract_id!r}")
        view = StateView(state)
        return self.contracts[contract_id].invoke(function, view, args), view

    def _run_contract(
        self, contract_id: str, function: str, args: dict, state: WorldState
    ):
        """Run a contract over *state*, then apply its writes and deletes."""
        view = StateView(state)
        value = self.contracts[contract_id].invoke(function, view, args)
        self._apply_view(view, state)
        return value, view

    @staticmethod
    def _apply_view(view: StateView, state: WorldState) -> None:
        for key, val in view.writes.items():
            state.put(key, val)
        for key in view.deletes:
            if state.exists(key):
                state.delete(key)

    def _check_sender(self, sender: str) -> None:
        """Refuse a transaction before any state mutation, so a failed one
        can be retried after recovery without double-applying its writes."""
        if sender not in self.parties:
            raise MembershipError(f"{sender!r} is not onboarded")
        self.authenticate(sender)
        if self.network.is_crashed(sender):
            raise DeliveryError(f"node {sender!r} is down")
        if self._applied_upto[sender] < self.chain.height:
            # It missed a delivery; its state is stale until it recovers.
            raise DeliveryError(f"node {sender!r} is behind the chain")
        self.sequencer.require_available()

    def _order(
        self, sender: str, tx: Transaction, view: StateView, state: WorldState
    ) -> None:
        """Submit *tx* to consensus; once it is ordered, the sender applies
        its own execution (*view* over *state*) at the height consensus
        recorded, and every other node applies it when the gossip
        arrives.  Raises consensus's refusal."""
        with self.telemetry.span("quorum.order"):
            request = self._send_critical(sender, SEQUENCER_NODE, "submit", tx)
            height = self.network.outcome(request)
        self._apply_view(view, state)
        self._applied_upto[sender] = height

    def _on_submit(self, message) -> None:
        """Delivery handler for ``submit``, on consensus: order the
        transaction in a batch of its own, append it to the public chain
        and gossip it to every other node; its height (or the refusal) is
        recorded for the sender's call.  A crashed or partitioned peer
        misses the gossip (it would be dropped at delivery anyway); it
        does not veto the transaction."""
        tx = message.payload
        try:
            self.sequencer.order("quorum-public", [tx], force=True)
        except ReproError as refusal:
            self.network.record(message, Refusal(refusal))
            return
        self.chain.append([tx], self.clock.now)
        height = self.chain.height
        targets = [
            node for node in self.network.nodes()
            if node not in (SEQUENCER_NODE, tx.submitter)
            and self._reachable(SEQUENCER_NODE, node)
        ]
        self.network.broadcast(
            SEQUENCER_NODE, _gossip_kind(tx), (height, tx), recipients=targets,
        )
        self.network.record(message, height)

    def _on_chain_tx(self, message) -> None:
        """Delivery handler for ``public-tx`` and ``private-tx``, gossiped
        live or in a peer's catch-up answer: the recipient applies one ordered
        transaction, in chain order only.

        A public transaction's write set applies to public state.  A
        private one executes if the recipient is a party; the hash on the
        chain is how a node finds the payload it was sent, and without it
        the node stays behind.  A transaction past a gap (an earlier one
        lost in flight) or already applied changes nothing.
        """
        node = message.recipient
        height, tx = message.payload
        if height != self._applied_upto[node] + 1:
            return
        if tx.metadata["kind"] == "public":
            apply_writes(tx, self.public_states[node])
        elif node in tx.metadata["participants"]:
            payload_hash = tx.private_hashes["payload"]
            if not self.managers[node].has_payload(payload_hash):
                return
            resolved = self.managers[node].resolve(payload_hash)
            __, view = self._simulate(
                node, resolved["contract"], resolved["function"],
                resolved["args"], self.private_states[node],
            )
            self._apply_view(view, self.private_states[node])
        self._applied_upto[node] = height

    def _on_payload(self, message) -> None:
        """Delivery handler for ``private-payload``, sent live or in a
        peer's catch-up answer: the recipient's manager stores the copy
        encrypted for it."""
        self.managers[message.recipient].receive(message.payload)

    @delivers
    def send_public_transaction(
        self, sender: str, contract_id: str, function: str, args: dict
    ) -> QuorumTxResult:
        """A normal Ethereum-style transaction: everyone sees everything.

        The sender executes it and applies its writes once consensus has
        ordered it; every node the gossip reaches applies its write set on
        delivery.  A crashed node misses the block, and catch-up replays
        it later.
        """
        self._check_sender(sender)
        with self.telemetry.span(
            "quorum.public_tx", sender=sender, contract=contract_id
        ):
            with self.telemetry.span("quorum.execute"):
                value, view = self._simulate(
                    sender, contract_id, function, args,
                    self.public_states[sender],
                )
            writes = tuple(
                [WriteEntry(key=k, value=v) for k, v in sorted(view.writes.items())]
                + [WriteEntry(key=k, is_delete=True) for k in sorted(view.deletes)]
            )
            tx = Transaction(
                channel="quorum-public",
                submitter=sender,
                writes=writes,
                metadata={"kind": "public", "participants": sorted(self.parties)},
                timestamp=self.clock.now,
            )
            self._order(sender, tx, view, self.public_states[sender])
        return QuorumTxResult(
            tx=tx, payload_hash=None,
            participants=sorted(self.parties), return_values={sender: value},
        )

    @delivers
    def send_private_transaction(
        self,
        sender: str,
        contract_id: str,
        function: str,
        args: dict,
        private_for: list[str],
    ) -> QuorumTxResult:
        """A private transaction: payload to participants, hash to everyone.

        Faithful to the paper's two leaks: (1) the broadcast carries the
        participant list in the clear; (2) there is no cross-group double
        spend check because non-participants cannot validate.

        Unreachable recipients: with ``resilient_delivery`` the
        transaction proceeds for the reachable participants, and each
        unreachable one lags until :meth:`recover` re-fetches its payload
        from a live holder; without it, the transaction fails fast with a
        typed refusal *before* any state mutation, so a retry after heal
        cannot double-apply.
        """
        self._check_sender(sender)
        participants = sorted(set(private_for) | {sender})
        recipients = [p for p in participants if p != sender]
        unavailable = [
            p for p in recipients if not self._reachable(sender, p)
        ]
        if unavailable and not self.resilient_delivery:
            # Surface the same refusal a direct send would raise.
            self.network._check_link(sender, unavailable[0])
            raise DeliveryError(f"node {unavailable[0]!r} is unreachable")
        # Every participant executes on delivery, so all must hold the code.
        missing = sorted(
            set(participants) - set(unavailable) - self.code_visible_to(contract_id)
        )
        if missing:
            raise PrivacyError(f"{missing[0]!r} has no code for {contract_id!r}")
        with self.telemetry.span(
            "quorum.private_tx",
            sender=sender,
            contract=contract_id,
            participants=len(participants),
        ):
            raw = canonical_bytes(
                {"contract": contract_id, "function": function, "args": args}
            )
            # The sender executes first, on the arguments as its peers
            # will decode them from the same bytes, so a contract that
            # raises encrypts and sends nothing.  Its writes apply once
            # consensus has ordered the transaction: no private state
            # moves before that.
            with self.telemetry.span("quorum.execute"):
                value, view = self._simulate(
                    sender, contract_id, function,
                    from_canonical_json(raw.decode("utf-8"))["args"],
                    self.private_states[sender],
                )
            # The encrypted payload crosses the wire once per reachable
            # recipient; the ciphertext itself exposes nothing.
            # Distribution itself is idempotent.
            with self.telemetry.span("quorum.distribute"):
                payload_hash, copies = self.managers[sender].distribute(
                    raw, participants, self.managers,
                    skip=tuple(unavailable),
                )
                self._crypto_ops["private-payload-encryption"].inc(len(copies))
                for participant, stored in copies.items():
                    self._send_critical(
                        sender, participant, "private-payload", stored
                    )
            # The public transaction: hash only — but participants in the
            # clear.  The other participants execute when it reaches them.
            tx = Transaction(
                channel="quorum-public",
                submitter=sender,
                private_hashes={"payload": payload_hash},
                metadata={"kind": "private", "participants": participants},
                timestamp=self.clock.now,
            )
            self._order(sender, tx, view, self.private_states[sender])
        return QuorumTxResult(
            tx=tx, payload_hash=payload_hash,
            participants=participants, return_values={sender: value},
        )

    # ------------------------------------------------------------------
    # Unified transaction pipeline (Platform hooks)
    #
    # Quorum mapping: ``private_for`` selects the private-transaction
    # path (payload to participants, hash to everyone — with the
    # documented participant-list leak); otherwise the public path runs.
    # ``private_args`` is refused: private payloads must stay replayable
    # to rebuild private state, so deletable off-ledger data contradicts
    # the architecture (Table 1's off-chain peer data '-').  The
    # sequencer cuts per transaction natively, so ``force_cut`` has no
    # batch to act on and the default sequential batch hook applies.
    # ------------------------------------------------------------------

    def _submit_one_native(self, request: TxRequest) -> TxReceipt:
        if request.private_args is not None:
            raise PlatformError(
                "quorum private payloads must remain replayable to rebuild "
                "private state; deletable TxRequest.private_args data is "
                "architecturally unsupported"
            )
        submitted_at = self.clock.now
        if request.private_for:
            result = self.send_private_transaction(
                request.submitter,
                request.contract_id,
                request.function,
                dict(request.args),
                private_for=list(request.private_for),
            )
        else:
            result = self.send_public_transaction(
                request.submitter,
                request.contract_id,
                request.function,
                dict(request.args),
            )
        return TxReceipt(
            request=request,
            platform=self.platform_name,
            tx_id=result.tx.tx_id,
            committed=True,
            status="committed",
            submitted_at=submitted_at,
            committed_at=self.clock.now,
            result=result,
            info={
                "kind": result.tx.metadata.get("kind"),
                "participants": list(result.participants),
                "payload_hash": result.payload_hash,
                "height": self.chain.height,
            },
        )

    def _state_snapshot(self) -> dict:
        return {
            "platform": self.platform_name,
            "height": self.chain.height,
            "chain": [tx.tx_id for tx in self.chain.transactions()],
            "public": {
                name: self.public_states[name].snapshot()
                for name in sorted(self.parties)
            },
            "private": {
                name: self.private_states[name].snapshot()
                for name in sorted(self.parties)
            },
        }

    # ------------------------------------------------------------------
    # Crash recovery (Platform hooks)
    #
    # Durable per node: the public chain (shared, append-only) and
    # checkpoints.  Volatile: public/private state, the transaction
    # manager's payload store, and the applied-position bookkeeping.
    # Catch-up visibility rule: the public chain replays to everyone,
    # but private payloads are re-delivered only by managers that hold
    # them and only to nodes named in the payload's own participant
    # list (enforced in ``PrivateTransactionManager.redeliver``).
    # ------------------------------------------------------------------

    def _checkpoint_data(self, name: str) -> dict:
        return {
            "heights": {"public": self._applied_upto[name]},
            "snapshots": {
                "public": self.public_states[name].dump(),
                "private": self.private_states[name].dump(),
            },
        }

    def _restore_checkpoint(self, name: str, checkpoint) -> None:
        # The ciphertexts are volatile: catch-up re-fetches them.
        snapshots = {} if checkpoint is None else checkpoint.snapshots
        self.public_states[name] = WorldState.from_dump(snapshots.get("public", {}))
        self.private_states[name] = WorldState.from_dump(
            snapshots.get("private", {})
        )
        self.managers[name] = PrivateTransactionManager(
            name, rng=self.rng.fork("tm:" + name)
        )
        self._applied_upto[name] = (
            0 if checkpoint is None else checkpoint.height_of("public")
        )

    def _catchup_request(self, name: str, scope: None):
        """``(the height *name* applied, the payloads its own manager
        lacks of the private transactions naming it on the chain)``, or
        ``None`` once it is level and lacks none."""
        manager = self.managers[name]
        lacking = tuple(
            tx.private_hashes["payload"]
            for tx in self.chain.transactions()
            if tx.metadata["kind"] == "private"
            and name in tx.metadata["participants"]
            and not manager.has_payload(tx.private_hashes["payload"])
        )
        height = self._applied_upto[name]
        if not lacking and height == self.chain.height:
            return None
        return height, lacking

    def _catchup_answer(self, provider: str, requester: str, request) -> tuple:
        """The asked payloads *provider* holds (its manager re-checks the
        entitlement), then the chain above the requester's height as the
        gossip each transaction was ordered with, up to the first whose
        payload the requester lacks and this provider cannot serve."""
        height, lacking = request
        pairs = []
        unserved = set()
        for payload_hash in lacking:
            try:
                stored = self.managers[provider].redeliver(payload_hash, requester)
            except (OffChainError, PrivacyError):
                unserved.add(payload_hash)
            else:
                pairs.append(("private-payload", stored))
        for block in self.chain.blocks():
            if block.height <= height:
                continue
            for tx in block.transactions:
                if tx.private_hashes.get("payload") in unserved:
                    return tuple(pairs)
                pairs.append((_gossip_kind(tx), (block.height, tx)))
        return tuple(pairs)

    def _caught_up(self, name: str, pairs: list[tuple]) -> None:
        redelivered = sum(kind == "private-payload" for kind, __ in pairs)
        if redelivered:
            self.telemetry.metrics.counter("recovery.redelivered").inc(redelivered)

    # -- the documented double-spend flaw

    def demonstrate_private_double_spend(
        self, owner: str, asset_key: str, group_a: list[str], group_b: list[str]
    ) -> dict:
        """Spend the same private asset into two disjoint groups.

        Succeeds — the paper's point.  Returns the resulting divergent
        private views so tests can assert both groups believe they own it.
        """
        def spend(view: StateView, args: dict):
            view.put(args["asset"], {"owner": args["to"]})
            return args["to"]

        contract = SmartContract(
            contract_id="asset-private", version=1, language="evm-solidity",
            functions={"spend": spend},
        )
        everyone = sorted(self.parties)
        self.deploy_contract(owner, contract, private_for=everyone)
        self.send_private_transaction(
            owner, "asset-private", "spend",
            {"asset": asset_key, "to": group_a[0]}, private_for=group_a,
        )
        self.send_private_transaction(
            owner, "asset-private", "spend",
            {"asset": asset_key, "to": group_b[0]}, private_for=group_b,
        )
        return {
            "group_a_view": self.private_states[group_a[0]].get(asset_key),
            "group_b_view": self.private_states[group_b[0]].get(asset_key),
        }

    def attempt_public_double_spend(
        self, owner: str, asset_key: str, first_to: str, second_to: str
    ) -> None:
        """The same spend on public state: the second transfer is rejected
        because every node validates ownership against shared state."""
        def spend(view: StateView, args: dict):
            current = view.get(args["asset"])
            if current is not None and current.get("owner") != args["from"]:
                raise DoubleSpendError(
                    f"{args['from']!r} does not own {args['asset']!r}"
                )
            view.put(args["asset"], {"owner": args["to"]})
            return args["to"]

        contract = SmartContract(
            contract_id="asset-public", version=1, language="evm-solidity",
            functions={"spend": spend},
        )
        self.deploy_contract(owner, contract)
        self.send_public_transaction(
            owner, "asset-public", "spend",
            {"asset": asset_key, "from": owner, "to": first_to},
        )
        # Second spend by the original owner must now fail on every node.
        self.send_public_transaction(
            owner, "asset-public", "spend",
            {"asset": asset_key, "from": owner, "to": second_to},
        )

    # -- private-state replay (node recovery)

    def rebuild_private_state(self, node: str) -> WorldState:
        """Reconstruct *node*'s private state by replaying the chain.

        This is how a recovering Quorum node restores its private state:
        walk the public chain, and for every private transaction whose
        payload this node's manager holds, re-execute it.  The procedure
        is also the executable reason Table 1 marks Quorum's off-chain
        peer data as requires-rewrite: if any payload was deleted (say,
        for a GDPR request), the replay raises and the node cannot
        recover — deletable data is incompatible with this architecture.
        """
        if node not in self.parties:
            raise MembershipError(f"{node!r} is not onboarded")
        manager = self.managers[node]
        rebuilt = WorldState()
        for tx in self.chain.transactions():
            if tx.metadata.get("kind") != "private":
                continue
            if node not in tx.metadata.get("participants", []):
                continue
            payload_hash = tx.private_hashes["payload"]
            resolved = manager.resolve(payload_hash)  # raises if deleted
            self._run_contract(
                resolved["contract"], resolved["function"], resolved["args"],
                rebuilt,
            )
        return rebuilt

    def verify_private_state(self, node: str) -> bool:
        """True iff the node's live private state matches a fresh replay."""
        return (
            self.rebuild_private_state(node).snapshot()
            == self.private_states[node].snapshot()
        )

    # -- private-state consistency checking

    def private_state_views(self, key: str) -> dict[str, object]:
        """Every node's view of a private-state key (absent nodes omitted)."""
        return {
            node: self.private_states[node].get(key)
            for node in sorted(self.parties)
            if self.private_states[node].exists(key)
        }

    def private_state_consistent(self, key: str) -> bool:
        """True iff all holders of *key* agree on its value.

        Divergence is exactly what the paper's double-spend flaw produces:
        two participant groups with contradictory private views and no
        protocol-level way to reconcile them.
        """
        views = list(self.private_state_views(key).values())
        return all(v == views[0] for v in views[1:])

    def divergent_keys(self) -> list[str]:
        """All private-state keys on which some nodes disagree."""
        keys = set()
        for node in self.parties:
            keys.update(self.private_states[node].keys())
        return sorted(
            key for key in keys if not self.private_state_consistent(key)
        )
