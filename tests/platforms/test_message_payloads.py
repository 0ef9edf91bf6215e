"""Messages carry what they stand for.

Two properties of every state-carrying message kind:

- **Size.**  A message's modelled size is at least the encoded size of
  the object it stands for (a transaction's signing bytes, a Corda
  transaction's Merkle leaves, a ciphertext), so ``net.bytes_transferred``
  counts what crosses the wire rather than an id stub.
- **Self-sufficiency.**  A delivery handler reads only its message and
  the recipient's own replica: clearing the sender's copy (its vault
  entry, payload store, log or commit record) right after the send
  leaves the recipient applying exactly as before.
"""

from __future__ import annotations

from repro.common.serialization import canonical_bytes
from repro.execution.contracts import SmartContract
from repro.ledger.transaction import Transaction
from repro.network.messages import Exposure
from repro.platforms.corda import (
    Command,
    ComponentGroup,
    ContractState,
    CordaNetwork,
    Oracle,
    SignedTransaction,
    StateRef,
)
from repro.platforms.fabric import FabricNetwork
from repro.platforms.quorum import QuorumNetwork


def record_sends(network, monkeypatch, after=None) -> list:
    """Record every queued message on *network*; call ``after(message)``
    right after each one is queued, before anything is delivered."""
    sent = []
    queue_copy = network._queue_copy

    def recording(*args):
        message = queue_copy(*args)
        sent.append(message)
        if after is not None:
            after(message)
        return message

    monkeypatch.setattr(network, "_queue_copy", recording)
    return sent


def _leaves(values) -> int:
    return sum(len(canonical_bytes(value)) for value in values)


def _scalars(signature) -> int:
    return sum(
        len(scalar.to_bytes((scalar.bit_length() + 7) // 8, "big"))
        for scalar in (signature.challenge, signature.response)
    )


def encoded_size(kind: str, payload) -> int:
    """The encoded size of the object a *kind* message stands for,
    computed independently of the payload's own ``wire_size()``."""
    if kind == "proposal":
        return len(canonical_bytes(payload))
    if kind == "endorsement":
        endorsement = payload.endorsement
        return (
            len(payload.tx.signing_bytes())
            + len(canonical_bytes(payload.return_value))
            + len(endorsement.endorser) + _scalars(endorsement.signature)
        )
    if kind == "submit" and isinstance(payload, Transaction):
        return len(payload.signing_bytes())
    if kind == "submit":
        __, order, batch, __ = payload
        return sum(len(tx_id) for tx_id in order) + sum(
            len(tx.signing_bytes()) for tx, __ in batch
        )
    if kind == "append-ack":
        return _leaves(payload)
    if kind == "flow-signature":
        if payload is None:
            return len(b"null")
        return len(payload.endorser) + _scalars(payload.signature)
    if kind in ("notarised", "attestation"):
        return len(payload.tx_id) + _scalars(payload.signature)
    if kind == "block":
        return sum(len(entry.tx.signing_bytes()) for entry in payload)
    if kind in ("public-tx", "private-tx"):
        __, tx = payload
        return len(tx.signing_bytes())
    if kind == "append":
        __, entry = payload
        if isinstance(entry.item, Transaction):
            return len(entry.item.signing_bytes())
        if isinstance(entry.item, SignedTransaction):
            return encoded_size("notarise-full", entry.item)
        return _leaves(entry.item)
    if kind == "flow-proposal":
        return _leaves(payload._components())
    if kind in ("notarise-full", "finalise", "backchain-tx"):
        return _leaves(payload.wire._components())
    if kind == "attest":
        ftx, fact_name = payload
        return encoded_size("notarise-filtered", ftx) + len(fact_name)
    if kind == "notarise-filtered":
        return _leaves(payload.visible_components()) + 32 * len(
            payload.tear_off.hidden
        )
    if kind == "private-payload":
        ciphertext = payload.ciphertext
        return len(ciphertext.nonce + ciphertext.body + ciphertext.tag)
    raise AssertionError(f"no encoded size for kind {kind!r}")


def put_contract(language: str, cid: str = "cc") -> SmartContract:
    def put(view, args):
        view.put(args["key"], args["value"])
        return args["value"]

    return SmartContract(
        contract_id=cid, version=1, language=language, functions={"put": put}
    )


ORGS = ("Org1", "Org2", "Org3")


def fabric_net() -> FabricNetwork:
    net = FabricNetwork(seed="payloads", orderer_operators=ORGS)
    for org in ORGS:
        net.onboard(org)
    net.create_channel("ch", list(ORGS))
    net.deploy_chaincode("ch", put_contract("python-chaincode"), ["Org1", "Org2"])
    return net


def corda_net(validating: bool = False) -> CordaNetwork:
    net = CordaNetwork(
        seed="payloads", validating_notary=validating,
        notary_operators=("Alice", "Bob", "Carol"),
    )
    for party in ("Alice", "Bob", "Carol"):
        net.onboard(party)
    net.register_contract("iou", lambda wire: None)
    return net


def issue(net: CordaNetwork, participants=("Alice", "Bob"), inputs=(), fx=None):
    state = ContractState(
        contract_id="iou", participants=tuple(participants), data={"amount": 5}
    )
    payload = {} if fx is None else {"fact": "fx", "value": fx}
    wire = net.build_transaction(
        inputs=list(inputs), outputs=[state],
        commands=[Command(name="Issue", signers=(participants[0],), payload=payload)],
    )
    return net.run_flow(participants[0], wire)


def quorum_net() -> QuorumNetwork:
    net = QuorumNetwork(seed="payloads")
    for node in ("N1", "N2", "N3"):
        net.onboard(node)
    net.deploy_contract("N1", put_contract("evm-solidity"))
    return net


def check_sizes(sent, kinds) -> None:
    assert {message.kind for message in sent} == set(kinds)
    for message in sent:
        assert message.size_bytes >= encoded_size(message.kind, message.payload), (
            message.kind
        )


class TestModelledSize:
    """Pins: each kind's modelled size is at least the encoded size of
    the object the message stands for."""

    def test_fabric(self, monkeypatch):
        net = fabric_net()
        sent = record_sends(net.network, monkeypatch)
        net.invoke("ch", "Org3", "cc", "put", {"key": "k", "value": 1})
        check_sizes(sent, [
            "proposal", "endorsement", "submit", "block", "append", "append-ack",
        ])
        block = next(m for m in sent if m.kind == "block")
        # More than the transaction's signing bytes: the endorsements too.
        assert block.size_bytes > len(block.payload[0].tx.signing_bytes())

    def test_corda_non_validating_with_backchain_and_oracle(self, monkeypatch):
        net = corda_net()
        oracle = Oracle("fx-oracle", net, {"fx": 1.25})
        sent = record_sends(net.network, monkeypatch)
        first = issue(net, fx=1.25)
        issue(net, participants=("Alice", "Carol"), inputs=[first.output_refs[0]])
        wire = first.stx.wire
        oracle.attest("Alice", wire.filtered([ComponentGroup.COMMANDS]), "fx")
        check_sizes(sent, [
            "flow-proposal", "flow-signature", "notarise-filtered", "notarised",
            "finalise", "backchain-tx", "append", "append-ack", "attest",
            "attestation",
        ])

    def test_corda_validating(self, monkeypatch):
        net = corda_net(validating=True)
        sent = record_sends(net.network, monkeypatch)
        issue(net)
        check_sizes(sent, [
            "flow-proposal", "flow-signature", "notarise-full", "notarised",
            "finalise", "append", "append-ack",
        ])

    def test_quorum(self, monkeypatch):
        net = quorum_net()
        sent = record_sends(net.network, monkeypatch)
        net.send_private_transaction(
            "N1", "cc", "put", {"key": "k", "value": 1}, private_for=["N2"]
        )
        net.send_public_transaction("N1", "cc", "put", {"key": "p", "value": 2})
        check_sizes(sent, ["private-payload", "submit", "private-tx", "public-tx"])


class TestSenderCopyCleared:
    """Pins: every handler still applies after the sender's copy is
    cleared right after the send."""

    def test_fabric_block_without_the_commit_record(self, monkeypatch):
        net = fabric_net()
        channel = net.channel("ch")

        def clear(message):
            if message.kind == "block":
                channel.outcomes.clear()

        record_sends(net.network, monkeypatch, after=clear)
        net.invoke("ch", "Org1", "cc", "put", {"key": "k", "value": 1})
        assert not channel.outcomes
        for org in ORGS:
            assert channel.state_of(org).get("k") == 1
            assert net.replicas[org].heights["ch"] == 1

    def test_ordering_append_without_the_leader_log(self, monkeypatch):
        net = fabric_net()
        orderer = net.orderer
        replicate = orderer._replicate

        def replicate_then_clear(leader, entries):
            replicate(leader, entries)
            orderer.logs[leader].clear()

        monkeypatch.setattr(orderer, "_replicate", replicate_then_clear)
        result = net.invoke("ch", "Org1", "cc", "put", {"key": "k", "value": 1})
        leader, *followers = orderer.replicas
        assert orderer.logs[leader] == []
        for follower in followers:
            assert [entry.tx_id for entry in orderer.logs[follower]] == [
                result.tx.tx_id
            ]

    def test_corda_finalise_and_backchain_without_the_sender_vault(
        self, monkeypatch
    ):
        net = corda_net()
        first = issue(net)

        def clear(message):
            if message.kind in ("finalise", "backchain-tx"):
                net.vaults[message.sender].transactions.clear()

        record_sends(net.network, monkeypatch, after=clear)
        second = issue(
            net, participants=("Alice", "Carol"), inputs=[first.output_refs[0]]
        )
        carol = net.vault("Carol")
        assert carol.knows_transaction(first.stx.wire.tx_id)  # backchain
        assert carol.knows_transaction(second.stx.wire.tx_id)  # finalise
        assert StateRef(second.stx.wire.tx_id, 0) in carol.unconsumed
        assert not net.vault("Alice").transactions

    def test_quorum_payload_without_the_sender_store(self, monkeypatch):
        net = quorum_net()

        def clear(message):
            if message.kind == "private-payload":
                net.replicas[message.sender].manager._payloads.clear()

        record_sends(net.network, monkeypatch, after=clear)
        result = net.send_private_transaction(
            "N1", "cc", "put", {"key": "k", "value": 1}, private_for=["N2"]
        )
        assert not net.replicas["N1"].manager.has_payload(result.payload_hash)
        assert net.replicas["N2"].manager.has_payload(result.payload_hash)
        assert net.private_states["N2"].get("k") == 1


class TestPrivatePayloadExposure:
    """A Quorum ``private-payload`` reveals what its envelope carries in
    the clear: the sender and the participants, never the contents."""

    def test_names_sender_and_participants(self, monkeypatch):
        net = quorum_net()
        sent = record_sends(net.network, monkeypatch)
        net.send_private_transaction(
            "N1", "cc", "put", {"key": "k", "value": 1}, private_for=["N2"]
        )
        (payload,) = [m for m in sent if m.kind == "private-payload"]
        assert payload.recipient == "N2"
        assert payload.exposure == Exposure.of(identities={"N1", "N2"})
        # The same names already reach every node on the private-tx gossip.
        gossip = [m for m in sent if m.kind == "private-tx"]
        assert {m.recipient for m in gossip} == {"N2", "N3"}
        for message in gossip:
            assert payload.exposure.identities <= message.exposure.identities


class TestProposalResponseExposure:
    """An ``endorsement`` reply carries the executed transaction back to
    the client, so the client learns what the transaction reveals."""

    def test_client_that_did_not_endorse_learns_the_read_and_write_keys(self):
        net = fabric_net()
        net.deploy_chaincode("ch", SmartContract(
            contract_id="copy", version=1, language="python-chaincode",
            functions={"copy": lambda view, args: view.put(
                args["to"], view.get(args["from"])
            )},
        ), ["Org1", "Org2"])
        client = net.network.node("anonymous-client").observer
        assert not {"src", "dst"} & client.seen_data_keys
        proposed = net.propose(
            "ch", "Org3", "copy", "copy", {"from": "src", "to": "dst"},
            endorsers=["Org1", "Org2"], anonymous=True,
        )
        assert {entry.key for entry in proposed.tx.reads} == {"src"}
        assert {"src", "dst"} <= client.seen_data_keys
        assert {"Org1", "Org2"} <= client.seen_identities
