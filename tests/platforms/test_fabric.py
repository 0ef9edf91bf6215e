"""Fabric simulation: channels, lifecycle, PDCs, Idemix, orderer visibility."""

from __future__ import annotations

import pytest

from repro.common.errors import (
    ContractError,
    MembershipError,
    PlatformError,
    ValidationError,
)
from repro.execution.contracts import SmartContract
from repro.ledger.validation import EndorsementPolicy
from repro.network.simnet import Observer
from repro.offchain.stores import OffChainStore
from repro.platforms.fabric import (
    ANONYMOUS_CLIENT,
    ORDERER_NODE,
    FabricNetwork,
    ValidationCode,
)


def put_cc(cid="cc"):
    def put(view, args):
        view.put(args["key"], args["value"])
        return args["value"]

    def read(view, args):
        return view.get(args["key"])

    return SmartContract(
        contract_id=cid, version=1, language="python-chaincode",
        functions={"put": put, "read": read},
    )


@pytest.fixture
def net():
    network = FabricNetwork(seed="fabric-test")
    for org in ("Org1", "Org2", "Org3"):
        network.onboard(org)
    return network


@pytest.fixture
def channel(net):
    channel = net.create_channel("ch", ["Org1", "Org2"])
    net.deploy_chaincode("ch", put_cc(), ["Org1", "Org2"])
    return channel


class TestMembership:
    def test_onboard_registers_node_and_cert(self, net):
        assert "Org1" in net.network.nodes()
        net.ca.verify(net.party("Org1").certificate)

    def test_duplicate_onboard_rejected(self, net):
        with pytest.raises(PlatformError, match="already onboarded"):
            net.onboard("Org1")

    def test_channel_requires_onboarded_members(self, net):
        with pytest.raises(MembershipError):
            net.create_channel("bad", ["Org1", "Ghost"])

    def test_duplicate_channel_rejected(self, net, channel):
        with pytest.raises(PlatformError, match="already exists"):
            net.create_channel("ch", ["Org1"])


class TestChaincodeLifecycle:
    def test_commit_requires_majority_approval(self, net):
        channel = net.create_channel("ch2", ["Org1", "Org2", "Org3"])
        contract = put_cc("cc2")
        net.install_chaincode("Org1", contract)
        channel.approve_definition(
            "Org1", "cc2", 1, EndorsementPolicy.k_of(1, ["Org1"])
        )
        with pytest.raises(ContractError, match="majority"):
            channel.commit_definition("cc2")
        channel.approve_definition(
            "Org2", "cc2", 1, EndorsementPolicy.k_of(1, ["Org1"])
        )
        definition = channel.commit_definition("cc2")
        assert definition.committed

    def test_invoke_requires_committed_definition(self, net):
        net.create_channel("ch3", ["Org1", "Org2"])
        with pytest.raises(ContractError, match="not committed"):
            net.invoke("ch3", "Org1", "ghost-cc", "put", {})

    def test_chaincode_visible_only_on_endorsing_peers(self, net, channel):
        visible = net.engine.registry.nodes_with_code_visibility("cc")
        assert visible == {"Org1", "Org2"}


class TestInvoke:
    def test_commit_updates_all_replicas(self, net, channel):
        net.invoke("ch", "Org1", "cc", "put", {"key": "k", "value": 7})
        assert channel.state_of("Org1").get("k") == 7
        assert channel.state_of("Org2").get("k") == 7
        assert channel.replicas_consistent()

    def test_chain_grows(self, net, channel):
        net.invoke("ch", "Org1", "cc", "put", {"key": "k", "value": 7})
        net.invoke("ch", "Org2", "cc", "put", {"key": "j", "value": 8})
        assert channel.chain.height == 2
        channel.chain.verify()

    def test_non_member_cannot_invoke(self, net, channel):
        with pytest.raises(MembershipError):
            net.invoke("ch", "Org3", "cc", "put", {"key": "k", "value": 1})

    def test_endorsements_satisfy_policy(self, net, channel):
        result = net.invoke("ch", "Org1", "cc", "put", {"key": "k", "value": 1})
        endorsers = {e.endorser for e in result.tx.endorsements}
        assert endorsers == {"Org1", "Org2"}

    def test_read_version_recorded(self, net, channel):
        net.invoke("ch", "Org1", "cc", "put", {"key": "k", "value": 1})
        result = net.invoke("ch", "Org1", "cc", "read", {"key": "k"})
        assert result.return_value == 1
        reads = {r.key: r.version for r in result.tx.reads}
        assert reads == {"k": 1}

    def test_committed_and_invalid_recorded(self, net, channel):
        result = net.invoke("ch", "Org1", "cc", "put", {"key": "k", "value": 1})
        assert result.tx.tx_id in channel.committed_tx_ids

    def test_endorsement_acks_name_the_committed_tx(self, net, channel):
        acks = []
        for node in net.network.nodes():
            net.network.node(node).on("endorsement", acks.append)
        result = net.invoke("ch", "Org1", "cc", "put", {"key": "k", "value": 1})
        # Org1 submits and endorses: only Org2's endorsement crosses the wire.
        assert [(ack.sender, ack.recipient) for ack in acks] == [("Org2", "Org1")]
        # The reply carries Org2's endorsement of the committed tx, and the
        # transaction Org2 executed and signed.
        assert [ack.payload.endorsement for ack in acks] == [
            e for e in result.tx.endorsements if e.endorser == "Org2"
        ]
        assert acks[0].payload.tx.tx_id == result.tx.tx_id
        assert net.scheme.verify(
            net.parties["Org2"].public_key,
            result.tx.signing_bytes(),
            acks[0].payload.endorsement.signature,
        )

    def test_endorser_submitter_sends_itself_nothing(self, net, channel):
        """The submitter executes and signs its own endorsement in place:
        no message of the flow has its sender as its recipient."""

        class LinkRecorder(Observer):
            def __init__(self) -> None:
                super().__init__("link-recorder")
                self.links: list[tuple[str, str, str]] = []

            def observe(self, message) -> None:
                self.links.append((message.kind, message.sender, message.recipient))

        recorder = net.network.add_tap(LinkRecorder())
        net.invoke("ch", "Org1", "cc", "put", {"key": "k", "value": 1})
        kinds = {kind for kind, __, __ in recorder.links}
        assert {"proposal", "endorsement", "submit", "block"} <= kinds
        assert [link for link in recorder.links if link[1] == link[2]] == []

    def test_policy_checked_with_two_chaincodes_on_the_channel(self, net, channel):
        """Validation checks the policy of the chaincode the proposal was
        endorsed for, also when another chaincode is committed beside it."""
        net.deploy_chaincode("ch", put_cc("cc-2"), ["Org1", "Org2"])
        proposal = net.propose(
            "ch", "Org1", "cc", "put", {"key": "k", "value": 1},
            endorsers=["Org1"],
        )
        [result] = net.submit_batch("ch", [proposal])
        assert result.validation_code is ValidationCode.ENDORSEMENT_POLICY_FAILURE
        assert not channel.state_of("Org2").exists("k")


class TestPrivacyProperties:
    def test_non_members_receive_nothing(self, net, channel):
        net.invoke("ch", "Org1", "cc", "put", {"key": "secret", "value": 1})
        outsider = net.network.node("Org3").observer
        assert "secret" not in outsider.seen_data_keys
        assert not ({"Org1", "Org2"} & outsider.seen_identities)

    def test_orderer_sees_members_and_data(self, net, channel):
        """The Section 5 caveat, reproduced."""
        net.invoke("ch", "Org1", "cc", "put", {"key": "secret", "value": 1})
        assert {"Org1", "Org2"} <= net.network.node(ORDERER_NODE).observer.seen_identities
        assert "secret" in net.network.node(ORDERER_NODE).observer.seen_data_keys

    def test_channels_isolate_each_other(self, net, channel):
        net.create_channel("ch-b", ["Org2", "Org3"])
        net.deploy_chaincode("ch-b", put_cc("cc-b"), ["Org2", "Org3"])
        net.invoke("ch", "Org1", "cc", "put", {"key": "a-secret", "value": 1})
        net.invoke("ch-b", "Org3", "cc-b", "put", {"key": "b-secret", "value": 2})
        # Org3 (only on ch-b) never learned ch's data, and vice versa.
        assert "a-secret" not in net.network.node("Org3").observer.seen_data_keys
        assert "b-secret" not in net.network.node("Org1").observer.seen_data_keys
        # But the shared orderer accumulated both (S3.4).
        assert {"a-secret", "b-secret"} <= net.network.node(ORDERER_NODE).observer.seen_data_keys


class TestIdemix:
    def test_anonymous_submission_hides_client(self, net, channel):
        result = net.invoke(
            "ch", "Org1", "cc", "put", {"key": "k", "value": 1}, anonymous=True
        )
        assert result.tx.submitter == ANONYMOUS_CLIENT
        assert "idemix" in result.tx.metadata

    def test_anonymous_submitter_not_in_orderer_view(self, net, channel):
        before = set(net.network.node(ORDERER_NODE).observer.seen_identities)
        net.invoke(
            "ch", "Org1", "cc", "put", {"key": "k2", "value": 1}, anonymous=True
        )
        gained = net.network.node(ORDERER_NODE).observer.seen_identities - before
        # The orderer learns the endorsers but never the submitting client.
        assert ANONYMOUS_CLIENT not in gained

    def test_anonymous_invoke_sends_nothing_to_itself(self, net, channel, monkeypatch):
        """The Idemix client is a node: it sends the proposals and the
        order submission, and the endorsements come back to it."""
        links = []
        send = net.network.send

        def record(sender, recipient, *args, **kwargs):
            links.append((sender, recipient))
            return send(sender, recipient, *args, **kwargs)

        monkeypatch.setattr(net.network, "send", record)
        net.invoke(
            "ch", "Org1", "cc", "put", {"key": "k3", "value": 1}, anonymous=True
        )
        assert [link for link in links if link[0] == link[1]] == []
        assert {r for s, r in links if s == ANONYMOUS_CLIENT} == {
            "Org1", "Org2", ORDERER_NODE,
        }
        assert {s for s, r in links if r == ANONYMOUS_CLIENT} == {"Org1", "Org2"}

    def test_anonymous_commit_still_applies(self, net, channel):
        net.invoke(
            "ch", "Org1", "cc", "put", {"key": "anon", "value": 5}, anonymous=True
        )
        assert channel.reference_state().get("anon") == 5


class TestPrivateDataCollections:
    def test_pdc_keeps_values_off_chain(self, net, channel):
        channel.create_collection("col", ["Org1"])
        result = net.invoke(
            "ch", "Org1", "cc", "put", {"key": "ref", "value": "see-col"},
            collection_writes={"col": {"pii": {"ssn": "123"}}},
        )
        # Hash on chain, value in the member store only.
        assert "col/pii" in result.tx.private_hashes
        assert channel.collection("col").get("Org1", "pii") == {"ssn": "123"}
        for tx in channel.chain.transactions():
            for write in tx.writes:
                assert write.value != {"ssn": "123"}

    def test_pdc_members_listed_in_transaction(self, net, channel):
        """The paper's PDC caveat: membership is disclosed."""
        channel.create_collection("col", ["Org1"])
        result = net.invoke(
            "ch", "Org1", "cc", "put", {"key": "ref", "value": 1},
            collection_writes={"col": {"pii": "x"}},
        )
        assert result.tx.metadata["collections"] == [
            {"collection": "col", "members": ["Org1"]}
        ]

    def test_non_member_cannot_read_collection(self, net, channel):
        channel.create_collection("col", ["Org1"])
        with pytest.raises(MembershipError):
            channel.collection("col").get("Org2", "pii")

    def test_purge_erases_from_all_member_stores(self, net, channel):
        channel.create_collection("col", ["Org1", "Org2"])
        net.invoke(
            "ch", "Org1", "cc", "put", {"key": "ref", "value": 1},
            collection_writes={"col": {"pii": "x"}},
        )
        channel.collection("col").purge("pii", reason="gdpr")
        for store in channel.collection("col").stores.values():
            assert store.is_deleted("pii")

    def test_unknown_collection_rejected(self, net, channel):
        with pytest.raises(MembershipError, match="no collection"):
            channel.collection("ghost")

    def test_collection_members_must_be_channel_members(self, net, channel):
        with pytest.raises(MembershipError):
            channel.create_collection("bad", ["Org1", "Org3"])
