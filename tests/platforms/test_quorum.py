"""Quorum simulation: public/private state, tx manager, documented flaws."""

from __future__ import annotations

import pytest

from repro.common.errors import (
    ContractError,
    DoubleSpendError,
    MembershipError,
    OffChainError,
    PrivacyError,
)
from repro.common.serialization import canonical_bytes
from repro.crypto import symmetric
from repro.execution.contracts import SmartContract
from repro.platforms.quorum import QuorumNetwork, txmanager
from repro.platforms.quorum.txmanager import PrivateTransactionManager


def store_cc(cid="store"):
    def put(view, args):
        view.put(args["key"], args["value"])
        return args["value"]

    return SmartContract(
        contract_id=cid, version=1, language="evm-solidity",
        functions={"put": put},
    )


@pytest.fixture
def net():
    network = QuorumNetwork(seed="quorum-test")
    for node in ("N1", "N2", "N3", "N4"):
        network.onboard(node)
    network.deploy_contract("N1", store_cc())
    return network


class TestDeployment:
    def test_public_contract_visible_everywhere(self, net):
        assert net.code_visible_to("store") == {"N1", "N2", "N3", "N4"}

    def test_private_contract_scoped(self, net):
        net.deploy_contract("N1", store_cc("private-cc"), private_for=["N2"])
        assert net.code_visible_to("private-cc") == {"N1", "N2"}

    def test_non_evm_contract_rejected(self, net):
        bad = SmartContract("x", 1, "python-chaincode", {})
        with pytest.raises(ContractError, match="EVM"):
            net.deploy_contract("N1", bad)

    def test_unknown_party_in_private_for_rejected(self, net):
        with pytest.raises(MembershipError):
            net.deploy_contract("N1", store_cc("y"), private_for=["Ghost"])

    def test_unknown_deployer_rejected(self, net):
        with pytest.raises(MembershipError):
            net.deploy_contract("Ghost", store_cc("z"))


class TestPublicTransactions:
    def test_public_state_replicated_everywhere(self, net):
        net.send_public_transaction("N1", "store", "put", {"key": "k", "value": 5})
        for node in ("N1", "N2", "N3", "N4"):
            assert net.public_states[node].get("k") == 5

    def test_public_tx_on_chain(self, net):
        result = net.send_public_transaction(
            "N1", "store", "put", {"key": "k", "value": 5}
        )
        assert net.chain.height == 1
        assert result.tx.metadata["kind"] == "public"

    def test_public_exposure_network_wide(self, net):
        net.send_public_transaction("N1", "store", "put", {"key": "pub-k", "value": 5})
        assert "pub-k" in net.network.node("N4").observer.seen_data_keys


class TestPrivateTransactions:
    def test_private_state_only_at_participants(self, net):
        net.send_private_transaction(
            "N1", "store", "put", {"key": "priv", "value": 9}, private_for=["N2"]
        )
        assert net.private_states["N1"].get("priv") == 9
        assert net.private_states["N2"].get("priv") == 9
        assert not net.private_states["N3"].exists("priv")
        assert not net.private_states["N4"].exists("priv")

    def test_only_hash_on_chain(self, net):
        result = net.send_private_transaction(
            "N1", "store", "put", {"key": "priv", "value": 9}, private_for=["N2"]
        )
        tx = net.chain.transactions()[-1]
        assert tx.private_hashes["payload"] == result.payload_hash
        assert tx.writes == ()

    def test_participant_list_broadcast_to_all(self, net):
        """The paper's second Quorum drawback, reproduced."""
        net.send_private_transaction(
            "N1", "store", "put", {"key": "priv", "value": 9}, private_for=["N2"]
        )
        for outsider in ("N3", "N4"):
            observer = net.network.node(outsider).observer
            assert {"N1", "N2"} <= observer.seen_identities
            assert "priv" not in observer.seen_data_keys

    def test_non_participant_cannot_resolve_payload(self, net):
        result = net.send_private_transaction(
            "N1", "store", "put", {"key": "priv", "value": 9}, private_for=["N2"]
        )
        with pytest.raises(PrivacyError, match="not a party"):
            net.replicas["N3"].manager.resolve(result.payload_hash)

    def test_participants_resolve_identical_payload(self, net):
        result = net.send_private_transaction(
            "N1", "store", "put", {"key": "priv", "value": 9}, private_for=["N2"]
        )
        p1 = net.replicas["N1"].manager.resolve(result.payload_hash)
        p2 = net.replicas["N2"].manager.resolve(result.payload_hash)
        assert p1 == p2
        assert p1["args"] == {"key": "priv", "value": 9}

    def test_consensus_sees_submitter_and_participants(self, net):
        net.send_private_transaction(
            "N1", "store", "put", {"key": "priv", "value": 9}, private_for=["N2"]
        )
        assert {"N1", "N2"} <= net.network.node("quorum-consensus").observer.seen_identities

    def test_raising_contract_encrypts_and_sends_nothing(self, net):
        """A contract that raises on the sender leaves no payload in any
        manager, no message on the wire and no state behind."""

        def write_then_fail(view, args):
            view.put("half", 1)
            raise ContractError("refused")

        net.deploy_contract("N1", SmartContract(
            "failing", 1, "evm-solidity", {"go": write_then_fail}
        ))
        sent = net.network.stats.messages_sent
        with pytest.raises(ContractError, match="refused"):
            net.send_private_transaction(
                "N1", "failing", "go", {}, private_for=["N2", "N3"]
            )
        assert net.chain.height == 0
        assert net.network.stats.messages_sent == sent
        for node in ("N1", "N2", "N3", "N4"):
            assert net.replicas[node].manager.payload_hashes() == []
            assert not net.private_states[node].exists("half")

    def test_sender_executes_the_decoded_arguments(self, net):
        """The sender's state holds what its peers decode, not the
        caller's objects (a tuple arrives everywhere as a list)."""
        net.send_private_transaction(
            "N1", "store", "put", {"key": "pair", "value": (1, 2)},
            private_for=["N2"],
        )
        assert net.private_states["N1"].get("pair") == [1, 2]
        assert net.verify_private_state("N1")


class TestDoubleSpend:
    def test_private_double_spend_succeeds(self, net):
        """Section 5: 'it does not prevent the double spending of assets'."""
        views = net.demonstrate_private_double_spend(
            "N1", "asset", ["N2"], ["N3"]
        )
        assert views["group_a_view"] == {"owner": "N2"}
        assert views["group_b_view"] == {"owner": "N3"}

    def test_private_views_diverge(self, net):
        net.demonstrate_private_double_spend("N1", "asset", ["N2"], ["N3"])
        assert (
            net.private_states["N2"].get("asset")
            != net.private_states["N3"].get("asset")
        )

    def test_public_double_spend_rejected(self, net):
        with pytest.raises(DoubleSpendError):
            net.attempt_public_double_spend("N1", "asset-pub", "N2", "N3")

    def test_first_public_spend_committed(self, net):
        try:
            net.attempt_public_double_spend("N1", "asset-pub", "N2", "N3")
        except DoubleSpendError:
            pass
        assert net.public_states["N4"].get("asset-pub") == {"owner": "N2"}


class TestTransactionManager:
    def test_payload_hash_deterministic(self):
        m1 = PrivateTransactionManager("a")
        m2 = PrivateTransactionManager("b")
        managers = {"a": m1, "b": m2}
        h1, __ = m1.distribute(canonical_bytes({"x": 1}), ["a", "b"], managers)
        # Same payload from another sender: same hash (content-addressed).
        h2, __ = m2.distribute(canonical_bytes({"x": 1}), ["a", "b"], managers)
        assert h1 == h2

    def test_delete_breaks_replay(self):
        m1 = PrivateTransactionManager("a")
        m2 = PrivateTransactionManager("b")
        managers = {"a": m1, "b": m2}
        payload_hash, copies = m1.distribute(canonical_bytes({"x": 1}), ["a", "b"], managers)
        m2.receive(copies["b"])
        m2.delete(payload_hash)
        with pytest.raises(PrivacyError):
            m2.resolve(payload_hash)

    def test_delete_missing_rejected(self):
        with pytest.raises(OffChainError):
            PrivateTransactionManager("a").delete("nope")

    def test_unknown_recipient_rejected(self):
        manager = PrivateTransactionManager("a")
        with pytest.raises(PrivacyError, match="no transaction manager"):
            manager.distribute(canonical_bytes({"x": 1}), ["ghost"], {"a": manager})

    def test_sender_keeps_only_its_own_copy(self):
        """Pins that a distribution leaves the sender holding nothing for
        its peers: each peer's copy is returned for its payload message,
        and a copy whose message was lost is re-encrypted from the
        sender's own when it is redelivered."""
        m1 = PrivateTransactionManager("a")
        m2 = PrivateTransactionManager("b")
        managers = {"a": m1, "b": m2}
        first, lost = m1.distribute(canonical_bytes({"x": 1}), ["a", "b"], managers)
        second, copies = m1.distribute(canonical_bytes({"x": 2}), ["a", "b"], managers)
        assert set(copies) == set(lost) == {"b"}
        assert m1.payload_hashes() == sorted([first, second])
        fresh = m1.redeliver(first, "b")
        assert fresh.ciphertext != lost["b"].ciphertext
        m2.receive(fresh)
        assert m2.resolve(first) == {"x": 1}

    def test_one_pair_key_per_peer_across_distributions(self, monkeypatch):
        derivations = []
        real_hkdf = txmanager.hkdf

        def counting_hkdf(key_material, info, *args):
            derivations.append((key_material, info))
            return real_hkdf(key_material, info, *args)

        monkeypatch.setattr(txmanager, "hkdf", counting_hkdf)
        monkeypatch.setattr(symmetric, "hkdf", counting_hkdf)
        managers = {owner: PrivateTransactionManager(owner) for owner in "abc"}
        hashes = [
            managers["a"].distribute(canonical_bytes({"x": i}), ["a", "b", "c"], managers)[0]
            for i in range(10)
        ]
        assert managers["a"].resolve(hashes[-1]) == {"x": 9}
        pair_keys = [m for m, info in derivations if info == "repro/quorum/pair"]
        assert sorted(pair_keys) == [b"a|a", b"a|b", b"a|c"]
        # Each key costs the pair derivation plus its enc and mac subkeys.
        assert len(derivations) == 3 * 3

    def test_payload_encrypted_per_pair(self):
        m1 = PrivateTransactionManager("a")
        m2 = PrivateTransactionManager("b")
        managers = {"a": m1, "b": m2}
        payload_hash, copies = m1.distribute(canonical_bytes({"secret": "v"}), ["a", "b"], managers)
        assert not m2.has_payload(payload_hash)  # in flight until received
        m2.receive(copies["b"])
        stored = m2._payloads[payload_hash]
        assert b"secret" not in stored.ciphertext.body
