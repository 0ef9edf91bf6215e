"""Merkle trees, inclusion proofs, and tear-offs."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ProofError
from repro.common.serialization import canonical_bytes
from repro.crypto.merkle import (
    InclusionProof,
    MerkleTree,
    TearOff,
    encoded_merkle_root,
    leaf_digest,
)


@pytest.fixture
def values():
    return ["alpha", {"amount": 100}, ["nested", 1], "delta", 42]


@pytest.fixture
def tree(values):
    return MerkleTree(values)


class TestTree:
    def test_root_deterministic(self, values):
        assert MerkleTree(values).root == MerkleTree(values).root

    def test_root_sensitive_to_content(self, values):
        changed = values[:]
        changed[1] = {"amount": 101}
        assert MerkleTree(values).root != MerkleTree(changed).root

    def test_root_sensitive_to_order(self, values):
        assert MerkleTree(values).root != MerkleTree(list(reversed(values))).root

    def test_empty_tree_has_root(self):
        assert len(MerkleTree([]).root) == 32

    def test_single_leaf(self):
        tree = MerkleTree(["only"])
        assert tree.leaf_count == 1
        assert tree.inclusion_proof(0).verify("only", tree.root)

    @pytest.mark.parametrize("count", range(8))
    def test_encoded_root_equals_tree_root(self, values, count):
        leaves = (values * 2)[:count]
        encoded = [canonical_bytes(v) for v in leaves]
        assert encoded_merkle_root(encoded) == MerkleTree(leaves).root
        assert encoded_merkle_root(iter(encoded)) == MerkleTree(leaves).root

    def test_leaf_digest_domain_separated(self):
        # A leaf equal to an inner-node digest must not collide.
        assert leaf_digest("x") != leaf_digest("y")


class TestInclusionProofs:
    def test_every_leaf_provable(self, tree, values):
        for index, value in enumerate(values):
            assert tree.inclusion_proof(index).verify(value, tree.root)

    def test_wrong_value_fails(self, tree):
        assert not tree.inclusion_proof(0).verify("not-alpha", tree.root)

    def test_wrong_root_fails(self, tree, values):
        other = MerkleTree(values + ["extra"])
        assert not tree.inclusion_proof(0).verify(values[0], other.root)

    def test_wrong_index_fails(self, tree, values):
        proof = tree.inclusion_proof(0)
        shifted = InclusionProof(
            leaf_index=1, leaf_count=proof.leaf_count, path=proof.path
        )
        assert not shifted.verify(values[0], tree.root)

    def test_out_of_range_index_rejected(self, tree):
        with pytest.raises(ProofError):
            tree.inclusion_proof(99)

    def test_out_of_range_proof_fails_closed(self, tree, values):
        proof = InclusionProof(leaf_index=77, leaf_count=5, path=())
        assert not proof.verify(values[0], tree.root)


class TestTearOffs:
    def test_tear_off_verifies(self, tree):
        assert tree.tear_off({0, 2}).verify(tree.root)

    def test_reveal_all(self, tree):
        tear = tree.tear_off(set(range(tree.leaf_count)))
        assert tear.verify(tree.root)
        assert tear.disclosure_ratio() == 1.0

    def test_reveal_none(self, tree):
        tear = tree.tear_off(set())
        assert tear.verify(tree.root)
        assert tear.disclosure_ratio() == 0.0

    def test_hidden_values_absent(self, tree, values):
        tear = tree.tear_off({0})
        assert tear.visible == {0: values[0]}
        assert set(tear.hidden) == {1, 2, 3, 4}
        for digest in tear.hidden.values():
            assert isinstance(digest, bytes)

    def test_tampered_visible_leaf_fails(self, tree):
        tear = tree.tear_off({0})
        forged = TearOff(
            leaf_count=tear.leaf_count,
            visible={0: "tampered"},
            hidden=tear.hidden,
        )
        assert not forged.verify(tree.root)

    def test_tampered_hidden_digest_fails(self, tree):
        tear = tree.tear_off({0})
        hidden = dict(tear.hidden)
        hidden[1] = b"\x00" * 32
        forged = TearOff(
            leaf_count=tear.leaf_count, visible=tear.visible, hidden=hidden
        )
        assert not forged.verify(tree.root)

    def test_moving_leaf_between_positions_fails(self, tree, values):
        tear = tree.tear_off({0, 1})
        swapped = TearOff(
            leaf_count=tear.leaf_count,
            visible={0: values[1], 1: values[0]},
            hidden=tear.hidden,
        )
        assert not swapped.verify(tree.root)

    def test_incomplete_coverage_rejected(self, tree):
        with pytest.raises(ProofError, match="every leaf"):
            TearOff(leaf_count=5, visible={0: "a"}, hidden={1: b"x" * 32})

    def test_out_of_range_reveal_rejected(self, tree):
        with pytest.raises(ProofError, match="out of range"):
            tree.tear_off({99})

    def test_disclosure_ratio(self, tree):
        assert tree.tear_off({0, 1}).disclosure_ratio() == pytest.approx(0.4)

    def test_wire_size_grows_with_disclosure(self):
        # Holds for leaves larger than the 32-byte digest they replace.
        tree = MerkleTree(["x" * 100, "y" * 100, "z" * 100, "w" * 100])
        small = tree.tear_off({0}).wire_size()
        large = tree.tear_off({0, 1, 2}).wire_size()
        assert large > small


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.text(max_size=20), min_size=1, max_size=16), st.data())
    def test_any_subset_tears_off_consistently(self, leaves, data):
        tree = MerkleTree(leaves)
        subset = data.draw(
            st.sets(st.integers(min_value=0, max_value=len(leaves) - 1))
        )
        tear = tree.tear_off(subset)
        assert tear.verify(tree.root)
        for index in subset:
            assert tear.visible[index] == leaves[index]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(), min_size=1, max_size=32))
    def test_all_inclusion_proofs_hold(self, leaves):
        tree = MerkleTree(leaves)
        for index, value in enumerate(leaves):
            assert tree.inclusion_proof(index).verify(value, tree.root)
