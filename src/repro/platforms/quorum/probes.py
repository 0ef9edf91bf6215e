"""Table 1, Quorum column: ``PROBES`` maps each mechanism to a probe of a
:class:`QuorumNetwork` or to a constant row (see :mod:`repro.core.probe`)."""

from __future__ import annotations

from repro.common.errors import PrivacyError
from repro.core.mechanisms import Mechanism
from repro.crypto.symmetric import SymmetricKey
from repro.execution.contracts import SmartContract, StateView
from repro.platforms.base import SupportLevel
from repro.platforms.quorum.network import QuorumNetwork, QuorumTxResult

CONTRACT_ID = "probe-store"


def _fixture(net: QuorumNetwork) -> None:
    """Onboard three nodes and deploy a public key-value contract."""
    for org in ("probe-n1", "probe-n2", "probe-n3"):
        if org not in net.parties:
            net.onboard(org)
    if CONTRACT_ID not in net.contracts:
        def put(view: StateView, args: dict):
            view.put(args["key"], args["value"])
            return args["value"]

        contract = SmartContract(
            contract_id=CONTRACT_ID, version=1, language="evm-solidity",
            functions={"put": put},
        )
        net.deploy_contract("probe-n1", contract)


def _put_private(net: QuorumNetwork, key: str, value) -> QuorumTxResult:
    """A private ``put`` from probe-n1 for probe-n2; probe-n3 is left out."""
    _fixture(net)
    return net.send_private_transaction(
        "probe-n1", CONTRACT_ID, "put", {"key": key, "value": value},
        private_for=["probe-n2"],
    )


def separation_of_ledgers_parties(net: QuorumNetwork) -> tuple[SupportLevel, str]:
    _put_private(net, "s", 1)
    data_leaked = "s" in net.network.node("probe-n3").observer.seen_data_keys
    # Private state separates *data*; but participant identities leak
    # network-wide (still counts as ledger separation for parties at
    # the data level — Table 1 rates the row '+').
    return (
        SupportLevel.NATIVE if not data_leaked else SupportLevel.REWRITE,
        "private state partitions the ledger per participant group "
        "(though the participant list itself is broadcast — see the "
        "leakage audit)",
    )


def one_time_public_keys(net: QuorumNetwork) -> tuple[SupportLevel, str]:
    # Ethereum-style accounts are just key pairs: a party can mint a
    # fresh externally-owned account at will, but linking certificates
    # and key management are application work: '*'.
    _fixture(net)
    fresh = net.scheme.keygen(net.rng.fork("quorum-fresh-account"))
    acceptable = len(fresh.public.fingerprint()) == 16  # any key has an address
    return (
        SupportLevel.IMPLEMENTABLE if acceptable else SupportLevel.REWRITE,
        "account-model addresses are derivable from any fresh key; the "
        "identity-linking layer must be built by the application",
    )


def separation_of_ledgers_data(net: QuorumNetwork) -> tuple[SupportLevel, str]:
    _put_private(net, "priv-k", 9)
    isolated = not net.private_states["probe-n3"].exists("priv-k")
    return (
        SupportLevel.NATIVE if isolated else SupportLevel.REWRITE,
        "private state updates apply only at payload recipients; the "
        "public chain carries the payload hash",
    )


def off_chain_peer_data(net: QuorumNetwork) -> tuple[SupportLevel, str]:
    # Private payloads must remain replayable to rebuild private state;
    # deleting one breaks resolution, so deletable off-chain peer data
    # conflicts with the architecture: '-'.
    result = _put_private(net, "gdpr-k", "pii")
    manager = net.managers["probe-n2"]
    manager.delete(result.payload_hash)
    try:
        manager.resolve(result.payload_hash)
        still_works = True
    except PrivacyError:
        still_works = False
    return (
        SupportLevel.NATIVE if still_works else SupportLevel.REWRITE,
        "deleting a private payload breaks state replay at that node; "
        "deletable peer data requires re-architecting private state",
    )


def symmetric_encryption(net: QuorumNetwork) -> tuple[SupportLevel, str]:
    _fixture(net)
    key = SymmetricKey.from_seed("quorum-probe-key")
    ciphertext = key.encrypt(b"confidential", net.rng.fork("sym"))
    net.send_public_transaction(
        "probe-n1", CONTRACT_ID, "put",
        {"key": "enc", "value": ciphertext.body.hex()},
    )
    ok = (
        net.public_states["probe-n2"].get("enc") == ciphertext.body.hex()
        and key.decrypt(ciphertext) == b"confidential"
    )
    return (
        SupportLevel.NATIVE if ok else SupportLevel.REWRITE,
        "contract storage is opaque bytes; encrypted values round-trip",
    )


def merkle_tear_offs(net: QuorumNetwork) -> tuple[SupportLevel, str]:
    # Transactions are monolithic RLP payloads with no component-group
    # Merkle structure; a participant receives all or nothing: '-'.
    result = _put_private(net, "t", 5)
    resolved = net.managers["probe-n2"].resolve(result.payload_hash)
    all_or_nothing = set(resolved) == {"contract", "function", "args"}
    return (
        SupportLevel.REWRITE if all_or_nothing else SupportLevel.IMPLEMENTABLE,
        "payload recipients receive the full transaction payload; no "
        "partial-visibility structure exists to tear off",
    )


def install_on_involved_nodes(net: QuorumNetwork) -> tuple[SupportLevel, str]:
    def noop(view: StateView, args: dict):
        return None

    contract = SmartContract(
        contract_id="probe-private-code", version=1, language="evm-solidity",
        functions={"noop": noop},
    )
    _fixture(net)
    net.deploy_contract("probe-n1", contract, private_for=["probe-n2"])
    visible = net.code_visible_to("probe-private-code")
    return (
        SupportLevel.NATIVE if visible == {"probe-n1", "probe-n2"}
        else SupportLevel.REWRITE,
        f"private contract code distributed to {sorted(visible)} only",
    )


def private_sequencing_service(net: QuorumNetwork) -> tuple[SupportLevel, str]:
    _fixture(net)
    return (
        SupportLevel.NATIVE if net.sequencer.is_member_operated(set(net.parties))
        else SupportLevel.REWRITE,
        "consortium members run the consensus (Raft/IBFT) nodes "
        "themselves; no third-party sequencer exists",
    )


PROBES = {
    Mechanism.SEPARATION_OF_LEDGERS_PARTIES: separation_of_ledgers_parties,
    Mechanism.ONE_TIME_PUBLIC_KEYS: one_time_public_keys,
    # Node-level permissioning with known identities; no anonymous
    # credential layer exists in the protocol: '-'.
    Mechanism.ZKP_OF_IDENTITY: (
        SupportLevel.REWRITE,
        "the permissioned node list is identity-based; anonymous "
        "credentials would require rewriting the membership layer",
    ),
    Mechanism.SEPARATION_OF_LEDGERS_DATA: separation_of_ledgers_data,
    Mechanism.OFF_CHAIN_PEER_DATA: off_chain_peer_data,
    Mechanism.SYMMETRIC_ENCRYPTION: symmetric_encryption,
    Mechanism.MERKLE_TEAR_OFFS: merkle_tear_offs,
    Mechanism.INSTALL_ON_INVOLVED_NODES: install_on_involved_nodes,
    # EVM execution is the state-transition function of the chain
    # itself; moving it off-chain breaks consensus: '-'.
    Mechanism.OFF_CHAIN_EXECUTION_ENGINE: (
        SupportLevel.REWRITE,
        "EVM execution *is* the consensus state-transition function; "
        "an external engine would fork every node's state",
    ),
    Mechanism.TRUSTED_EXECUTION_ENVIRONMENT: (
        SupportLevel.REWRITE,
        "no enclave path in the transaction pipeline; EVM execution "
        "inside TEEs requires rewriting the client",
    ),
    Mechanism.PRIVATE_SEQUENCING_SERVICE: private_sequencing_service,
}
