"""Table 1, Corda column: ``PROBES`` maps each mechanism to a probe of a
:class:`CordaNetwork` or to a constant row (see :mod:`repro.core.probe`)."""

from __future__ import annotations

from repro.common.errors import ContractError, MembershipError
from repro.core.mechanisms import Mechanism
from repro.crypto.symmetric import SymmetricKey
from repro.offchain.stores import Hosting, OffChainStore
from repro.platforms.base import SupportLevel
from repro.platforms.corda.network import CordaNetwork, FlowResult
from repro.platforms.corda.notary import Notary
from repro.platforms.corda.states import Command, ContractState
from repro.platforms.corda.transactions import ComponentGroup, WireTransaction

ALICE, BOB, CAROL = "probe-alice", "probe-bob", "probe-carol"
CONTRACT_ID = "probe-iou"


def _fixture(net: CordaNetwork) -> None:
    """Onboard the IOU parties and an uninvolved observer; register the
    IOU contract."""
    for org in (ALICE, BOB, CAROL):
        if org not in net.parties:
            net.onboard(org)
    if CONTRACT_ID not in net.verifiers:
        def verify(wire: WireTransaction) -> None:
            for state in wire.outputs:
                if state.contract_id == CONTRACT_ID and state.data.get("amount", 0) <= 0:
                    raise ContractError("IOU amount must be positive")
        net.register_contract(CONTRACT_ID, verify, language="kotlin")


def _iou(
    net: CordaNetwork,
    data: dict,
    owner_key_y: int | None = None,
    payload: dict | None = None,
) -> WireTransaction:
    """An IOU from alice to bob carrying *data*, ready to issue."""
    _fixture(net)
    state = ContractState(
        contract_id=CONTRACT_ID, participants=(ALICE, BOB),
        data=data, owner_key_y=owner_key_y,
    )
    return net.build_transaction(
        inputs=[], outputs=[state],
        commands=[
            Command(name="Issue", signers=(ALICE, BOB), payload=payload or {})
        ],
    )


def _issue(net: CordaNetwork, data: dict, owner_key_y: int | None = None) -> FlowResult:
    """Run alice's issue flow for an IOU carrying *data*."""
    return net.run_flow(ALICE, _iou(net, data, owner_key_y))


def separation_of_ledgers_parties(net: CordaNetwork) -> tuple[SupportLevel, str]:
    _issue(net, {"amount": 10})
    leaked = net.network.node(CAROL).observer.seen_identities & {ALICE, BOB}
    return (
        SupportLevel.NATIVE if not leaked else SupportLevel.REWRITE,
        "per-transaction segregation: p2p flows reach involved parties "
        f"only; an uninvolved node observed {sorted(leaked) or 'nothing'}",
    )


def one_time_public_keys(net: CordaNetwork) -> tuple[SupportLevel, str]:
    _fixture(net)
    identity = net.create_confidential_identity(ALICE)
    result = _issue(net, {"amount": 5}, owner_key_y=identity.public.y)
    recorded = net.vault(BOB).state_at(result.output_refs[0])
    owner = net.reveal_owner(BOB, recorded.owner_key_y)
    return (
        SupportLevel.NATIVE if owner == ALICE else SupportLevel.REWRITE,
        "confidential identities: ownership recorded against a fresh "
        "key, resolvable only via the off-ledger linking certificate",
    )


def zkp_of_identity(net: CordaNetwork) -> tuple[SupportLevel, str]:
    # Corda flows are addressed to legal identities on the network map;
    # there is no credential-presentation hook, so anonymous-credential
    # identity requires rewriting the flow framework (paper: '-').
    try:
        net.run_flow(
            "unknown-anonymous-party",
            net.build_transaction(inputs=[], outputs=[], commands=[]),
        )
        flow_accepts_anonymous = True
    except MembershipError:
        flow_accepts_anonymous = False
    return (
        SupportLevel.NATIVE if flow_accepts_anonymous else SupportLevel.REWRITE,
        "flows require onboarded legal identities; no ZKP credential "
        "hook exists in the session layer",
    )


def separation_of_ledgers_data(net: CordaNetwork) -> tuple[SupportLevel, str]:
    _issue(net, {"amount": 77})
    leaked = "amount" in net.network.node(CAROL).observer.seen_data_keys
    return (
        SupportLevel.REWRITE if leaked else SupportLevel.NATIVE,
        "transaction data travels point-to-point to participants only",
    )


def off_chain_peer_data(net: CordaNetwork) -> tuple[SupportLevel, str]:
    # No native PDC equivalent: applications attach hash references to
    # states and keep payloads in their own stores ('*').
    store = OffChainStore("corda-app-store", hosting=Hosting.EXTERNAL,
                          authorized={ALICE})
    anchor = store.put("kyc-file", {"passport": "X123"}, now=net.clock.now)
    _issue(net, {"amount": 1, "kyc_anchor": anchor})
    return (
        SupportLevel.IMPLEMENTABLE
        if store.verify_anchor("kyc-file", anchor, ALICE)
        else SupportLevel.REWRITE,
        "no native private-data collections; applications anchor "
        "hashes in states and host payloads themselves",
    )


def symmetric_encryption(net: CordaNetwork) -> tuple[SupportLevel, str]:
    key = SymmetricKey.from_seed("corda-probe-key")
    ciphertext = key.encrypt(b"trade terms", net.rng.fork("sym"))
    result = _issue(net, {"amount": 2, "terms_enc": ciphertext.body.hex()})
    stored = net.vault(BOB).state_at(result.output_refs[0])
    return (
        SupportLevel.NATIVE if stored.data["terms_enc"] == ciphertext.body.hex()
        else SupportLevel.REWRITE,
        "state fields are opaque; symmetric ciphertext round-trips "
        "through the flow unchanged",
    )


def merkle_tear_offs(net: CordaNetwork) -> tuple[SupportLevel, str]:
    wire = _iou(net, {"amount": 3, "secret-margin": 9},
                payload={"fact": "fx", "value": 1.25})
    filtered = wire.filtered([ComponentGroup.COMMANDS, ComponentGroup.NOTARY])
    root_matches = filtered.verify()
    hides_outputs = not filtered.visible_of_group("outputs")
    return (
        SupportLevel.NATIVE if root_matches and hides_outputs
        else SupportLevel.REWRITE,
        "FilteredTransaction is a first-class API: a signer verifies "
        "the root while output components stay hidden",
    )


def off_chain_execution_engine(net: CordaNetwork) -> tuple[SupportLevel, str]:
    # Native: flows execute business logic outside the platform; the
    # on-ledger contract only verifies signatures/structure (paper S5).
    _fixture(net)
    language = net.verifier_language.get(CONTRACT_ID, "")
    result = _issue(net, {"amount": 4})
    return (
        SupportLevel.NATIVE if result.receipt is not None else SupportLevel.REWRITE,
        f"business logic ran outside the ledger (verifier language "
        f"{language!r}); the platform only checked signatures and "
        "uniqueness",
    )


def private_sequencing_service(net: CordaNetwork) -> tuple[SupportLevel, str]:
    member_notary = Notary(
        "member-notary", net.scheme, net.clock, validating=False, operators=(ALICE,),
    )
    return (
        SupportLevel.NATIVE if member_notary.is_member_operated({ALICE, BOB})
        else SupportLevel.REWRITE,
        "any party can run a notary cluster; combined with tear-offs "
        "it sees only opaque state references",
    )


PROBES = {
    Mechanism.SEPARATION_OF_LEDGERS_PARTIES: separation_of_ledgers_parties,
    Mechanism.ONE_TIME_PUBLIC_KEYS: one_time_public_keys,
    Mechanism.ZKP_OF_IDENTITY: zkp_of_identity,
    Mechanism.SEPARATION_OF_LEDGERS_DATA: separation_of_ledgers_data,
    Mechanism.OFF_CHAIN_PEER_DATA: off_chain_peer_data,
    Mechanism.SYMMETRIC_ENCRYPTION: symmetric_encryption,
    Mechanism.MERKLE_TEAR_OFFS: merkle_tear_offs,
    # Contracts attach to states and travel with them; there is no
    # separate installation step to scope (Table 1: N/A).
    Mechanism.INSTALL_ON_INVOLVED_NODES: (
        SupportLevel.NOT_APPLICABLE,
        "contract code is referenced by states and distributed with "
        "them; no installation step exists to restrict",
    ),
    Mechanism.OFF_CHAIN_EXECUTION_ENGINE: off_chain_execution_engine,
    # R3's SGX integration is a design document (paper ref [17]); the
    # released platform has no enclave path.
    Mechanism.TRUSTED_EXECUTION_ENVIRONMENT: (
        SupportLevel.REWRITE,
        "SGX integration exists only as a design doc (ref [17]); "
        "verification inside enclaves requires rewriting the node",
    ),
    Mechanism.PRIVATE_SEQUENCING_SERVICE: private_sequencing_service,
}
