"""Corda simulation: p2p flows, notaries, tear-offs, confidential identities."""

from repro.platforms.corda.backchain import (
    BackchainDisclosure,
    collect_backchain,
    disclosure_of,
    verify_backchain,
)
from repro.platforms.corda.network import (
    NOTARY_NODE,
    CordaNetwork,
    FlowResult,
)
from repro.platforms.corda.notary import NotarisationReceipt, Notary
from repro.platforms.corda.oracle import Oracle, OracleAttestation
from repro.platforms.corda.states import Command, ContractState, StateRef
from repro.platforms.corda.transactions import (
    ComponentGroup,
    FilteredTransaction,
    SignedTransaction,
    WireTransaction,
)
from repro.platforms.corda.vault import Vault

__all__ = [
    "CordaNetwork",
    "BackchainDisclosure",
    "collect_backchain",
    "disclosure_of",
    "verify_backchain",
    "FlowResult",
    "NOTARY_NODE",
    "Notary",
    "NotarisationReceipt",
    "Oracle",
    "OracleAttestation",
    "Command",
    "ContractState",
    "StateRef",
    "ComponentGroup",
    "FilteredTransaction",
    "SignedTransaction",
    "WireTransaction",
    "Vault",
]
