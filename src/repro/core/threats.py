"""Threat-model evaluation.

The paper's analysis implicitly ranges over a set of adversaries (a
curious counterparty, an uninvolved network member, the ordering-service
operator, a third-party node administrator, a wire observer) and assets
(party identities, transaction data, business logic).  This module makes
that model explicit: each mechanism covers a set of (adversary, asset)
pairs — each entry traceable to a paper statement — and
:func:`evaluate_design` reports the residual exposures of a
:class:`~repro.core.guide.SolutionDesign`.

The coverage map is validated against the leakage auditor: what the map
says a mechanism protects corresponds to what the audit measures on the
platform simulations (see ``tests/core/test_threats.py``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.guide import SolutionDesign
from repro.core.mechanisms import Mechanism


class Adversary(enum.Enum):
    """Who might learn something they should not."""

    COUNTERPARTY = "counterparty"            # a party inside the transaction
    UNINVOLVED_MEMBER = "uninvolved-member"  # onboarded, not involved
    ORDERING_OPERATOR = "ordering-operator"  # runs ordering/notary/consensus
    NODE_ADMIN = "node-admin"                # administers someone's node
    NETWORK_OBSERVER = "network-observer"    # sees (encrypted) wire traffic


class Asset(enum.Enum):
    """What the paper protects: parties, data, logic (Section 1)."""

    IDENTITY = "identity"
    TRANSACTION_DATA = "transaction-data"
    BUSINESS_LOGIC = "business-logic"


Exposure = tuple[Adversary, Asset]

# What each mechanism denies to which adversary.  Every entry is
# traceable to a paper statement (cited inline).
COVERAGE: dict[Mechanism, frozenset[Exposure]] = {
    # "Identities of channel members are not revealed to the wider
    # network and transactions are only shared between channel members."
    Mechanism.SEPARATION_OF_LEDGERS_PARTIES: frozenset({
        (Adversary.UNINVOLVED_MEMBER, Asset.IDENTITY),
        (Adversary.NETWORK_OBSERVER, Asset.IDENTITY),
    }),
    Mechanism.SEPARATION_OF_LEDGERS_DATA: frozenset({
        (Adversary.UNINVOLVED_MEMBER, Asset.TRANSACTION_DATA),
        (Adversary.NETWORK_OBSERVER, Asset.TRANSACTION_DATA),
    }),
    # "one-time public keys can be used to mask the identity of the
    # asset owner" — from anyone without the linking certificate.
    Mechanism.ONE_TIME_PUBLIC_KEYS: frozenset({
        (Adversary.UNINVOLVED_MEMBER, Asset.IDENTITY),
        (Adversary.ORDERING_OPERATOR, Asset.IDENTITY),
        (Adversary.NETWORK_OBSERVER, Asset.IDENTITY),
    }),
    # "digital signatures from a party can be completely unlinkable to
    # each other and to an identity."
    Mechanism.ZKP_OF_IDENTITY: frozenset({
        (Adversary.COUNTERPARTY, Asset.IDENTITY),
        (Adversary.UNINVOLVED_MEMBER, Asset.IDENTITY),
        (Adversary.ORDERING_OPERATOR, Asset.IDENTITY),
        (Adversary.NETWORK_OBSERVER, Asset.IDENTITY),
    }),
    # Off-chain data never reaches uninvolved nodes or the orderer.
    Mechanism.OFF_CHAIN_PEER_DATA: frozenset({
        (Adversary.UNINVOLVED_MEMBER, Asset.TRANSACTION_DATA),
        (Adversary.ORDERING_OPERATOR, Asset.TRANSACTION_DATA),
        (Adversary.NETWORK_OBSERVER, Asset.TRANSACTION_DATA),
    }),
    # "transaction data can be encrypted through symmetric or asymmetric
    # cryptography" — against operators/admins/wire, not key holders.
    Mechanism.SYMMETRIC_ENCRYPTION: frozenset({
        (Adversary.ORDERING_OPERATOR, Asset.TRANSACTION_DATA),
        (Adversary.NODE_ADMIN, Asset.TRANSACTION_DATA),
        (Adversary.NETWORK_OBSERVER, Asset.TRANSACTION_DATA),
        (Adversary.UNINVOLVED_MEMBER, Asset.TRANSACTION_DATA),
    }),
    # "The party is able to compute and sign on the Merkle root without
    # having access to the confidential data."
    Mechanism.MERKLE_TEAR_OFFS: frozenset({
        (Adversary.COUNTERPARTY, Asset.TRANSACTION_DATA),
        (Adversary.ORDERING_OPERATOR, Asset.TRANSACTION_DATA),
        (Adversary.ORDERING_OPERATOR, Asset.IDENTITY),
    }),
    # "only provide enough information to prove that a certain fact is
    # true ... without revealing raw values."
    Mechanism.ZKP_ON_DATA: frozenset({
        (Adversary.COUNTERPARTY, Asset.TRANSACTION_DATA),
        (Adversary.UNINVOLVED_MEMBER, Asset.TRANSACTION_DATA),
        (Adversary.ORDERING_OPERATOR, Asset.TRANSACTION_DATA),
        (Adversary.NETWORK_OBSERVER, Asset.TRANSACTION_DATA),
    }),
    # "no private values need to be shared between parties."
    Mechanism.MULTIPARTY_COMPUTATION: frozenset({
        (Adversary.COUNTERPARTY, Asset.TRANSACTION_DATA),
        (Adversary.UNINVOLVED_MEMBER, Asset.TRANSACTION_DATA),
        (Adversary.ORDERING_OPERATOR, Asset.TRANSACTION_DATA),
        (Adversary.NETWORK_OBSERVER, Asset.TRANSACTION_DATA),
    }),
    # "any party can carry out the computation ... without being able to
    # inspect any raw values."
    Mechanism.HOMOMORPHIC_ENCRYPTION: frozenset({
        (Adversary.UNINVOLVED_MEMBER, Asset.TRANSACTION_DATA),
        (Adversary.ORDERING_OPERATOR, Asset.TRANSACTION_DATA),
        (Adversary.NODE_ADMIN, Asset.TRANSACTION_DATA),
        (Adversary.NETWORK_OBSERVER, Asset.TRANSACTION_DATA),
    }),
    # "only peers that have the chaincode installed are able to view the
    # chaincode."
    Mechanism.INSTALL_ON_INVOLVED_NODES: frozenset({
        (Adversary.UNINVOLVED_MEMBER, Asset.BUSINESS_LOGIC),
        (Adversary.NETWORK_OBSERVER, Asset.BUSINESS_LOGIC),
    }),
    # "prevents leaks of business logic" — but the engine host's admin
    # still sees it (Section 3.3 criterion 3 fails).
    Mechanism.OFF_CHAIN_EXECUTION_ENGINE: frozenset({
        (Adversary.UNINVOLVED_MEMBER, Asset.BUSINESS_LOGIC),
        (Adversary.ORDERING_OPERATOR, Asset.BUSINESS_LOGIC),
        (Adversary.NETWORK_OBSERVER, Asset.BUSINESS_LOGIC),
    }),
    # "keep both the code itself and the data around the smart contracts
    # confidential" — including from the node administrator.
    Mechanism.TRUSTED_EXECUTION_ENVIRONMENT: frozenset({
        (Adversary.NODE_ADMIN, Asset.BUSINESS_LOGIC),
        (Adversary.NODE_ADMIN, Asset.TRANSACTION_DATA),
        (Adversary.UNINVOLVED_MEMBER, Asset.BUSINESS_LOGIC),
        (Adversary.UNINVOLVED_MEMBER, Asset.TRANSACTION_DATA),
        (Adversary.NETWORK_OBSERVER, Asset.BUSINESS_LOGIC),
        (Adversary.NETWORK_OBSERVER, Asset.TRANSACTION_DATA),
    }),
    # Running ordering yourself removes the *third-party* operator from
    # the picture entirely (the operator becomes a member).
    Mechanism.PRIVATE_SEQUENCING_SERVICE: frozenset({
        (Adversary.ORDERING_OPERATOR, Asset.IDENTITY),
        (Adversary.ORDERING_OPERATOR, Asset.TRANSACTION_DATA),
        (Adversary.ORDERING_OPERATOR, Asset.BUSINESS_LOGIC),
    }),
    Mechanism.OPEN_SOURCE: frozenset(),
}

ALL_EXPOSURES: frozenset[Exposure] = frozenset(
    (adversary, asset) for adversary in Adversary for asset in Asset
)


@dataclass
class ThreatAssessment:
    """Coverage and residual exposure of a design."""

    covered: set[Exposure] = field(default_factory=set)
    residual: set[Exposure] = field(default_factory=set)
    by_mechanism: dict[Mechanism, set[Exposure]] = field(default_factory=dict)

    def is_covered(self, adversary: Adversary, asset: Asset) -> bool:
        return (adversary, asset) in self.covered

    def residual_for(self, adversary: Adversary) -> set[Asset]:
        return {asset for a, asset in self.residual if a is adversary}

    def render(self) -> str:
        """Coverage matrix: rows adversaries, columns assets."""
        lines = []
        header = f"{'adversary':20s}" + "".join(
            f"{asset.value:>20s}" for asset in Asset
        )
        lines.append(header)
        for adversary in Adversary:
            row = f"{adversary.value:20s}"
            for asset in Asset:
                mark = "covered" if self.is_covered(adversary, asset) else "EXPOSED"
                row += f"{mark:>20s}"
            lines.append(row)
        return "\n".join(lines)


def evaluate_design(design: SolutionDesign) -> ThreatAssessment:
    """Which (adversary, asset) pairs does this design defend, and which
    remain exposed?

    Residual exposures are not necessarily flaws — a use case that shares
    data with counterparties by intent *should* leave (counterparty,
    data) uncovered — but an architect must sign off on each one, which
    is what the report in :mod:`repro.core.report` surfaces.
    """
    assessment = ThreatAssessment()
    for mechanism in sorted(design.all_mechanisms(), key=lambda m: m.value):
        coverage = COVERAGE.get(mechanism, frozenset())
        assessment.by_mechanism[mechanism] = set(coverage)
        assessment.covered |= coverage
    assessment.residual = set(ALL_EXPOSURES) - assessment.covered
    return assessment
