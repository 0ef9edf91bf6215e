"""The full design guide (Sections 3.1-3.4).

Combines the three per-concern procedures into one :class:`SolutionDesign`:

- Section 3.1 interaction privacy -> a party-privacy mechanism;
- Section 3.2 / Figure 1          -> one recommendation per data class
  (via :mod:`repro.core.decision`);
- Section 3.3 logic criteria      -> a logic-confidentiality mechanism;
- Section 3.4 deployment          -> ordering-service and infrastructure
  advice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.decision import (
    Recommendation,
    decide_data_confidentiality,
)
from repro.core.mechanisms import Mechanism, info
from repro.core.requirements import (
    InteractionPrivacy,
    LogicRequirements,
    UseCaseRequirements,
)


@dataclass
class SolutionDesign:
    """The guide's complete output for one use case."""

    use_case: str
    interaction_mechanisms: list[Mechanism] = field(default_factory=list)
    data_recommendations: list[Recommendation] = field(default_factory=list)
    logic_mechanism: Mechanism | None = None
    logic_notes: list[str] = field(default_factory=list)
    deployment_advice: list[str] = field(default_factory=list)

    def all_mechanisms(self) -> set[Mechanism]:
        """Every mechanism the design relies on (for platform scoring)."""
        mechanisms = set(self.interaction_mechanisms)
        for rec in self.data_recommendations:
            mechanisms.update(rec.all_mechanisms())
        if self.logic_mechanism is not None:
            mechanisms.add(self.logic_mechanism)
        return mechanisms

    def recommendation_for(self, data_class: str) -> Recommendation:
        for rec in self.data_recommendations:
            if rec.data_class == data_class:
                return rec
        raise KeyError(data_class)

    def describe(self) -> str:
        """A report an architect could paste into a design document."""
        lines = [f"Solution design for {self.use_case!r}", "=" * 40]
        lines.append("Interaction privacy:")
        if self.interaction_mechanisms:
            for mechanism in self.interaction_mechanisms:
                lines.append(f"  - {info(mechanism).display_name}")
        else:
            lines.append("  - (no interaction-privacy mechanism required)")
        lines.append("Data confidentiality:")
        for rec in self.data_recommendations:
            lines.extend("  " + line for line in rec.describe().splitlines())
        lines.append("Business logic:")
        if self.logic_mechanism is not None:
            lines.append(f"  - {info(self.logic_mechanism).display_name}")
        else:
            lines.append("  - (logic confidentiality not required)")
        for note in self.logic_notes:
            lines.append(f"    ! {note}")
        lines.append("Deployment:")
        for advice in self.deployment_advice:
            lines.append(f"  - {advice}")
        return "\n".join(lines)


def design_interaction_privacy(level: InteractionPrivacy) -> list[Mechanism]:
    """Section 3.1: map the required privacy level to mechanisms.

    The levels nest: unlinkable subgroups normally also want a separate
    ledger; an anonymous individual additionally needs ZKP identity.
    """
    if level is InteractionPrivacy.NONE:
        return []
    mechanisms = [Mechanism.SEPARATION_OF_LEDGERS_PARTIES]
    if level in (
        InteractionPrivacy.SUBGROUP_UNLINKABLE,
        InteractionPrivacy.INDIVIDUAL_ANONYMOUS,
    ):
        mechanisms.append(Mechanism.ONE_TIME_PUBLIC_KEYS)
    if level is InteractionPrivacy.INDIVIDUAL_ANONYMOUS:
        mechanisms.append(Mechanism.ZKP_OF_IDENTITY)
    return mechanisms


def design_logic_confidentiality(
    logic: LogicRequirements,
) -> tuple[Mechanism | None, list[str]]:
    """Section 3.3: choose a logic mechanism from the four criteria."""
    notes: list[str] = []
    if not logic.keep_logic_private:
        if logic.hide_from_node_admin:
            # Data must be hidden from the admin even though the code may
            # be public: only a TEE provides that.
            return Mechanism.TRUSTED_EXECUTION_ENVIRONMENT, [
                "TEE chosen to hide *data* from the node administrator; "
                "logic privacy comes along for free."
            ]
        return None, ["Business logic may be shared with all participants."]
    if logic.hide_from_node_admin:
        notes.append(
            "For the case where contract code requires access to the "
            "confidential encrypted data, it is possible to run "
            "computations in a trusted execution environment. (S3.3)"
        )
        notes.append(
            "TEE maturity: experimental on current platforms (Section 2.2)."
        )
        return Mechanism.TRUSTED_EXECUTION_ENVIRONMENT, notes
    if logic.need_any_language:
        notes.append(
            "A separate engine allows for the free choice of programming "
            "language. (S3.3)"
        )
        notes.append(
            "An external engine will not benefit from in-built version "
            "control; versions must be managed outside the DLT layer. (S3.3)"
        )
        return Mechanism.OFF_CHAIN_EXECUTION_ENGINE, notes
    notes.append(
        "Contracts can be installed only on involved nodes; the platform's "
        "lifecycle keeps all nodes on the same version. (S3.3)"
    )
    if logic.need_inbuilt_versioning:
        notes.append("In-built versioning requirement satisfied natively.")
    return Mechanism.INSTALL_ON_INVOLVED_NODES, notes


def design_deployment(requirements: UseCaseRequirements) -> list[str]:
    """Section 3.4: ordering service and infrastructure advice."""
    advice = []
    if requirements.deployment.ordering_service_trusted:
        advice.append(
            "A third party may run the ordering/sequencing service; it will "
            "have visibility of transacting parties and transaction details."
        )
    else:
        advice.append(
            "Run a private sequencing service: channel members / consortium "
            "parties should operate ordering themselves to contain its full "
            "visibility (S3.4)."
        )
    if requirements.deployment.per_org_infrastructure:
        advice.append(
            "Host all application layers (UI, middleware, DLT) per "
            "organization so each party controls its own environment (S3.4)."
        )
    else:
        advice.append(
            "Relying on an external infrastructure provider trades privacy/"
            "confidentiality for cost; encrypt data visible to the provider "
            "(S3.4)."
        )
    if requirements.deployment.third_party_node_admin:
        advice.append(
            "Nodes administered by third parties must only handle encrypted "
            "data (symmetric/asymmetric cryptography) or TEEs (S3.2/S3.3)."
        )
    return advice


def design_solution(requirements: UseCaseRequirements) -> SolutionDesign:
    """Run the whole guide over a use case's requirements."""
    design = SolutionDesign(use_case=requirements.name)
    design.interaction_mechanisms = design_interaction_privacy(
        requirements.interaction_privacy
    )
    design.data_recommendations = [
        decide_data_confidentiality(dc, requirements.deployment)
        for dc in requirements.data_classes
    ]
    design.logic_mechanism, design.logic_notes = design_logic_confidentiality(
        requirements.logic
    )
    design.deployment_advice = design_deployment(requirements)
    return design
