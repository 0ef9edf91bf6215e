"""The paper's contribution: mechanism catalog, design guide, Table 1, audit.

The mechanism catalog, requirements model, decision tree, and guide are
imported eagerly.  The matrix / probe / audit layers depend on the
platform simulations (which themselves consult the mechanism catalog), so
they are exposed lazily via module ``__getattr__`` to keep the import
graph acyclic.
"""

from repro.core.decision import (
    DecisionStep,
    Recommendation,
    decide_data_confidentiality,
)
from repro.core.guide import (
    SolutionDesign,
    design_interaction_privacy,
    design_logic_confidentiality,
    design_solution,
)
from repro.core.mechanisms import (
    Category,
    Maturity,
    Mechanism,
    MechanismInfo,
    all_mechanisms,
    by_category,
    info,
)
from repro.core.requirements import (
    DataClassRequirements,
    DeploymentContext,
    InteractionPrivacy,
    LogicRequirements,
    UseCaseRequirements,
)

_LAZY = {
    # The static analyzer is correctness tooling layered over the same
    # mechanism catalog; exposed here lazily so importing repro.core stays
    # cheap and the import graph stays acyclic.
    "analyze_paths": "repro.analysis",
    "analyze_source": "repro.analysis",
    "Finding": "repro.analysis",
    "LintReport": "repro.analysis",
    "AuditReport": "repro.core.audit",
    "audit_all": "repro.core.audit",
    "audit_corda": "repro.core.audit",
    "audit_fabric": "repro.core.audit",
    "audit_quorum": "repro.core.audit",
    "PAPER_TABLE_1": "repro.core.matrix",
    "PLATFORMS": "repro.core.matrix",
    "MatrixComparison": "repro.core.matrix",
    "PlatformScore": "repro.core.matrix",
    "score_platforms": "repro.core.matrix",
    "build_platforms": "repro.core.probe",
    "build_deployment": "repro.core.deploy",
    "Deployment": "repro.core.deploy",
    "Adversary": "repro.core.threats",
    "Asset": "repro.core.threats",
    "ThreatAssessment": "repro.core.threats",
    "evaluate_design": "repro.core.threats",
    "render_markdown": "repro.core.report",
    "compare_with_paper": "repro.core.probe",
    "regenerate_matrix": "repro.core.probe",
}

__all__ = [
    "DecisionStep",
    "Recommendation",
    "decide_data_confidentiality",
    "SolutionDesign",
    "design_interaction_privacy",
    "design_logic_confidentiality",
    "design_solution",
    "Category",
    "Maturity",
    "Mechanism",
    "MechanismInfo",
    "all_mechanisms",
    "by_category",
    "info",
    "DataClassRequirements",
    "DeploymentContext",
    "InteractionPrivacy",
    "LogicRequirements",
    "UseCaseRequirements",
    *sorted(_LAZY),
]


def __getattr__(name: str):
    if name in _LAZY:
        import importlib

        module = importlib.import_module(_LAZY[name])
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
