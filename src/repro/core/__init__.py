"""The paper's contribution: mechanism catalog, design guide, Table 1, audit.

Every name below is re-exported lazily via module ``__getattr__``.  The
matrix / probe / audit layers depend on the platform simulations (which
themselves consult the mechanism catalog), so loading them eagerly would
make the import graph cyclic; and a platform that imports the mechanism
catalog does not load the requirements model, decision tree or guide.
"""

_LAZY = {
    "DecisionStep": "repro.core.decision",
    "Recommendation": "repro.core.decision",
    "decide_data_confidentiality": "repro.core.decision",
    "SolutionDesign": "repro.core.guide",
    "design_interaction_privacy": "repro.core.guide",
    "design_logic_confidentiality": "repro.core.guide",
    "design_solution": "repro.core.guide",
    "Category": "repro.core.mechanisms",
    "Maturity": "repro.core.mechanisms",
    "Mechanism": "repro.core.mechanisms",
    "MechanismInfo": "repro.core.mechanisms",
    "all_mechanisms": "repro.core.mechanisms",
    "by_category": "repro.core.mechanisms",
    "info": "repro.core.mechanisms",
    "DataClassRequirements": "repro.core.requirements",
    "DeploymentContext": "repro.core.requirements",
    "InteractionPrivacy": "repro.core.requirements",
    "LogicRequirements": "repro.core.requirements",
    "UseCaseRequirements": "repro.core.requirements",
    # The static analyzer is correctness tooling layered over the same
    # mechanism catalog.
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

__all__ = sorted(_LAZY)


def __getattr__(name: str):
    if name in _LAZY:
        import importlib

        module = importlib.import_module(_LAZY[name])
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
