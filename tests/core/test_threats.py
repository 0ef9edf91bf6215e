"""Threat-model evaluation, cross-validated against the leakage auditor."""

from __future__ import annotations

import pytest

from repro.core.guide import design_solution
from repro.core.mechanisms import Mechanism
from repro.core.requirements import (
    DataClassRequirements,
    DeploymentContext,
    InteractionPrivacy,
    LogicRequirements,
    UseCaseRequirements,
)
from repro.core.threats import (
    ALL_EXPOSURES,
    COVERAGE,
    Adversary,
    Asset,
    evaluate_design,
)


def minimal_design(**overrides):
    base = dict(
        name="threat-case",
        interaction_privacy=InteractionPrivacy.GROUP_PRIVATE,
        data_classes=(DataClassRequirements(name="d"),),
    )
    base.update(overrides)
    return design_solution(UseCaseRequirements(**base))


class TestCoverageMap:
    def test_every_mechanism_has_an_entry(self):
        for mechanism in Mechanism:
            assert mechanism in COVERAGE

    def test_only_tee_covers_node_admin_data(self):
        exposure = (Adversary.NODE_ADMIN, Asset.TRANSACTION_DATA)
        covering = [m for m, coverage in COVERAGE.items() if exposure in coverage]
        assert Mechanism.TRUSTED_EXECUTION_ENVIRONMENT in covering
        assert Mechanism.INSTALL_ON_INVOLVED_NODES not in covering

    def test_only_zkp_identity_covers_counterparty_identity(self):
        exposure = (Adversary.COUNTERPARTY, Asset.IDENTITY)
        covering = [m for m, coverage in COVERAGE.items() if exposure in coverage]
        assert covering == [Mechanism.ZKP_OF_IDENTITY]

    def test_exposure_universe_size(self):
        assert len(ALL_EXPOSURES) == len(Adversary) * len(Asset)


class TestEvaluation:
    def test_segregation_covers_uninvolved_but_not_orderer(self):
        assessment = evaluate_design(minimal_design())
        assert assessment.is_covered(Adversary.UNINVOLVED_MEMBER, Asset.IDENTITY)
        assert assessment.is_covered(
            Adversary.UNINVOLVED_MEMBER, Asset.TRANSACTION_DATA
        )
        assert not assessment.is_covered(
            Adversary.ORDERING_OPERATOR, Asset.TRANSACTION_DATA
        )

    def test_untrusted_orderer_design_covers_orderer_data(self):
        design = minimal_design(
            deployment=DeploymentContext(ordering_service_trusted=False)
        )
        assessment = evaluate_design(design)
        # Symmetric encryption joins the design and covers the orderer.
        assert assessment.is_covered(
            Adversary.ORDERING_OPERATOR, Asset.TRANSACTION_DATA
        )

    def test_tee_logic_covers_admin(self):
        design = minimal_design(
            logic=LogicRequirements(
                keep_logic_private=True, hide_from_node_admin=True
            )
        )
        assessment = evaluate_design(design)
        assert assessment.is_covered(Adversary.NODE_ADMIN, Asset.BUSINESS_LOGIC)
        assert assessment.is_covered(Adversary.NODE_ADMIN, Asset.TRANSACTION_DATA)

    def test_mpc_design_covers_counterparty_data(self):
        design = minimal_design(data_classes=(
            DataClassRequirements(
                name="votes",
                private_from_counterparties=True,
                shared_function_on_private_inputs=True,
            ),
        ))
        assessment = evaluate_design(design)
        assert assessment.is_covered(Adversary.COUNTERPARTY, Asset.TRANSACTION_DATA)

    def test_residual_partitions_universe(self):
        assessment = evaluate_design(minimal_design())
        assert assessment.covered | assessment.residual == set(ALL_EXPOSURES)
        assert not (assessment.covered & assessment.residual)

    def test_render_matrix(self):
        text = evaluate_design(minimal_design()).render()
        assert "EXPOSED" in text and "covered" in text
        for adversary in Adversary:
            assert adversary.value in text


class TestCrossValidationWithAudit:
    """The coverage map's claims must match what the auditor measures."""

    def test_fabric_audit_matches_segregation_coverage(self):
        from repro.core.audit import audit_fabric

        report = audit_fabric(seed="threat-xval-f")
        # Map says segregation covers uninvolved members: audit agrees.
        assert report.uninvolved_identity_leaks() == 0
        assert report.uninvolved_data_leaks() == 0
        # Map says segregation does NOT cover the orderer: audit agrees.
        assert report.ordering_principal.learned_confidential_data

    def test_corda_tearoff_matches_orderer_coverage(self):
        from repro.core.audit import audit_corda

        report = audit_corda(seed="threat-xval-c")
        # Tear-offs cover (orderer, data) and (orderer, identity): the
        # non-validating notary learned neither.
        assert not report.ordering_principal.learned_confidential_data
        assert not report.ordering_principal.learned_trading_identities
