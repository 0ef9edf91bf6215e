"""Executable use cases: letter of credit (S4), secret ballot, oracle tear-off."""

from repro.usecases.letter_of_credit import (
    LetterOfCredit,
    LetterOfCreditWorkflow,
    design_letter_of_credit,
    expected_paper_design,
    letter_of_credit_requirements,
)
from repro.usecases.kyc_consortium import KycConsortium, OnboardingRecord
from repro.usecases.oracle_attestation import AttestedTrade, OracleTradeWorkflow
from repro.usecases.secret_ballot import BallotResult, SecretBallotWorkflow

__all__ = [
    "LetterOfCredit",
    "LetterOfCreditWorkflow",
    "design_letter_of_credit",
    "expected_paper_design",
    "letter_of_credit_requirements",
    "AttestedTrade",
    "KycConsortium",
    "OnboardingRecord",
    "OracleTradeWorkflow",
    "BallotResult",
    "SecretBallotWorkflow",
]
