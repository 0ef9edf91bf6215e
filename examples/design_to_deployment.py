#!/usr/bin/env python3
"""The full pipeline: requirements -> design -> running deployment.

A consortium of three funds shares a ledger for OTC trades:

- KYC files must be erasable (GDPR),
- trade terms may be shared encrypted, but the consortium does not trust
  a third party with ordering,
- each fund proves solvency thresholds without revealing balances (ZKP),
- quarterly risk votes are tallied without revealing individual votes (MPC).

``build_deployment`` turns the guide's output into a configured Fabric
network whose API *enforces* the design: a plain write to the ZKP class
is rejected, PII can be erased, trade terms land on-chain only as
ciphertext.
"""

from repro.core import (
    Adversary,
    Asset,
    DataClassRequirements,
    DeploymentContext,
    InteractionPrivacy,
    UseCaseRequirements,
    build_deployment,
    design_solution,
    evaluate_design,
)

FUNDS = ["AlphaFund", "BetaFund", "GammaFund"]


def main() -> None:
    requirements = UseCaseRequirements(
        name="otc-consortium",
        interaction_privacy=InteractionPrivacy.GROUP_PRIVATE,
        data_classes=(
            DataClassRequirements(name="kyc", deletion_required=True),
            DataClassRequirements(name="terms"),
            DataClassRequirements(
                name="solvency", private_from_counterparties=True
            ),
            DataClassRequirements(
                name="risk-votes",
                private_from_counterparties=True,
                shared_function_on_private_inputs=True,
            ),
        ),
        deployment=DeploymentContext(ordering_service_trusted=False),
    )
    design = design_solution(requirements)
    deployment = build_deployment(
        design, requirements, FUNDS,
        extra_network_members=["CuriousBank"], seed="otc",
    )
    print(f"deployment built: channel {deployment.channel_name!r}, "
          f"orderer operated by {', '.join(deployment.network.orderer.operators)}")
    print(f"per-class mechanisms: "
          f"{ {k: v.value for k, v in deployment.data_class_mechanisms.items()} }")
    print()

    print("1. KYC with GDPR erasure")
    deployment.record("kyc", "AlphaFund", "alpha-kyc", {"lei": "5493001..."})
    print(f"   BetaFund reads: {deployment.read('kyc', 'BetaFund', 'alpha-kyc')}")
    deployment.erase("kyc", "alpha-kyc")
    print("   erased on request; the hash anchor remains on-chain")
    print()

    print("2. Trade terms, encrypted against the member-run orderer")
    deployment.record("terms", "AlphaFund", "trade-7", {"px": 101.25, "qty": 5000})
    print(f"   GammaFund decrypts: {deployment.read('terms', 'GammaFund', 'trade-7')}")
    onchain = deployment.network.channel(deployment.channel_name)\
        .reference_state().get("terms/trade-7")
    print(f"   on-chain bytes: ciphertext fields {sorted(onchain)}")
    print()

    print("3. Solvency: commitment + boolean affirmation (ZKP)")
    deployment.commit_value("solvency", "AlphaFund", "alpha-q3", 8_500)
    proof = deployment.prove_at_least("solvency", "alpha-q3", 5_000)
    print(f"   'balance >= 5000' verifies for BetaFund: "
          f"{deployment.verify_at_least('solvency', 'BetaFund', 'alpha-q3', proof)}")
    try:
        deployment.record("solvency", "AlphaFund", "oops", 8_500)
    except Exception as exc:
        print(f"   plain write rejected by the deployment: {type(exc).__name__}")
    print()

    print("4. Risk vote via MPC")
    total, stats, __ = deployment.compute_sum(
        "risk-votes", "AlphaFund", "q3-derisk",
        {"AlphaFund": 1, "BetaFund": 1, "GammaFund": 0},
    )
    print(f"   aggregate {total}/3 in {stats.rounds} MPC rounds; "
          "individual votes never left each fund")
    print()

    print("5. Residual threat exposures the consortium must sign off:")
    assessment = evaluate_design(design)
    for adversary in Adversary:
        residual = assessment.residual_for(adversary)
        if residual:
            assets = ", ".join(sorted(a.value for a in residual))
            print(f"   {adversary.value}: {assets}")


if __name__ == "__main__":
    main()
