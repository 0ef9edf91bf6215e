#!/usr/bin/env python3
"""The paper's Section 4 use case, end to end.

1. Encode the letter-of-credit requirements and run the design guide —
   the output matches the paper's own conclusions (PII off-chain,
   segregated ledger, encryption when the orderer is a third party).
2. Execute the designed solution on the Fabric simulation: buyer applies,
   bank issues, seller ships, bank pays — then the buyer invokes GDPR
   erasure of their KYC record while the audit trail survives.
3. Run the same workflow on Corda and Quorum: Corda keeps the PII in an
   external store, Quorum refuses to hold it.
"""

from repro.common.errors import PlatformError
from repro.platforms import CordaNetwork, FabricNetwork, QuorumNetwork
from repro.usecases.letter_of_credit import (
    LetterOfCreditWorkflow,
    design_letter_of_credit,
)


def main() -> None:
    print("=" * 60)
    print("Step 1: run the design guide over the S4 requirements")
    print("=" * 60)
    design = design_letter_of_credit(orderer_trusted=True)
    print(design.describe())
    print()

    print("=" * 60)
    print("Step 2: execute the designed solution (Fabric simulation)")
    print("=" * 60)
    workflow = LetterOfCreditWorkflow(FabricNetwork(seed="loc"))
    workflow.setup(extra_network_members=("UninvolvedBank",))

    loc = workflow.apply_for_credit(
        "LC-2026-001", amount=500_000, buyer_passport="P-11223344"
    )
    print(f"applied: {loc.loc_id} for ${loc.amount:,} "
          f"({loc.buyer} / {loc.seller} / {loc.issuing_bank})")
    print(f"issued:  status -> {workflow.issue(loc.loc_id)}")
    print(f"shipped: status -> {workflow.ship(loc.loc_id)}")
    print(f"paid:    status -> {workflow.pay(loc.loc_id)}")
    print()

    seller_view = workflow.status_of(loc.loc_id, "SellerCo")
    print(f"SellerCo's replica agrees: status={seller_view!r}")

    print()
    print("GDPR: the buyer requests erasure of their passport record")
    workflow.erase_pii(loc.loc_id)
    print(f"erased from every peer store: {workflow.pii_is_erased(loc.loc_id)}")

    outsider = workflow.network.network.node("UninvolvedBank").observer
    print()
    print("Privacy check for the uninvolved network member:")
    print(f"  identities observed: {sorted(outsider.seen_identities) or 'none'}")
    print(f"  data keys observed:  {sorted(outsider.seen_data_keys) or 'none'}")
    orderer = workflow.network.network.node(workflow.network.orderer.name).observer
    print("The trusted third-party orderer, by contrast, saw:")
    print(f"  identities: {sorted(orderer.seen_identities & set(workflow.PARTIES))}")
    print(f"  data keys:  {len(orderer.seen_data_keys)} keys")

    print()
    print("=" * 60)
    print("Step 3: the same workflow on Corda and Quorum")
    print("=" * 60)
    for network in (CordaNetwork(seed="loc"), QuorumNetwork(seed="loc")):
        other = LetterOfCreditWorkflow(network)
        other.setup()
        final = other.run_full_lifecycle("LC-2026-002")
        print(f"{network.platform_name}: status -> {final.status}")
        try:
            other.apply_for_credit(
                "LC-2026-003", amount=1_000, buyer_passport="P-55667788"
            )
            print("  PII placed off the shared ledger")
        except PlatformError as refusal:
            print(f"  PII refused: {refusal}")


if __name__ == "__main__":
    main()
