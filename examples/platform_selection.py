#!/usr/bin/env python3
"""Regenerate the paper's Table 1 from executable capability probes,
then run the leakage audit that backs the Section 5 narrative.

Every cell of the regenerated matrix is evidence from *running* the
mechanism on the platform simulation (or demonstrating the constraint
that blocks it) — see the PROBES table in repro.platforms.<platform>.probes
for each experiment, and repro.core.probe for the rows all three share.
"""

from repro.core.audit import audit_all
from repro.core.probe import compare_with_paper


def main() -> None:
    print("Regenerating Table 1 from capability probes...")
    print()
    comparison = compare_with_paper()
    print(comparison.render())
    print()

    print("Leakage audit: identical 2-party trade on each platform")
    print("-" * 72)
    header = (
        f"{'platform':8s} {'uninvolved id leaks':>20s} {'orderer sees':>14s} "
        f"{'participants broadcast':>24s}"
    )
    print(header)
    for report in audit_all():
        row = report.summary_row()
        orderer = (
            "ids+data" if row["orderer_sees_data"]
            else "ids" if row["orderer_sees_identities"]
            else "nothing"
        )
        print(
            f"{row['platform']:8s} {row['uninvolved_identity_leaks']:>20d} "
            f"{orderer:>14s} {str(row['participant_list_broadcast']):>24s}"
        )
    print()
    print("Double-spend behaviour (Section 5):")
    for report in audit_all():
        row = report.summary_row()
        print(
            f"  {row['platform']:8s} private double spend succeeded: "
            f"{row['private_double_spend_succeeded']}; "
            f"validated double spend rejected: "
            f"{row['validated_double_spend_rejected']}"
        )


if __name__ == "__main__":
    main()
