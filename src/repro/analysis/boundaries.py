"""Trust-boundary pass: structural platform caveats.

Where the taint pass follows *values*, this pass flags *constructions*
whose information disclosure is inherent to the platform mechanism, as
documented in Section 5 of the paper:

- B301: every Quorum private transaction broadcasts its participant list
  network-wide;
- B303: every transaction touching a Fabric private data collection
  discloses the collection's member list on-chain;
- B304: a validating notary sees the entire transaction content.

These are INFO findings: the mechanism may be exactly what the design
calls for (e.g. interaction privacy not required), but the author should
choose it knowingly — the paper's design-time argument.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding, report
from repro.analysis.scopes import ModuleIndex, call_name


def run_boundary_pass(index: ModuleIndex) -> list[Finding]:
    findings: list[Finding] = []
    for node in ast.walk(index.tree):
        if not isinstance(node, ast.Call):
            continue
        name = call_name(node)
        if name == "send_private_transaction":
            report(
                index, findings, "quorum-participant-broadcast", node,
                "the private_for list travels in the clear on the public "
                "chain",
            )
        elif name == "create_collection":
            report(
                index, findings, "pdc-member-disclosure", node,
                "collection membership appears in every referencing "
                "transaction's metadata",
            )
        for kw in node.keywords:
            if kw.arg == "collection_writes" and not (
                isinstance(kw.value, ast.Constant) and kw.value.value is None
            ):
                report(
                    index, findings, "pdc-member-disclosure", node,
                    "collection_writes anchors hashes on-chain and lists "
                    "collection members in the transaction",
                )
            elif kw.arg == "validating_notary" and (
                isinstance(kw.value, ast.Constant) and kw.value.value is True
            ):
                report(
                    index, findings, "ordering-full-visibility", node,
                    "validating_notary=True gives the notary full "
                    "transaction contents",
                )
    return findings
