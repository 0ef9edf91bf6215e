"""Experiment K1 — who knows what after a seeded driver run.

L1 pins one hand-written trade by category.  K1 pins every node's
observer knowledge after a seeded ``driver.build_scenario`` drive of each
workload on each platform: its identities, data keys and code ids,
sorted, for every node of the network (the orderer, notary and sequencer
nodes included).  A list longer than ``SHOWN`` items is given as its
count and the first 16 hex digits of the sha256 of its canonical JSON.

A change that moves what any principal learns moves a cell of
``benchmarks/results/k1_knowledge.txt``, so it shows in that change's
diff.  The table must not depend on the run: two drives and a traced
drive give the same text.
"""

from __future__ import annotations

import hashlib
import json

from benchmarks.conftest import write_result
from repro.driver import Driver, DriverConfig, build_scenario

PLATFORMS = ("fabric", "corda", "quorum")
WORKLOADS = ("kv", "loc", "trades")
OPERATIONS = 12
SHOWN = 6
FIELDS = ("identities", "data_keys", "code_ids")


def _cell(items: list[str]) -> str:
    if len(items) <= SHOWN:
        return "[" + ", ".join(items) + "]"
    digest = hashlib.sha256(json.dumps(items).encode("utf-8")).hexdigest()
    return f"{len(items)} items sha256:{digest[:16]}"


def knowledge_block(platform_name: str, workload: str, traced: bool) -> list[str]:
    """K1 lines for one seeded drive: a header, then one line per node."""
    scenario = build_scenario(platform_name, workload, OPERATIONS, seed="k1")
    platform = scenario.platform
    if traced:
        platform.telemetry.start_tracing()
    report = Driver(platform, DriverConfig(batch_size=5)).run(scenario.requests)
    platform.network.run()
    assert report.failed == 0
    network = platform.network
    lines = [f"{platform_name} {workload} ({report.committed} committed)"]
    for name in network.nodes():
        knowledge = network.node(name).observer.knowledge()
        lines.append(f"  {name}")
        lines.extend(
            f"    {field:10s} {_cell(knowledge[field])}" for field in FIELDS
        )
    return lines


def knowledge_table(traced: bool = False) -> str:
    lines = [
        f"K1: observer knowledge per node after a seeded {OPERATIONS}-op "
        "driver drive (batch 5, seed k1)",
        f"lists over {SHOWN} items: count and sha256[:16] of their JSON",
    ]
    for platform_name in PLATFORMS:
        for workload in WORKLOADS:
            lines.extend(knowledge_block(platform_name, workload, traced))
    return "\n".join(lines)


def test_knowledge_table():
    """Regenerate K1; it is the same across runs and tracing modes."""
    table = knowledge_table()
    assert knowledge_table() == table
    assert knowledge_table(traced=True) == table
    write_result("k1_knowledge", table)
