"""Experiment RC1 — recovery cost: checkpoint writes and catch-up depth.

Two measurements on the Fabric simulation (the platform with the richest
per-channel state), mirroring FI1's zero-overhead discipline:

1. **Checkpoint cost**: wall-clock and serialized size of one durable
   `checkpoint_node()` as the channel state grows — the write-ahead
   price of being recoverable at all.
2. **Catch-up depth**: how the catch-up items and shipped messages scale
   with the number of blocks a crashed node fell behind.  The cost must
   be linear in the *delta* since the checkpoint, not in chain length —
   that is the whole point of checkpointing.
"""

from __future__ import annotations

import time

from benchmarks.conftest import write_result
from repro.execution.contracts import SmartContract
from repro.ledger.validation import EndorsementPolicy
from repro.platforms.fabric import FabricNetwork

ORGS = ("OrgA", "OrgB", "OrgC")
BEHIND = (1, 5, 10, 25)


def build_network(seed: str) -> FabricNetwork:
    net = FabricNetwork(seed=seed, resilient_delivery=True)
    for org in ORGS:
        net.onboard(org)
    net.create_channel("ch", list(ORGS))

    def put(view, args):
        view.put(args["key"], args["value"])
        return args["value"]

    contract = SmartContract(
        contract_id="store", version=1, language="python-chaincode",
        functions={"put": put},
    )
    net.deploy_chaincode(
        "ch", contract, list(ORGS),
        policy=EndorsementPolicy.k_of(2, list(ORGS)),
    )
    return net


def grow_state(net: FabricNetwork, keys: int, endorsers=None) -> None:
    for n in range(keys):
        net.invoke(
            "ch", "OrgA", "store", "put",
            {"key": f"k/{n}", "value": n},
            endorsers=endorsers,
        )


def counters(net: FabricNetwork) -> dict:
    return net.telemetry.metrics.snapshot()["counters"]


def test_rc1_recovery_overhead():
    lines = ["RC1: recovery overhead — checkpoint cost and catch-up depth"]
    data: dict = {"experiment": "rc1_recovery"}

    # -- 1. checkpoint cost vs state size
    lines.append("\n  checkpoint cost vs channel state size (one node):")
    checkpoint_rows = []
    for keys in (10, 50, 200):
        net = build_network(f"r1-ckpt-{keys}")
        grow_state(net, keys)
        before_bytes = counters(net).get("recovery.checkpoint.bytes", 0)
        start = time.perf_counter()
        net.checkpoint_node("OrgB")
        elapsed_ms = (time.perf_counter() - start) * 1e3
        size = int(counters(net)["recovery.checkpoint.bytes"] - before_bytes)
        lines.append(
            f"    {keys:4d} keys: {size:7d} bytes, {elapsed_ms:6.2f} ms"
        )
        checkpoint_rows.append(
            {"keys": keys, "bytes": size, "wall_ms": elapsed_ms}
        )
    data["checkpoint"] = checkpoint_rows
    # Size must grow with state (the snapshot is real, not a stub).
    assert checkpoint_rows[-1]["bytes"] > checkpoint_rows[0]["bytes"]

    # -- 2. catch-up cost vs blocks behind
    lines.append("\n  catch-up cost vs blocks behind (crash after checkpoint):")
    catchup_rows = []
    for behind in BEHIND:
        net = build_network(f"r1-catchup-{behind}")
        grow_state(net, 5)  # pre-checkpoint history: must NOT be re-shipped
        net.checkpoint_node("OrgB")
        net.crash("OrgB")
        grow_state(net, behind, endorsers=["OrgA", "OrgC"])
        before = counters(net)
        start = time.perf_counter()
        net.recover("OrgB")
        elapsed_ms = (time.perf_counter() - start) * 1e3
        after = counters(net)
        items = int(after["recovery.catchup.items"]
                    - before.get("recovery.catchup.items", 0))
        shipped = int(after["recovery.catchup.shipped"]
                      - before.get("recovery.catchup.shipped", 0))
        lines.append(
            f"    {behind:4d} blocks behind: {items:4d} items, "
            f"{shipped:4d} shipped, {elapsed_ms:6.2f} ms"
        )
        catchup_rows.append({
            "blocks_behind": behind, "items": items,
            "shipped": shipped, "wall_ms": elapsed_ms,
        })
        # Cost is the delta, not the chain: exactly `behind` items travel.
        assert items == behind
    data["catchup"] = catchup_rows
    assert catchup_rows[-1]["shipped"] > catchup_rows[0]["shipped"]

    write_result(
        "rc1_recovery",
        "\n".join(lines),
        data=data,
    )
