"""Golden metrics: seeded runs end in pinned metrics snapshots.

Each case pins the sha256 of one run's sorted-JSON
``MetricsRegistry.snapshot()``:

- ``loc``: the letter-of-credit lifecycle ``repro metrics`` runs
  (``cli._traced_lifecycle``, tracing on);
- ``kv``: a seeded driver drive of the ``kv`` workload (tracing off).

The digest covers every series' name, value, count, sum and bucket, so
a change to how the hot path keeps its metrics (which handle it updates,
when a series is made) must leave it alone; a series that appears at
zero, or a count that moves, changes it.  A deliberate change to what is
counted updates the digest here and says why.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cli import _traced_lifecycle
from repro.driver import Driver, DriverConfig, build_scenario

#: (platform, run) -> sha256 of the sorted-JSON metrics snapshot
GOLDEN = {
    ("corda", "kv"): (
        "19f926d3a2809550d66b0430d3abde64f8fa5215538ed4410804cf449a9e1454"
    ),
    ("corda", "loc"): (
        "c0bbd17cea6a84faba44232d163104ad37288dc2869f304df65f5d908416a6d4"
    ),
    ("fabric", "kv"): (
        "763442bf5178b4540f23e4d1ad798ac5c67b7f570263e586c847af2d345fd13c"
    ),
    ("fabric", "loc"): (
        "e3ace471aed5da2b85959de7c00aaf3d0df62999ee2317bfcd1147e7725ff34d"
    ),
    ("quorum", "kv"): (
        "a2bebf229a06b8994e70518c56a2a17bcf092e6efaa629140439e7a272f5d435"
    ),
    ("quorum", "loc"): (
        "7927ff34f555ddb2acec51e391cd12518a9c1c3f7f5bacd78d8727abfa59a54d"
    ),
}


def snapshot_of(platform: str, run: str) -> dict:
    if run == "loc":
        return _traced_lifecycle(platform).metrics.snapshot()
    scenario = build_scenario(platform, "kv", 30, skew=0.99, seed="metrics-golden")
    report = Driver(scenario.platform, DriverConfig(batch_size=5)).run(
        scenario.requests
    )
    scenario.platform.network.run()
    assert report.failed == 0
    return scenario.platform.telemetry.metrics.snapshot()


def digest(snapshot: dict) -> str:
    return hashlib.sha256(
        json.dumps(snapshot, sort_keys=True).encode("utf-8")
    ).hexdigest()


@pytest.mark.parametrize("platform, run", sorted(GOLDEN), ids="-".join)
def test_metrics_snapshot_is_golden(platform, run):
    assert digest(snapshot_of(platform, run)) == GOLDEN[platform, run]
