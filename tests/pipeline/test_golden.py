"""Golden identity: small seeded driver runs end in pinned states.

Each case runs one ``kv``, ``loc`` or ``trades`` scenario through the
driver and pins three things captured from a known-good build:

- ``state_fingerprint()``: every replica's committed state;
- a digest of the receipt tx ids, in order: which transactions
  committed, with which content;
- the final simulated time: simulated latency never reads message
  sizes or payloads, so a change to what messages carry must not move it.

A refactor that promises byte-identical behaviour has to leave all three
alone; a deliberate model change updates them here and says why.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.driver import build_scenario
from repro.driver.core import Driver, DriverConfig

#: workload -> (operations, Zipf skew, driver batch size)
CASES = {"kv": (24, 1.2, 4), "loc": (12, 0.0, 3), "trades": (12, 0.0, 1)}

#: (platform, workload) -> (fingerprint, receipt-id digest, final sim time)
GOLDEN = {
    ("fabric", "kv"): (
        "d6c48e4d3989d91c51a8bba99a2c2b23c506c078c1bcd1eb50226017c98e516a",
        "0e52d963654a662f", "0.1963521578948752",
    ),
    ("fabric", "loc"): (
        "1c41021e8d34bf01f52621edd4ec6d3e0fb21a6fd273aa03bfb370f5f1cecbd2",
        "2a2fa93c52168bfa", "0.3141925134837963",
    ),
    ("fabric", "trades"): (
        "15c61ec2f94cc1f6b98b8145f9e7cecfccc2e97eee5efd8da8c99a3425cd2e45",
        "dcfd68afeaa002ab", "0.15054118801382102",
    ),
    ("corda", "kv"): (
        "84bf21a8dce5dd36fa484982eee405814c3ba6ab58334f7bd4c80a11191eb015",
        "568c0b180a412ae0", "0.1432121967408964",
    ),
    ("corda", "loc"): (
        "bcc133c02430d8d011f23cf608e2acee37647f926af15907cc49af067215e7bb",
        "bc7414d6d245506f", "0.23238514246007114",
    ),
    ("corda", "trades"): (
        "e5293688c63f6afe41b2e138a9c6436be4de8f4a8f46d460ba9d7e736e0ee117",
        "6990ffdacf90a5c2", "0.07728949425577875",
    ),
    ("quorum", "kv"): (
        "d5736f9e352483b2789fdbe9919895a67448abbab8f7ea77ab1546f78b9e282c",
        "57bcc2c9d4d1c245", "0.15791499418296404",
    ),
    ("quorum", "loc"): (
        "86dc2180b40d3e1b6033214219f487c44d94d8d1282e073c884bc8e33c48cc64",
        "626e138b32cac812", "0.23537821660257904",
    ),
    ("quorum", "trades"): (
        "6dd185b18719d3dbb8cb439b34ba1cd7e5ba984feb249dc29d39d7eb09e3cc2d",
        "8491cf05aa2d73d4", "0.08212098138523823",
    ),
}


@pytest.mark.parametrize(
    "platform_name,workload", sorted(GOLDEN), ids=lambda value: value
)
def test_seeded_run_matches_golden(platform_name, workload):
    operations, skew, batch_size = CASES[workload]
    scenario = build_scenario(
        platform_name, workload, operations, skew=skew, seed="golden"
    )
    report = Driver(
        scenario.platform, DriverConfig(batch_size=batch_size)
    ).run(scenario.requests)
    assert report.failed == 0
    receipt_ids = hashlib.sha256(
        "\n".join(str(receipt.tx_id) for receipt in report.receipts).encode()
    ).hexdigest()[:16]
    assert (
        scenario.platform.state_fingerprint(),
        receipt_ids,
        repr(scenario.platform.clock.now),
    ) == GOLDEN[(platform_name, workload)]
