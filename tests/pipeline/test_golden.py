"""Golden identity: small seeded driver runs end in pinned states.

Each case runs one ``kv``, ``loc`` or ``trades`` scenario through the
driver and pins three things captured from a known-good build:

- ``state_fingerprint()``: every replica's committed state;
- a digest of the receipt tx ids, in order: which transactions
  committed, with which content;
- the final simulated time.

Every transaction id embeds a simulated-clock reading (a Fabric or
Quorum transaction's timestamp, a Corda time window), and each request
reads the clock after the previous flow's messages arrived.  A change
to how many hops a flow takes therefore moves all three under the
latency model.  Run with zero latency, the clock reads only the orderer's
service time, so ``ZERO_LATENCY`` pins the fingerprint and receipt-id
digest independently of the hops: those values date from before flows
became causal (each principal deciding in its own delivery handler) and
must not move.

A refactor that promises byte-identical behaviour has to leave all of
these alone; a deliberate model change updates them here and says why.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.driver import build_scenario
from repro.driver.core import Driver, DriverConfig
from repro.network.simnet import LatencyModel

#: workload -> (operations, Zipf skew, driver batch size)
CASES = {"kv": (24, 1.2, 4), "loc": (12, 0.0, 3), "trades": (12, 0.0, 1)}

#: (platform, workload) -> (fingerprint, receipt-id digest, final sim time)
GOLDEN = {
    ("corda", "kv"): (
        "58bd49bdbe9a5f49da805a59fc9057447290669196694e554a892d4b862af115",
        "54371a2c10427499", "0.2915774609498332",
    ),
    ("corda", "loc"): (
        "336ae15ad9005b5151d7ed224a1c31af164e9c6f69fe0339bde2af1957ba9d14",
        "de471dcc6e695a04", "1.0619872176936827",
    ),
    ("corda", "trades"): (
        "eab9284e46821a0c5447b9ca1110190a39c3a8bb7b848c3eea9e6fbd9a74c522",
        "37f91cacdcdad53d", "0.36183427882030367",
    ),
    ("fabric", "kv"): (
        "a197a6890d7ca6aff39f14ecb7f207a4e611dabaa0717b09017ffdb32c32151b",
        "14bfdaf315cf9b28", "0.36682702458497257",
    ),
    ("fabric", "loc"): (
        "fe36ac8e3c22366a806dfc3c4a5f01a88bbe0dfe36ae4eaf3cbec1f2fb30370f",
        "52f2d85363b3901c", "0.5912168235432225",
    ),
    ("fabric", "trades"): (
        "48a1dbbbc1b2de3b8c3c4294976de791193bc5a50f27464c32a4fb68adad3fda",
        "94a0cd6687ad1962", "0.2883035462278008",
    ),
    ("quorum", "kv"): (
        "55b35a344ccb07bf8f7879cda8b65a87cdf9141eca28dd3d57e72d0e04ff30ab",
        "57af14885235fbf8", "0.29838047609230134",
    ),
    ("quorum", "loc"): (
        "9cdccced79124bde403322428cbd3b62de1a1f66d3edd90aa4073ac7f3f71e2d",
        "384679a99dff9df1", "0.4395051767531631",
    ),
    ("quorum", "trades"): (
        "98459cb3592345a16e3cda8509d07eff828e47d9809a3669f6fca5131a662553",
        "a210e61a2fa5450a", "0.14935991956807607",
    ),
}

#: (platform, workload) -> (fingerprint, receipt-id digest) with zero latency
ZERO_LATENCY = {
    ("corda", "kv"): (
        "16c644421ef81069f85b95e6965f97ed1559c54b95e992f263d2086267dd4f16",
        "4e56ac59a9c44250",
    ),
    ("corda", "loc"): (
        "fb4ef2b2296891eb3ea8e3aee50c9b9c1fd4bc6d72fe1015afead6b7ca70b88a",
        "911975fbb9c25081",
    ),
    ("corda", "trades"): (
        "2d95c5dc99d1802b170f119b0909a6c93a3371a94b442e2ef2ee4abf7efd6af6",
        "6a65ee73f0574115",
    ),
    ("fabric", "kv"): (
        "3a638f3c5538de202a69cef736b49289f5af9ded2f5e84e072f5a7ca285c71e3",
        "b99b30a059a75f6e",
    ),
    ("fabric", "loc"): (
        "4068f10f1ab2e2b9cd9b641aec03bbb5a3baa611a704051033ad8705c31da4b6",
        "2d6908e0c146b16a",
    ),
    ("fabric", "trades"): (
        "55b352de9c062600cd7fda67428248b74c0a371c21d2d6edf0bf69eaed722c85",
        "e15aea8661c69f9b",
    ),
    ("quorum", "kv"): (
        "b5a01d74a11adff3058668ac8282f408b04ac59751b4affcc403a9c610007a1d",
        "aa98e450e1f222bb",
    ),
    ("quorum", "loc"): (
        "b8a70bd1e009f872a2d81c380eb08945a9c2d5e8e730b853af08fccc7f3e9089",
        "e039c5f9e4ab7a92",
    ),
    ("quorum", "trades"): (
        "12060eb500a7fc015efb6dedfd40e9629ce037f4acefe8188d9a6dc97ff64c51",
        "6a28f8666ae836b2",
    ),
}


def drive(platform_name, workload, latency=None):
    operations, skew, batch_size = CASES[workload]
    scenario = build_scenario(
        platform_name, workload, operations, skew=skew, seed="golden"
    )
    if latency is not None:
        scenario.platform.network.latency = latency
    report = Driver(
        scenario.platform, DriverConfig(batch_size=batch_size)
    ).run(scenario.requests)
    assert report.failed == 0
    receipt_ids = hashlib.sha256(
        "\n".join(str(receipt.tx_id) for receipt in report.receipts).encode()
    ).hexdigest()[:16]
    platform = scenario.platform
    return platform.state_fingerprint(), receipt_ids, repr(platform.clock.now)


@pytest.mark.parametrize(
    "platform_name,workload", sorted(GOLDEN), ids=lambda value: value
)
def test_seeded_run_matches_golden(platform_name, workload):
    assert drive(platform_name, workload) == GOLDEN[(platform_name, workload)]


@pytest.mark.parametrize(
    "platform_name,workload", sorted(ZERO_LATENCY), ids=lambda value: value
)
def test_zero_latency_run_matches_golden(platform_name, workload):
    fingerprint, receipt_ids, __ = drive(
        platform_name, workload, LatencyModel(base=0.0, jitter=0.0)
    )
    assert (fingerprint, receipt_ids) == ZERO_LATENCY[(platform_name, workload)]
