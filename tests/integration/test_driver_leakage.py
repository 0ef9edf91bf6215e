"""Leakage regression: driver workloads stay within the audited envelope.

The L1 audit (``repro.core.audit``) pins each platform's confidential-
trade leakage profile with hand-written scenarios.  The unified pipeline
must not widen that envelope: a driver-generated confidential-trade
workload, pumped through ``submit_many``, has to leave uninvolved
parties and the ordering principal knowing exactly as much (by category)
as the audit baseline says they may.
"""

from __future__ import annotations

import pytest

from repro.core.audit import (
    CONFIDENTIAL_KEY,
    TRADING_PARTIES,
    UNINVOLVED,
    audit_all,
)
from repro.driver import Driver, DriverConfig, trade_scenario


def _ordering_observer(platform):
    return {
        "fabric": lambda: platform.orderer.observer,
        "corda": lambda: platform.notary.observer,
        "quorum": lambda: platform.sequencer.observer,
    }[platform.platform_name]()


def _driver_profile(platform_name: str) -> dict:
    """Leakage categories after an all-confidential driver trade run."""
    scenario = trade_scenario(
        platform_name, 10, confidential_fraction=1.0, seed="leakage"
    )
    report = Driver(scenario.platform, DriverConfig(batch_size=5)).run(
        scenario.requests
    )
    assert report.failed == 0
    platform = scenario.platform
    uninvolved_identity_leak = False
    uninvolved_data_leak = False
    for org in UNINVOLVED:
        observer = platform.network.node(org).observer
        if observer.seen_identities & set(TRADING_PARTIES):
            uninvolved_identity_leak = True
        if CONFIDENTIAL_KEY in observer.seen_data_keys:
            uninvolved_data_leak = True
    ordering = _ordering_observer(platform)
    return {
        "uninvolved_sees_identities": uninvolved_identity_leak,
        "uninvolved_sees_data": uninvolved_data_leak,
        "orderer_sees_identities": bool(
            ordering.seen_identities & set(TRADING_PARTIES)
        ),
        "orderer_sees_data": CONFIDENTIAL_KEY in ordering.seen_data_keys,
    }


@pytest.fixture(scope="module")
def audit_baseline() -> dict:
    """The audited envelope, in the same category booleans."""
    baseline = {}
    for report in audit_all(seed="driver-leakage-baseline"):
        row = report.summary_row()
        baseline[row["platform"]] = {
            "uninvolved_sees_identities": row["uninvolved_identity_leaks"] > 0,
            "uninvolved_sees_data": row["uninvolved_data_leaks"] > 0,
            "orderer_sees_identities": row["orderer_sees_identities"],
            "orderer_sees_data": row["orderer_sees_data"],
        }
    return baseline


@pytest.mark.parametrize("platform_name", ("fabric", "corda", "quorum"))
def test_driver_trades_match_audited_envelope(platform_name, audit_baseline):
    assert _driver_profile(platform_name) == audit_baseline[platform_name]


def test_confidential_price_reaches_all_trading_parties():
    """The price is scoped, not dropped: both traders can read it."""
    scenario = trade_scenario(
        "fabric", 6, confidential_fraction=1.0, seed="leakage-pos"
    )
    Driver(scenario.platform, DriverConfig(batch_size=6)).run(
        scenario.requests
    )
    channel = scenario.platform.channel("trade-ab")
    for org in TRADING_PARTIES:
        assert channel.state_of(org).get(CONFIDENTIAL_KEY) is not None


def test_quorum_private_price_confined_to_participants():
    """Quorum private state holds the price only at the two traders."""
    scenario = trade_scenario(
        "quorum", 6, confidential_fraction=1.0, seed="leakage-q"
    )
    Driver(scenario.platform, DriverConfig(batch_size=6)).run(
        scenario.requests
    )
    platform = scenario.platform
    holders = {
        org for org in platform.parties
        if platform.private_states[org].exists(CONFIDENTIAL_KEY)
    }
    assert holders == set(TRADING_PARTIES)
