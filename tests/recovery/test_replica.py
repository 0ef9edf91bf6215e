"""Replica round trips: a node's replica restores what it checkpointed.

Every node keeps all it holds in ``platform.replicas[name]``, which
saves itself (``checkpoint()``) and restarts from a saved record or from
nothing (``restore``).  After a seeded ``kv`` drive on each platform:

- restoring a node from its own checkpoint, with no catch-up, gives a
  replica that checkpoints to the saved record field for field (a Corda
  vault restarts empty instead, by its platform's rule: a checkpoint
  names its transactions without their content, and only catch-up from
  entitled peers refills it);
- restoring from nothing gives the replica of a freshly onboarded node.
"""

from __future__ import annotations

import pytest

from repro.driver import Driver, DriverConfig, build_scenario

PLATFORMS = ("fabric", "corda", "quorum")


def driven(platform_name: str):
    scenario = build_scenario(platform_name, "kv", 20, skew=0.99, seed="replica")
    report = Driver(scenario.platform, DriverConfig(batch_size=5)).run(
        scenario.requests
    )
    assert report.committed == 20
    return scenario.platform


def fresh(platform_name: str):
    """The same network, onboarded and deployed, before any transaction."""
    return build_scenario(platform_name, "kv", 20, skew=0.99, seed="replica").platform


def record_of(checkpoint) -> dict:
    return {"heights": checkpoint.heights, "snapshots": checkpoint.snapshots}


@pytest.mark.parametrize("platform_name", PLATFORMS)
def test_restore_from_own_checkpoint_round_trips(platform_name):
    net = driven(platform_name)
    onboarded = fresh(platform_name)
    fingerprint = net.state_fingerprint()
    for name in sorted(net.parties):
        saved = net.checkpoint_node(name)
        replica = net.replicas[name]
        assert record_of(saved) == replica.checkpoint()
        replica.restore(saved)
        if platform_name == "corda":
            assert replica.checkpoint() == onboarded.replicas[name].checkpoint()
        else:
            assert replica.checkpoint() == record_of(saved)
    if platform_name != "corda":
        assert net.state_fingerprint() == fingerprint


@pytest.mark.parametrize("platform_name", PLATFORMS)
def test_restore_from_nothing_is_a_fresh_replica(platform_name):
    net = driven(platform_name)
    onboarded = fresh(platform_name)
    for name in sorted(net.parties):
        replica = net.replicas[name]
        manager = getattr(replica, "manager", None)
        replica.restore(None)
        assert replica.checkpoint() == onboarded.replicas[name].checkpoint()
        if platform_name == "quorum":
            assert replica.manager is not manager
            assert replica.manager.payload_hashes() == []
    assert net.replicas.keys() == onboarded.replicas.keys()


@pytest.mark.parametrize("platform_name", PLATFORMS)
def test_drive_moves_every_replica_off_fresh(platform_name):
    """Non-vacuous: the drive left some replica unlike a fresh one."""
    net = driven(platform_name)
    onboarded = fresh(platform_name)
    assert any(
        net.replicas[name].checkpoint() != onboarded.replicas[name].checkpoint()
        for name in net.parties
    )
