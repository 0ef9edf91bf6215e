"""Shared fixtures: deterministic randomness, the fast test group, clocks,
and faults armed to open once a principal has acted."""

from __future__ import annotations

import pytest

from repro.common.clock import SimClock
from repro.common.rng import DeterministicRNG
from repro.crypto.groups import cached_test_group
from repro.crypto.signatures import SignatureScheme


@pytest.fixture
def rng() -> DeterministicRNG:
    return DeterministicRNG("test-suite")


@pytest.fixture
def clock() -> SimClock:
    return SimClock()


@pytest.fixture(scope="session")
def group():
    return cached_test_group()


@pytest.fixture(scope="session")
def scheme(group) -> SignatureScheme:
    return SignatureScheme(group)


@pytest.fixture
def fault_after():
    """``fault_after(platform, node, kind, plan_at)`` injects the fault
    plan ``plan_at(now)`` right after *node*'s handlers for its next *kind*
    message have run: a fault that opens once that principal has acted,
    so what its handler sent is in flight when it opens."""

    def arm(platform, node, kind, plan_at):
        armed = [True]

        def inject(message):
            if armed:
                armed.clear()
                platform.inject_faults(plan_at(platform.clock.now))

        platform.network.node(node).on(kind, inject)

    return arm
