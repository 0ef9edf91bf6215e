"""Catch-up transport: resilient, idempotent shipping of ledger items.

The per-platform responder logic (what a peer is entitled to receive)
lives with each platform; this module provides the shared wire
machinery: provider selection among live peers, stable dedup keys so a
replayed catch-up item is applied at most once, and resilient delivery
with ``recovery.*`` accounting.

Catch-up messages follow the repo's wire convention: the payload carries
identifiers and digests only, while the :class:`Exposure` declares what
the transfer reveals — so the leakage auditor sees catch-up traffic with
the same fidelity as normal operation, and an over-broad responder shows
up as widened observer knowledge, not as silence.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.common.errors import DeliveryTimeout
from repro.network.messages import Exposure
from repro.network.simnet import SimNetwork

# Catch-up runs while the rest of the workload is quiesced, so a short
# ack window with generous retries keeps simulated recovery time low
# while riding out probabilistic loss from an active fault plan.
CATCHUP_TIMEOUT = 0.2
CATCHUP_ATTEMPTS = 6


def catchup_dedup_key(platform: str, scope: str, node: str, item_id: Any) -> str:
    """Stable idempotence key for one catch-up item aimed at *node*.

    Keyed by ledger position/identity — not by attempt — so a replayed
    catch-up (second ``recover()`` call, overlapping providers, fault-
    plan retransmissions) deduplicates at the recipient.
    """
    return f"catchup/{platform}/{scope}/{node}/{item_id}"


def live_providers(
    network: SimNetwork, candidates: Iterable[str], node: str
) -> list[str]:
    """The live peers among *candidates* that can reach *node* now, sorted."""
    return [
        candidate
        for candidate in sorted(set(candidates))
        if candidate != node
        and not network.is_crashed(candidate)
        and not network.is_partitioned(candidate, node)
    ]


def pick_provider(
    network: SimNetwork, candidates: Iterable[str], node: str
) -> str | None:
    """First of :func:`live_providers`, or ``None``."""
    providers = live_providers(network, candidates, node)
    return providers[0] if providers else None


def ship(
    network: SimNetwork,
    provider: str,
    node: str,
    kind: str,
    payload: Any,
    exposure: Exposure,
    dedup_key: str,
) -> bool:
    """Deliver one catch-up item from *provider* to *node*, resiliently.

    Returns whether the item was acknowledged.  A timed-out item is
    recorded (``recovery.catchup.failed``) rather than raised: catch-up
    is best-effort per item and the convergence audit is the arbiter of
    whether the node actually got everything.
    """
    try:
        network.send_with_retry(
            provider,
            node,
            kind,
            payload,
            exposure=exposure,
            timeout=CATCHUP_TIMEOUT,
            max_attempts=CATCHUP_ATTEMPTS,
            dedup_key=dedup_key,
        )
    except DeliveryTimeout:
        network.telemetry.metrics.counter("recovery.catchup.failed").inc()
        network.telemetry.events.emit(
            "recovery.catchup_failed", node=node, provider=provider, kind=kind
        )
        return False
    network.telemetry.metrics.counter("recovery.catchup.shipped").inc()
    return True
