"""Catch-up, asked for: the requester's side of one exchange.

A lagging node sends a live peer a ``catchup-request`` built from its
own state (heights and opaque ids, which reveal nothing); the peer
answers from its own account with one ``catchup`` reply of live
messages (what it may serve lives with each platform).  The exchange is
an idempotent request like every other answered hop: the provider keeps
its answer, and :meth:`~repro.network.simnet.SimNetwork.outcome` asks
again when the answer is lost.
"""

from __future__ import annotations

from typing import Iterable

from repro.common.errors import DeliveryError
from repro.network.simnet import SimNetwork


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


def ask(network: SimNetwork, node: str, provider: str, request: object) -> tuple:
    """One exchange: *node* asks *provider* with *request*; returns the
    ``(kind, payload)`` pairs of the answer that arrived, which *node*'s
    handlers have applied (``recovery.catchup.shipped``).

    An exchange that gets no answer returns ``()`` and is recorded
    (``recovery.catchup.failed``) rather than raised: catch-up is
    best-effort per provider, and the convergence audit is the arbiter of
    whether the node actually got everything.
    """
    metrics = network.telemetry.metrics
    try:
        sent = network.send_with_retry(node, provider, "catchup-request", request)
        pairs = network.outcome(sent.message).payload
    except DeliveryError:
        metrics.counter("recovery.catchup.failed").inc()
        network.telemetry.events.emit(
            "recovery.catchup_failed", node=node, provider=provider
        )
        return ()
    if pairs:
        metrics.counter("recovery.catchup.shipped").inc(len(pairs))
    return pairs
