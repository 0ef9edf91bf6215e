"""Crash recovery and privacy-preserving state catch-up.

Separation of ledgers (paper §2.1) makes recovery a privacy problem: a
rejoining node must be brought back to a correct view of exactly the
ledgers it is entitled to see — its channels, its private-data
collections' hashes, its transaction-party chains, its entitled private
payloads — and nothing more.  This package provides the pieces:

- :mod:`repro.recovery.checkpoint` — durable per-node checkpoints
  (write-ahead snapshots serialized through the canonical format),
- :mod:`repro.recovery.catchup` — the requester's side of one catch-up
  request/answer exchange over :class:`~repro.network.simnet.SimNetwork`,
- :mod:`repro.recovery.convergence` — the reconciliation/watchdog pass
  (``audit_convergence()``) comparing every honest node's visible-state
  hash against its peer group,
- :mod:`repro.recovery.scenario` — the canonical crash/recover/converge
  scenario behind ``repro recover`` / ``repro converge`` and the CI gate.

Each node keeps all it holds in one replica (``Platform.replicas``),
which checkpoints and restores itself, so crash and restart are generic;
what a lagging node asks for and what a peer may serve it stay with each
platform.  This package holds the shared machinery and the audits.
"""

from repro.recovery.checkpoint import CheckpointStore, NodeCheckpoint
from repro.recovery.convergence import (
    ConvergenceReport,
    Divergence,
    audit_convergence,
)

# The canonical scenario (repro.recovery.scenario) is imported lazily by
# its consumers: it pulls in the use-case workflows, which platform code
# must not depend on at import time.

__all__ = [
    "CheckpointStore",
    "NodeCheckpoint",
    "ConvergenceReport",
    "Divergence",
    "audit_convergence",
]
