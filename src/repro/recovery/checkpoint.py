"""Durable per-node checkpoints.

A checkpoint is the write-ahead snapshot a node flushes before it can be
trusted to survive a crash: its ledger heights and the state images
needed to restart without replaying from genesis.  Everything
round-trips through the repo's canonical serialization
(:mod:`repro.common.serialization`) on *every* save and load, so the
store models an on-disk format, not a Python object graph — what you
restore is exactly what the bytes said.

Checkpoints are durable across crashes by construction: the store lives
outside the node (disk survives the process), so
:meth:`CheckpointStore.latest` still answers after
``SimNetwork.crash_node`` wiped the node's volatile state.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any

from repro.common.errors import PlatformError
from repro.common.serialization import canonical_bytes, from_canonical_json
from repro.telemetry import Telemetry


@dataclass(frozen=True)
class NodeCheckpoint:
    """One durable snapshot of a node's recoverable state.

    - ``heights``: per-scope ledger heights (e.g. per channel, or the
      public-chain watermark) — what "since my checkpoint" means during
      catch-up.
    - ``snapshots``: state images (``WorldState.dump()`` style) restored
      verbatim before catch-up replays the delta.

    Nothing else survives a crash: a Quorum node re-fetches its
    private-payload ciphertexts from entitled peers during catch-up.
    """

    node: str
    platform: str
    sequence: int
    taken_at: float
    heights: dict[str, int] = field(default_factory=dict)
    snapshots: dict[str, Any] = field(default_factory=dict)

    def height_of(self, scope: str) -> int:
        return int(self.heights.get(scope, 0))


class CheckpointStore:
    """Append-only durable storage for :class:`NodeCheckpoint` records.

    ``save`` encodes to canonical bytes *first* and keeps only the bytes
    (write-ahead discipline); ``latest``/``history`` decode fresh objects
    from those bytes, proving the format carries everything recovery
    needs.
    """

    def __init__(self, telemetry: Telemetry | None = None) -> None:
        self.telemetry = telemetry or Telemetry()
        self._records: dict[str, list[bytes]] = {}

    def next_sequence(self, node: str) -> int:
        return len(self._records.get(node, ())) + 1

    def save(self, checkpoint: NodeCheckpoint) -> NodeCheckpoint:
        """Persist *checkpoint*; returns the decoded-from-bytes copy."""
        raw = canonical_bytes(asdict(checkpoint))
        self._records.setdefault(checkpoint.node, []).append(raw)
        self.telemetry.metrics.counter("recovery.checkpoint.saved").inc()
        self.telemetry.metrics.counter("recovery.checkpoint.bytes").inc(len(raw))
        self.telemetry.events.emit(
            "recovery.checkpoint",
            node=checkpoint.node,
            platform=checkpoint.platform,
            sequence=checkpoint.sequence,
            size_bytes=len(raw),
        )
        return self._decode(raw)

    def latest(self, node: str) -> NodeCheckpoint | None:
        records = self._records.get(node)
        if not records:
            return None
        return self._decode(records[-1])

    def history(self, node: str) -> list[NodeCheckpoint]:
        return [self._decode(raw) for raw in self._records.get(node, ())]

    def _decode(self, raw: bytes) -> NodeCheckpoint:
        data = from_canonical_json(raw.decode("utf-8"))
        if not isinstance(data, dict) or "node" not in data:
            raise PlatformError("corrupt checkpoint record")
        return NodeCheckpoint(
            node=data["node"],
            platform=data["platform"],
            sequence=int(data["sequence"]),
            taken_at=float(data["taken_at"]),
            heights={k: int(v) for k, v in data.get("heights", {}).items()},
            snapshots=dict(data.get("snapshots", {})),
        )
