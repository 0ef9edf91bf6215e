"""The reconciliation/watchdog pass: ``audit_convergence()``.

After a fault plan drains and every crashed node has recovered, the
separated ledgers must have re-converged *per visibility group*: every
honest Fabric channel member holds the same replica as its co-members,
every entitled Corda party knows every transaction it was party to, and
every Quorum node agrees on the public state while each private
participant group agrees internally.  There is no global state to compare
— the paper's separation-of-ledgers design means convergence itself is
scoped by entitlement, which is exactly what this audit checks.

Divergence is reported as structured findings (never silently) and as the
``recovery.convergence.*`` metric family, so the chaos suite and the CI
gate can assert zero divergence mechanically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import PlatformError, PrivacyError
from repro.crypto.hashing import hash_hex


@dataclass(frozen=True)
class Divergence:
    """One detected disagreement inside a visibility group."""

    platform: str
    scope: str  # channel name, tx id, or state key the finding is about
    detail: str
    nodes: tuple[str, ...]


@dataclass
class ConvergenceReport:
    """Outcome of one convergence audit over a platform."""

    platform: str
    checked_nodes: tuple[str, ...]
    skipped_nodes: tuple[str, ...] = ()
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return not self.divergences

    def render(self) -> str:
        lines = [
            f"convergence audit: {self.platform}",
            f"  checked: {', '.join(self.checked_nodes) or '(none)'}",
        ]
        if self.skipped_nodes:
            lines.append(f"  skipped (down): {', '.join(self.skipped_nodes)}")
        if self.converged:
            lines.append("  CONVERGED: all visibility groups agree")
        else:
            lines.append(f"  DIVERGED: {len(self.divergences)} finding(s)")
            for div in self.divergences:
                lines.append(
                    f"    [{div.scope}] {div.detail} "
                    f"(nodes: {', '.join(div.nodes)})"
                )
        return "\n".join(lines)


def _state_fingerprint(state) -> str:
    # Hash the dump (values + versions), not just the snapshot: replicas
    # that agree on values but disagree on MVCC versions would diverge on
    # the next conflicting read, so the audit treats them as diverged now.
    return hash_hex("repro/recovery/convergence", state.dump())


def _flag(report: ConvergenceReport, scope: str, detail: str, nodes) -> None:
    report.divergences.append(
        Divergence(report.platform, scope, detail, tuple(nodes))
    )


def _minority(states: dict[str, object]) -> tuple[int, list[str]]:
    """How many distinct states *states* (node -> replica) hold, and the
    nodes outside the largest group of identical ones."""
    groups: dict[str, list[str]] = {}
    for name in sorted(states):
        groups.setdefault(_state_fingerprint(states[name]), []).append(name)
    ranked = sorted(groups.values(), key=len, reverse=True)
    return len(groups), [name for group in ranked[1:] for name in group]


def _live(platform, names) -> list[str]:
    return [name for name in sorted(names) if not platform.network.is_crashed(name)]


def _audit_fabric(platform, report: ConvergenceReport) -> None:
    for channel_name in sorted(platform.channels):
        channel = platform.channels[channel_name]
        live = _live(platform, channel.members)
        distinct, minority = _minority({m: channel.states[m] for m in live})
        if minority:
            _flag(
                report, channel.name,
                f"replica mismatch: {distinct} distinct states among "
                f"{len(live)} live members",
                minority,
            )
        # A member can match its peers and still have missed a block
        # (say, one of only invalid transactions): it is behind all the same.
        ordered = len(channel.outcomes)
        behind = [m for m in live if channel.applied[m] < ordered]
        if behind:
            _flag(
                report, channel.name,
                f"behind the channel: applied fewer than its {ordered} "
                "ordered transactions",
                behind,
            )


def _audit_corda(platform, report: ConvergenceReport) -> None:
    live = _live(platform, platform.parties)
    # 1. Transaction knowledge: every live entitled party must hold every
    # transaction it was party to.  (Backchain resolution can legitimately
    # teach a vault *extra* history — that is the mechanism's documented
    # disclosure, not a divergence.)
    all_txs: dict[str, object] = {}
    for name in live:
        all_txs.update(platform.vaults[name].transactions)
    for tx_id in sorted(all_txs):
        entitled = platform._entitled_parties(all_txs[tx_id])
        missing = [
            name for name in live
            if name in entitled
            and not platform.vaults[name].knows_transaction(tx_id)
        ]
        if missing:
            _flag(
                report, tx_id,
                "entitled party missing a finalized transaction", missing,
            )
    # 2. Shared unconsumed states: every live participant of a state some
    # vault still holds unconsumed must hold the identical state.
    shared: dict[object, dict[str, object]] = {}
    for name in live:
        for ref, state in platform.vaults[name].unconsumed.items():
            shared.setdefault(ref, {})[name] = state
    for ref in sorted(shared, key=lambda r: (r.tx_id, r.index)):
        holders = shared[ref]
        sample_state = next(iter(holders.values()))
        expected = {name for name in sample_state.participants if name in live}
        disagreeing = sorted(set(holders) ^ expected)
        values_differ = len({
            hash_hex("repro/recovery/corda-unconsumed", dict(state.data))
            for state in holders.values()
        }) > 1
        if disagreeing or values_differ:
            _flag(
                report, f"{ref.tx_id}:{ref.index}",
                "participants disagree on an unconsumed state"
                if values_differ
                else "unconsumed state not held by all live participants",
                disagreeing or sorted(holders),
            )


def _audit_quorum(platform, report: ConvergenceReport) -> None:
    live = _live(platform, platform.parties)
    # 1. Public state: one shared ledger, every live node must agree.
    distinct, minority = _minority(
        {name: platform.public_states[name] for name in live}
    )
    if minority:
        _flag(
            report, "public-chain",
            f"public state mismatch: {distinct} distinct states among live nodes",
            minority,
        )
    # 2. Private state per key: all holders of a key must agree.  (The
    # paper's double-spend flaw produces exactly this divergence when
    # exercised — the audit makes it visible rather than impossible.)
    for key in platform.divergent_keys():
        _flag(
            report, key, "private-state holders disagree on this key",
            sorted(platform.private_state_views(key)),
        )
    # 3. Replayability: each live node's private state must match a fresh
    # replay of its entitled payloads; a missing payload is a divergence
    # (the node cannot prove its own state), not a crash.
    for name in live:
        try:
            if not platform.verify_private_state(name):
                _flag(
                    report, "private-replay",
                    "private state does not match payload replay", [name],
                )
        except PrivacyError:
            _flag(
                report, "private-replay",
                "private state not replayable: entitled payload missing", [name],
            )
    # 4. Watermark: a node that missed a transaction in flight is behind
    # even where its state matches (a non-participant that lost a private
    # transaction's gossip holds the same public state as everyone).
    height = platform.chain.height
    behind = [name for name in live if platform._applied_upto[name] < height]
    if behind:
        _flag(
            report, "public-chain",
            f"behind the chain: applied below height {height}", behind,
        )


_AUDITS = {
    "fabric": _audit_fabric,
    "corda": _audit_corda,
    "quorum": _audit_quorum,
}


def audit_convergence(platform) -> ConvergenceReport:
    """Check that every visibility group on *platform* has re-converged.

    Crashed nodes are skipped (and reported as such): they are expected
    to lag until :meth:`~repro.platforms.base.Platform.recover` runs.
    Honest live nodes, however, must agree with their peer groups — any
    disagreement is returned as a structured :class:`Divergence` and
    counted under ``recovery.convergence.divergences``.
    """
    audit = _AUDITS.get(platform.platform_name)
    if audit is None:
        raise PlatformError(
            f"no convergence audit for platform {platform.platform_name!r}"
        )
    nodes = sorted(platform.parties)
    skipped = tuple(n for n in nodes if platform.network.is_crashed(n))
    checked = tuple(n for n in nodes if n not in skipped)
    report = ConvergenceReport(
        platform=platform.platform_name,
        checked_nodes=checked,
        skipped_nodes=skipped,
    )
    with platform.telemetry.span(
        "recovery.convergence", platform=platform.platform_name
    ) as span:
        audit(platform, report)
        platform.telemetry.tracer.set_attribute(
            span, "divergences", len(report.divergences)
        )
        platform.telemetry.metrics.counter(
            "recovery.convergence.checks", platform=platform.platform_name
        ).inc()
        if report.divergences:
            platform.telemetry.metrics.counter(
                "recovery.convergence.divergences",
                platform=platform.platform_name,
            ).inc(len(report.divergences))
            for div in report.divergences:
                platform.telemetry.events.emit(
                    "recovery.divergence",
                    platform=div.platform,
                    scope=div.scope,
                    nodes=list(div.nodes),
                )
    return report
