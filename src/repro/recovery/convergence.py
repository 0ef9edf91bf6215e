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


def _audit_fabric(platform, report: ConvergenceReport) -> None:
    for channel_name in sorted(platform.channels):
        channel = platform.channels[channel_name]
        fingerprints: dict[str, list[str]] = {}
        for member in sorted(channel.members):
            if platform.network.is_crashed(member):
                continue
            fp = _state_fingerprint(channel.states[member])
            fingerprints.setdefault(fp, []).append(member)
        if len(fingerprints) > 1:
            groups = sorted(fingerprints.values(), key=len, reverse=True)
            minority = tuple(
                member for group in groups[1:] for member in group
            )
            report.divergences.append(
                Divergence(
                    platform="fabric",
                    scope=channel.name,
                    detail=(
                        f"replica mismatch: {len(fingerprints)} distinct "
                        f"states among {sum(len(g) for g in groups)} live "
                        "members"
                    ),
                    nodes=minority,
                )
            )


def _audit_corda(platform, report: ConvergenceReport) -> None:
    live = [
        name for name in sorted(platform.parties)
        if not platform.network.is_crashed(name)
    ]
    # 1. Transaction knowledge: every live entitled party must hold every
    # transaction it was party to.  (Backchain resolution can legitimately
    # teach a vault *extra* history — that is the mechanism's documented
    # disclosure, not a divergence.)
    all_txs: dict[str, object] = {}
    for name in live:
        all_txs.update(platform.vaults[name].transactions)
    for tx_id in sorted(all_txs):
        stx = all_txs[tx_id]
        entitled = platform._entitled_parties(stx) & set(platform.parties)
        missing = tuple(
            name for name in sorted(entitled)
            if name in live and not platform.vaults[name].knows_transaction(tx_id)
        )
        if missing:
            report.divergences.append(
                Divergence(
                    platform="corda",
                    scope=tx_id,
                    detail="entitled party missing a finalized transaction",
                    nodes=missing,
                )
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
        expected = {
            name for name in sample_state.participants
            if name in live
        }
        disagreeing = tuple(sorted(
            set(holders) ^ expected
        )) if set(holders) != expected else ()
        values_differ = len({
            hash_hex("repro/recovery/corda-unconsumed", dict(state.data))
            for state in holders.values()
        }) > 1
        if disagreeing or values_differ:
            report.divergences.append(
                Divergence(
                    platform="corda",
                    scope=f"{ref.tx_id}:{ref.index}",
                    detail=(
                        "participants disagree on an unconsumed state"
                        if values_differ
                        else "unconsumed state not held by all live participants"
                    ),
                    nodes=disagreeing or tuple(sorted(holders)),
                )
            )


def _audit_quorum(platform, report: ConvergenceReport) -> None:
    live = [
        name for name in sorted(platform.parties)
        if not platform.network.is_crashed(name)
    ]
    # 1. Public state: one shared ledger, every live node must agree.
    fingerprints: dict[str, list[str]] = {}
    for name in live:
        fp = _state_fingerprint(platform.public_states[name])
        fingerprints.setdefault(fp, []).append(name)
    if len(fingerprints) > 1:
        groups = sorted(fingerprints.values(), key=len, reverse=True)
        minority = tuple(n for group in groups[1:] for n in group)
        report.divergences.append(
            Divergence(
                platform="quorum",
                scope="public-chain",
                detail=(
                    f"public state mismatch: {len(fingerprints)} distinct "
                    "states among live nodes"
                ),
                nodes=minority,
            )
        )
    # 2. Private state per key: all holders of a key must agree.  (The
    # paper's double-spend flaw produces exactly this divergence when
    # exercised — the audit makes it visible rather than impossible.)
    for key in platform.divergent_keys():
        holders = tuple(sorted(platform.private_state_views(key)))
        report.divergences.append(
            Divergence(
                platform="quorum",
                scope=key,
                detail="private-state holders disagree on this key",
                nodes=holders,
            )
        )
    # 3. Replayability: each live node's private state must match a fresh
    # replay of its entitled payloads; a missing payload is a divergence
    # (the node cannot prove its own state), not a crash.
    for name in live:
        try:
            replay_ok = platform.verify_private_state(name)
        except PrivacyError:
            replay_ok = False
            detail = "private state not replayable: entitled payload missing"
        else:
            detail = "private state does not match payload replay"
        if not replay_ok:
            report.divergences.append(
                Divergence(
                    platform="quorum", scope="private-replay",
                    detail=detail, nodes=(name,),
                )
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
