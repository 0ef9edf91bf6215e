"""Capability prober: regenerate Table 1 from executable evidence.

Each platform column is one table, ``PROBES`` in
``repro.platforms.<platform>.probes``, mapping a :class:`Mechanism` to
either

- a **probe**: a function of a platform instance that exercises the
  mechanism and returns ``(SupportLevel, evidence)``; or
- a **constant row** ``(SupportLevel, evidence)`` for a cell the paper
  rates without anything to run.

A result is ``exercised`` iff its entry is a probe.  The rows every
platform shares (ZKPs on data, MPC, homomorphic encryption, open source)
live here, in :data:`SHARED_PROBES`.  See :mod:`repro.core.matrix` for the
paper's ground truth and the comparison report.
"""

from __future__ import annotations

from typing import Callable, Union

from repro.common.errors import CryptoError
from repro.core.matrix import MatrixComparison
from repro.core.mechanisms import Mechanism, all_mechanisms
from repro.crypto.commitments import PedersenScheme
from repro.crypto.mpc import secure_sum
from repro.crypto.paillier import Paillier
from repro.crypto.zkp import (
    RangeProver,
    prove_sufficient_funds,
    verify_sufficient_funds,
)
from repro.platforms import PLATFORMS
from repro.platforms.base import Platform, ProbeResult, SupportLevel
from repro.platforms.corda.probes import PROBES as CORDA_PROBES
from repro.platforms.fabric.probes import PROBES as FABRIC_PROBES
from repro.platforms.quorum.probes import PROBES as QUORUM_PROBES

Row = tuple[SupportLevel, str]
Probe = Union[Callable[[Platform], Row], Row]


# -- rows shared by all three platforms
#
# ZKPs on data, MPC, and homomorphic encryption are '*' for every platform
# in Table 1: none supports them natively, all can host them as
# application-layer constructions.  The probes exercise the library
# implementations and report per-platform evidence.


def probe_zkp_on_data(net: Platform) -> Row:
    rng = net.rng.fork("probe-zkp")
    prover = RangeProver()
    pedersen = PedersenScheme(prover.group)
    commitment, opening = pedersen.commit(500, rng)
    context = f"{net.platform_name}-probe".encode()
    proof = prove_sufficient_funds(prover, 500, opening, 100, 16, context, rng)
    ok = verify_sufficient_funds(prover, commitment, proof, context)
    return (
        SupportLevel.IMPLEMENTABLE if ok else SupportLevel.REWRITE,
        f"scenario-specific range proof verified on {net.platform_name}; "
        "no general-purpose native ZKP service (Section 2.2 maturity)",
    )


def probe_multiparty_computation(net: Platform) -> Row:
    total, stats = secure_sum({"org1": 3, "org2": 4})
    return (
        SupportLevel.IMPLEMENTABLE if total == 7 else SupportLevel.REWRITE,
        f"additive-sharing MPC runs off-platform ({stats.rounds} rounds); "
        f"only the agreed result reaches the {net.platform_name} ledger",
    )


def probe_homomorphic_encryption(net: Platform) -> Row:
    paillier = Paillier(bits=256)
    rng = net.rng.fork("probe-paillier")
    keys = paillier.keygen(rng)
    a = paillier.encrypt(keys.public, 20, rng)
    b = paillier.encrypt(keys.public, 22, rng)
    additive = paillier.decrypt(keys, paillier.add(keys.public, a, b)) == 42
    try:
        paillier.multiply(a, b)
        general = True
    except CryptoError:
        general = False
    return (
        SupportLevel.IMPLEMENTABLE if additive and not general
        else SupportLevel.REWRITE,
        "additive (Paillier) operations work on ledger values; general "
        "homomorphic computation remains proof-of-concept (Section 2.2)",
    )


SHARED_PROBES: dict[Mechanism, Probe] = {
    Mechanism.ZKP_ON_DATA: probe_zkp_on_data,
    Mechanism.MULTIPARTY_COMPUTATION: probe_multiparty_computation,
    Mechanism.HOMOMORPHIC_ENCRYPTION: probe_homomorphic_encryption,
    Mechanism.OPEN_SOURCE: (
        SupportLevel.NATIVE,
        "platform selection criterion (a) in Section 5: all three "
        "platforms are open source",
    ),
}

COLUMNS: dict[str, dict[Mechanism, Probe]] = {
    "fabric": FABRIC_PROBES,
    "corda": CORDA_PROBES,
    "quorum": QUORUM_PROBES,
}


def probe(net: Platform, mechanism: Mechanism) -> ProbeResult:
    """Run (or read) *mechanism*'s entry in *net*'s column."""
    entry = SHARED_PROBES.get(mechanism) or COLUMNS[net.platform_name][mechanism]
    exercised = callable(entry)
    level, evidence = entry(net) if exercised else entry
    return ProbeResult(
        platform=net.platform_name,
        mechanism=mechanism,
        level=level,
        evidence=evidence,
        exercised=exercised,
    )


def probe_column(net: Platform) -> dict[Mechanism, ProbeResult]:
    """Every mechanism on one platform instance: its Table 1 column."""
    return {mechanism: probe(net, mechanism) for mechanism in all_mechanisms()}


def build_platforms(seed: str = "probe") -> list[Platform]:
    """Fresh instances of the three platform simulations."""
    return [network(seed=f"{seed}-{name}") for name, network in PLATFORMS.items()]


def regenerate_matrix(
    platforms: list[Platform] | None = None,
) -> dict[tuple[str, Mechanism], ProbeResult]:
    """Run every probe on every platform."""
    platforms = platforms if platforms is not None else build_platforms()
    matrix: dict[tuple[str, Mechanism], ProbeResult] = {}
    for net in platforms:
        for mechanism, result in probe_column(net).items():
            matrix[(net.platform_name, mechanism)] = result
    return matrix


def compare_with_paper(
    platforms: list[Platform] | None = None,
) -> MatrixComparison:
    """Regenerate the matrix and diff it against the published Table 1."""
    return MatrixComparison(regenerated=regenerate_matrix(platforms))
