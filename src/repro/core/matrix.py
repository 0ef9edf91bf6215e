"""Table 1: the platform-comparison matrix.

Holds the paper's published matrix as ground truth, regenerates it from
capability probes (see :mod:`repro.core.probe`), renders both, and scores
platforms against a :class:`SolutionDesign` — the step the paper's Section
3 guide ends with: "assessing DLT platforms with respect to their ability
to meet specific enterprise requirements".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.guide import SolutionDesign
from repro.core.mechanisms import Mechanism, all_mechanisms, info
from repro.platforms.base import ProbeResult, SupportLevel

PLATFORMS = ("fabric", "corda", "quorum")

# The published Table 1, cell for cell.  Legend: '+' native, '*' not native
# but implementable, '-' requires substantial rewriting, 'N/A'.
PAPER_TABLE_1: dict[tuple[str, Mechanism], SupportLevel] = {}


def _row(mechanism: Mechanism, fabric: str, corda: str, quorum: str) -> None:
    levels = {"+": SupportLevel.NATIVE, "*": SupportLevel.IMPLEMENTABLE,
              "-": SupportLevel.REWRITE, "N/A": SupportLevel.NOT_APPLICABLE}
    PAPER_TABLE_1[("fabric", mechanism)] = levels[fabric]
    PAPER_TABLE_1[("corda", mechanism)] = levels[corda]
    PAPER_TABLE_1[("quorum", mechanism)] = levels[quorum]


_row(Mechanism.SEPARATION_OF_LEDGERS_PARTIES, "+", "+", "+")
_row(Mechanism.ONE_TIME_PUBLIC_KEYS, "-", "+", "*")
_row(Mechanism.ZKP_OF_IDENTITY, "+", "-", "-")
_row(Mechanism.SEPARATION_OF_LEDGERS_DATA, "+", "+", "+")
_row(Mechanism.OFF_CHAIN_PEER_DATA, "+", "*", "-")
_row(Mechanism.SYMMETRIC_ENCRYPTION, "+", "+", "+")
_row(Mechanism.MERKLE_TEAR_OFFS, "*", "+", "-")
_row(Mechanism.ZKP_ON_DATA, "*", "*", "*")
_row(Mechanism.MULTIPARTY_COMPUTATION, "*", "*", "*")
_row(Mechanism.HOMOMORPHIC_ENCRYPTION, "*", "*", "*")
_row(Mechanism.INSTALL_ON_INVOLVED_NODES, "+", "N/A", "+")
_row(Mechanism.OFF_CHAIN_EXECUTION_ENGINE, "*", "+", "-")
_row(Mechanism.TRUSTED_EXECUTION_ENVIRONMENT, "-", "-", "-")
_row(Mechanism.PRIVATE_SEQUENCING_SERVICE, "+", "+", "+")
_row(Mechanism.OPEN_SOURCE, "+", "+", "+")


@dataclass
class MatrixComparison:
    """Regenerated matrix vs. the paper's, with per-cell agreement."""

    regenerated: dict[tuple[str, Mechanism], ProbeResult]
    agreements: int = 0
    disagreements: list[tuple[str, Mechanism, SupportLevel, SupportLevel]] = field(
        default_factory=list
    )

    def __post_init__(self) -> None:
        for (platform, mechanism), paper_level in PAPER_TABLE_1.items():
            probe = self.regenerated.get((platform, mechanism))
            if probe is None:
                continue
            if probe.level == paper_level:
                self.agreements += 1
            else:
                self.disagreements.append(
                    (platform, mechanism, paper_level, probe.level)
                )

    @property
    def total_cells(self) -> int:
        return len(PAPER_TABLE_1)

    @property
    def agreement_ratio(self) -> float:
        return self.agreements / self.total_cells

    def render(self) -> str:
        """Side-by-side table: paper vs. regenerated, row per mechanism."""
        lines = []
        header = f"{'Mechanism':44s}" + "".join(
            f"{p + ' (paper/probe)':>24s}" for p in PLATFORMS
        )
        lines.append(header)
        lines.append("-" * len(header))
        current_category = None
        for mechanism in all_mechanisms():
            category = info(mechanism).category
            if category is not current_category:
                lines.append(f"[{category.value.upper()}]")
                current_category = category
            row = f"  {info(mechanism).display_name:42s}"
            for platform in PLATFORMS:
                paper = PAPER_TABLE_1[(platform, mechanism)].value
                probe = self.regenerated.get((platform, mechanism))
                probed = probe.level.value if probe else "?"
                mark = "" if paper == probed else "  <-- MISMATCH"
                row += f"{paper:>12s}/{probed:<8s}"
                if paper != probed:
                    row += mark
            lines.append(row)
        lines.append(
            f"agreement: {self.agreements}/{self.total_cells} cells "
            f"({self.agreement_ratio:.0%})"
        )
        return "\n".join(lines)


@dataclass
class PlatformScore:
    """How well one platform supports a solution design."""

    platform: str
    native: list[Mechanism] = field(default_factory=list)
    implementable: list[Mechanism] = field(default_factory=list)
    blocked: list[Mechanism] = field(default_factory=list)

    @property
    def score(self) -> float:
        """Native = 1, implementable = 0.5, blocked = 0 (N/A skipped)."""
        total = len(self.native) + len(self.implementable) + len(self.blocked)
        if total == 0:
            return 1.0
        return (len(self.native) + 0.5 * len(self.implementable)) / total


def score_platforms(
    design: SolutionDesign,
    matrix: dict[tuple[str, Mechanism], SupportLevel] | None = None,
) -> list[PlatformScore]:
    """Rank the three platforms for a design, best first.

    By default scores against the paper's Table 1; pass a regenerated
    matrix to score against probe results instead.
    """
    matrix = matrix or PAPER_TABLE_1
    needed = design.all_mechanisms()
    scores = []
    for platform in PLATFORMS:
        score = PlatformScore(platform=platform)
        for mechanism in sorted(needed, key=lambda m: m.value):
            level = matrix.get((platform, mechanism))
            if level is None or level is SupportLevel.NOT_APPLICABLE:
                continue
            if level is SupportLevel.NATIVE:
                score.native.append(mechanism)
            elif level is SupportLevel.IMPLEMENTABLE:
                score.implementable.append(mechanism)
            else:
                score.blocked.append(mechanism)
        scores.append(score)
    return sorted(scores, key=lambda s: s.score, reverse=True)
