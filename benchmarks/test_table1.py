"""Experiment T1 — regenerate Table 1 (the platform-comparison matrix).

The paper's Table 1 classifies 15 mechanisms x 3 platforms as native (+),
implementable (*), or requires-rewrite (-).  Here every cell is derived by
*exercising* the mechanism on the platform simulation; the benchmark times
one full probe column per platform, and the session-level assertion
requires 100% agreement with the published matrix.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import write_result
from repro.core.matrix import PAPER_TABLE_1, MatrixComparison
from repro.core.probe import probe_column, regenerate_matrix
from repro.platforms.corda import CordaNetwork
from repro.platforms.fabric import FabricNetwork
from repro.platforms.quorum import QuorumNetwork

PLATFORM_FACTORIES = {
    "fabric": FabricNetwork,
    "corda": CordaNetwork,
    "quorum": QuorumNetwork,
}


@pytest.mark.parametrize("platform", sorted(PLATFORM_FACTORIES))
def test_probe_column(benchmark, platform):
    """Time a full 15-mechanism probe column for one platform."""
    factory = PLATFORM_FACTORIES[platform]
    counter = iter(range(10**9))

    def fresh_column():
        net = factory(seed=f"t1-{platform}-{next(counter)}")
        return probe_column(net)

    results = benchmark(fresh_column)
    # Every cell of this column must match the paper.
    for mechanism, result in results.items():
        expected = PAPER_TABLE_1[(platform, mechanism)]
        assert result.level == expected, (
            f"{platform}/{mechanism.value}: paper={expected.value} "
            f"probe={result.level.value}"
        )


def test_full_matrix_agreement(benchmark):
    """Regenerate all 45 cells and diff against the published table."""
    comparison = benchmark.pedantic(
        lambda: MatrixComparison(regenerated=regenerate_matrix()),
        rounds=1, iterations=1,
    )
    write_result("table1", comparison.render())
    assert comparison.total_cells == 45
    assert comparison.agreement_ratio == 1.0, comparison.disagreements
