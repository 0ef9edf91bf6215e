"""Experiment L2 — static analyzer throughput.

The linter's pitch is design-time feedback: it must be cheap enough to
run on every edit and in ``scripts/check.sh``.  This experiment times a
full self-scan (``src/repro`` + ``examples``, the same trees
``repro lint --self`` covers) and reports files/sec and findings, so a
slow pass or a rule explosion shows up as a regression here.
"""

from __future__ import annotations

from benchmarks.conftest import write_result
from repro.analysis import analyze_paths, iter_python_files, self_paths


def test_self_scan_throughput(benchmark):
    targets = self_paths()
    files = iter_python_files(targets)
    assert len(files) > 50

    report = benchmark(lambda: analyze_paths(targets))

    assert report.files_analyzed == len(files)
    assert not report.parse_errors
    if not benchmark.enabled:
        return  # --benchmark-disable: one untimed run, no stats to report
    # The analyzer stays usable as an every-edit check.
    mean = benchmark.stats.stats.mean
    files_per_sec = len(files) / mean
    assert files_per_sec > 20

    write_result(
        "lint_throughput",
        "\n".join(
            [
                "L2: static analyzer self-scan throughput",
                f"files analyzed:   {report.files_analyzed}",
                f"mean scan time:   {mean * 1000:.1f} ms",
                f"throughput:       {files_per_sec:.0f} files/sec",
                f"findings:         {len(report.active())} active, "
                f"{len(report.suppressed())} suppressed",
            ]
        ),
    )
