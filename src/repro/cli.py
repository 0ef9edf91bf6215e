"""Command-line interface.

Subcommands expose the paper's artifacts without writing any code:

- ``repro table1``   — regenerate Table 1 from capability probes and diff
  it against the published matrix.
- ``repro figure1``  — print the decision path for a requirements spec
  given as flags.
- ``repro design``   — run the full guide over a JSON requirements file
  and emit the markdown report.
- ``repro audit``    — run the leakage audit across the three platforms.
- ``repro lint``     — static privacy-leakage / determinism analysis over
  contract, platform, and use-case code (``--self`` lints this repo).
- ``repro trace``    — run a traced letter-of-credit lifecycle on one
  platform and render the simulated-time span tree.
- ``repro metrics``  — the metrics snapshot of such a run, or a diff of
  two saved snapshots.
- ``repro recover``  — run the canonical crash/recover/catch-up scenario
  on one platform and report convergence and catch-up privacy.
- ``repro bench``    — drive a synthetic workload (KV, trades, or
  letter-of-credit mix) through one platform's unified transaction
  pipeline and report throughput, latency, and crypto-cache hit rates.
- ``repro converge`` — the same scenario across all three platforms; the
  CI convergence gate (exit 1 on any divergence or leak).

Run ``python -m repro <subcommand> --help`` for details.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.core.decision import decide_data_confidentiality
from repro.core.guide import design_solution
from repro.core.requirements import (
    DataClassRequirements,
    DeploymentContext,
    InteractionPrivacy,
    LogicRequirements,
    UseCaseRequirements,
)


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.core.probe import compare_with_paper

    comparison = compare_with_paper()
    print(comparison.render())
    return 0 if comparison.agreement_ratio == 1.0 else 1


def _cmd_figure1(args: argparse.Namespace) -> int:
    requirements = DataClassRequirements(
        name=args.name,
        deletion_required=args.deletion_required,
        private_from_counterparties=args.private_from_counterparties,
        shared_function_on_private_inputs=args.shared_function,
        encrypted_sharing_allowed=not args.no_encrypted_sharing,
        onchain_record_desired=not args.no_onchain_record,
        partial_visibility_within_transaction=args.partial_visibility,
        uninvolved_validation_required=args.uninvolved_validation,
    )
    deployment = DeploymentContext(
        ordering_service_trusted=not args.untrusted_orderer,
        third_party_node_admin=args.third_party_admin,
    )
    recommendation = decide_data_confidentiality(requirements, deployment)
    print(recommendation.describe())
    return 0


def requirements_from_json(data: dict) -> UseCaseRequirements:
    """Build a :class:`UseCaseRequirements` from a plain JSON dict.

    Schema::

        {
          "name": "...",
          "interaction_privacy": "none|group-private|subgroup-unlinkable|individual-anonymous",
          "data_classes": [{"name": "...", "<flag>": true, ...}, ...],
          "logic": {"keep_logic_private": true, ...},
          "deployment": {"ordering_service_trusted": false, ...}
        }
    """
    data_classes = tuple(
        DataClassRequirements(**dc) for dc in data.get("data_classes", [])
    )
    return UseCaseRequirements(
        name=data["name"],
        interaction_privacy=InteractionPrivacy(
            data.get("interaction_privacy", "none")
        ),
        data_classes=data_classes,
        logic=LogicRequirements(**data.get("logic", {})),
        deployment=DeploymentContext(**data.get("deployment", {})),
    )


def _cmd_design(args: argparse.Namespace) -> int:
    from repro.core.report import render_markdown

    if args.requirements == "-":
        data = json.load(sys.stdin)
    else:
        with open(args.requirements, encoding="utf-8") as handle:
            data = json.load(handle)
    requirements = requirements_from_json(data)
    design = design_solution(requirements)
    print(render_markdown(design))
    return 0


def _cmd_threats(args: argparse.Namespace) -> int:
    from repro.core.threats import evaluate_design

    if args.requirements == "-":
        data = json.load(sys.stdin)
    else:
        with open(args.requirements, encoding="utf-8") as handle:
            data = json.load(handle)
    design = design_solution(requirements_from_json(data))
    assessment = evaluate_design(design)
    print(assessment.render())
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.core.audit import audit_all

    reports = [report.summary_row() for report in audit_all()]
    width = max(len(key) for key in reports[0])
    header = f"{'':{width}s} " + " ".join(f"{r['platform']:>8s}" for r in reports)
    print(header)
    for key in reports[0]:
        if key == "platform":
            continue
        row = f"{key:{width}s} " + " ".join(
            f"{str(r[key]):>8s}" for r in reports
        )
        print(row)
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import analyze_paths, self_paths

    paths = list(args.paths)
    if args.self_scan:
        paths.extend(self_paths())
    if not paths:
        print("repro lint: no paths given (pass files/dirs or --self)",
              file=sys.stderr)
        return 2
    report = analyze_paths(paths)
    if args.json:
        print(report.to_json(include_suppressed=args.include_suppressed))
    else:
        print(report.render_text(include_suppressed=args.include_suppressed))
    return report.exit_code(strict=args.strict)


def _traced_lifecycle(platform: str):
    """Run one letter-of-credit lifecycle on *platform* with tracing on;
    return its telemetry bundle (spans + metrics + events, all
    simulated-time)."""
    from repro.platforms import PLATFORMS
    from repro.usecases.letter_of_credit import LetterOfCreditWorkflow

    network = PLATFORMS[platform](seed="loc")
    network.telemetry.start_tracing()
    workflow = LetterOfCreditWorkflow(network)
    workflow.setup()
    workflow.run_full_lifecycle()
    return workflow.network.telemetry


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.telemetry import render_trace_tree, trace_json

    telemetry = _traced_lifecycle(args.platform)
    if args.json:
        print(trace_json(telemetry.tracer))
    else:
        print(render_trace_tree(telemetry.tracer))
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.telemetry import diff_snapshots, render_diff

    if args.diff:
        before_path, after_path = args.diff
        with open(before_path, encoding="utf-8") as handle:
            before = json.load(handle)
        with open(after_path, encoding="utf-8") as handle:
            after = json.load(handle)
        delta = diff_snapshots(before, after)
        if args.json:
            print(json.dumps(delta, indent=2, sort_keys=True))
        else:
            print(render_diff(delta))
        return 0
    telemetry = _traced_lifecycle(args.platform)
    if args.json:
        print(json.dumps(telemetry.metrics.snapshot(), indent=2, sort_keys=True))
    else:
        print(telemetry.metrics.render_text())
    return 0


def _scenario_payload(result) -> dict:
    """JSON shape shared by ``repro recover`` and ``repro converge``."""
    return {
        "platform": result.platform_name,
        "crashed_node": result.crashed_node,
        "checkpoint_sequence": result.checkpoint_sequence,
        "statuses": result.statuses,
        "converged": result.report.converged,
        "divergences": [
            {
                "scope": d.scope,
                "detail": d.detail,
                "nodes": list(d.nodes),
            }
            for d in result.report.divergences
        ],
        "leak_ok": result.leak_ok,
        "leak_findings": result.leak_findings,
        "metrics": result.summary,
        "ok": result.ok,
    }


def _cmd_recover(args: argparse.Namespace) -> int:
    from repro.recovery.scenario import CANONICAL_SEED, run_recovery_scenario

    result = run_recovery_scenario(
        args.platform, seed=args.seed or CANONICAL_SEED
    )
    if args.json:
        print(json.dumps(_scenario_payload(result), indent=2, sort_keys=True))
    else:
        print(result.render())
    return 0 if result.ok else 1


def _cmd_converge(args: argparse.Namespace) -> int:
    from repro.recovery.scenario import (
        CANONICAL_SEED,
        run_all_recovery_scenarios,
        run_recovery_scenario,
    )

    seed = args.seed or CANONICAL_SEED
    if args.platform:
        results = [run_recovery_scenario(args.platform, seed=seed)]
    else:
        results = run_all_recovery_scenarios(seed=seed)
    if args.json:
        print(json.dumps(
            [_scenario_payload(r) for r in results], indent=2, sort_keys=True
        ))
    else:
        for result in results:
            print(result.render())
            print()
        failed = [r.platform_name for r in results if not r.ok]
        print(
            "convergence gate: "
            + ("PASS" if not failed else f"FAIL ({', '.join(failed)})")
        )
    return 0 if all(r.ok for r in results) else 1


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.driver import Driver, DriverConfig, build_scenario

    scenario = build_scenario(
        args.platform, args.workload, args.ops, skew=args.skew,
        seed=args.seed,
    )
    config = DriverConfig(
        batch_size=args.batch, force_cut=not args.no_force_cut
    )
    report = Driver(scenario.platform, config).run(scenario.requests)
    if args.json:
        payload = report.to_dict()
        payload["workload"] = args.workload
        payload["scenario"] = scenario.params
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"workload {scenario.label} {scenario.params}")
        print(report.render_text())
    return 0 if report.failed == 0 else 1


# The ``--platform`` / ``--workload`` choices: the keys of
# ``repro.platforms.PLATFORMS`` and ``repro.driver.scenarios.WORKLOADS``,
# named here so that parsing arguments imports neither.
PLATFORM_NAMES = ("fabric", "corda", "quorum")
WORKLOAD_NAMES = ("kv", "trades", "loc")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Design guide & platform comparison from the "
        "Middleware'19 privacy/confidentiality paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table1 = sub.add_parser("table1", help="regenerate Table 1 from probes")
    table1.set_defaults(func=_cmd_table1)

    figure1 = sub.add_parser(
        "figure1", help="walk the Figure 1 decision tree for one data class"
    )
    figure1.add_argument("--name", default="data")
    figure1.add_argument("--deletion-required", action="store_true")
    figure1.add_argument("--private-from-counterparties", action="store_true")
    figure1.add_argument("--shared-function", action="store_true")
    figure1.add_argument("--no-encrypted-sharing", action="store_true")
    figure1.add_argument("--no-onchain-record", action="store_true")
    figure1.add_argument("--partial-visibility", action="store_true")
    figure1.add_argument("--uninvolved-validation", action="store_true")
    figure1.add_argument("--untrusted-orderer", action="store_true")
    figure1.add_argument("--third-party-admin", action="store_true")
    figure1.set_defaults(func=_cmd_figure1)

    design = sub.add_parser(
        "design", help="full design report from a JSON requirements file"
    )
    design.add_argument(
        "requirements", help="path to a requirements JSON file, or - for stdin"
    )
    design.set_defaults(func=_cmd_design)

    threats = sub.add_parser(
        "threats", help="threat-coverage matrix for a requirements file"
    )
    threats.add_argument(
        "requirements", help="path to a requirements JSON file, or - for stdin"
    )
    threats.set_defaults(func=_cmd_threats)

    audit = sub.add_parser("audit", help="run the cross-platform leakage audit")
    audit.set_defaults(func=_cmd_audit)

    lint = sub.add_parser(
        "lint",
        help="static privacy-leakage and determinism linter",
        description="Lints Python contract functions, platform code, and "
        "use cases for confidential-to-public information flows, "
        "nondeterminism in validation logic, and trust-boundary caveats. "
        "Exit status: 1 if any error finding (with --strict: warnings "
        "too) survives suppression, else 0.",
    )
    lint.add_argument("paths", nargs="*", help="files or directories to lint")
    lint.add_argument(
        "--self", dest="self_scan", action="store_true",
        help="lint this repo's own src/repro and examples trees",
    )
    lint.add_argument(
        "--strict", action="store_true",
        help="also fail on warning-severity findings",
    )
    lint.add_argument(
        "--json", action="store_true", help="emit findings as JSON"
    )
    lint.add_argument(
        "--include-suppressed", action="store_true",
        help="show findings silenced by '# repro: allow(...)' comments",
    )
    lint.set_defaults(func=_cmd_lint)

    trace = sub.add_parser(
        "trace",
        help="span tree of a traced letter-of-credit run",
        description="Runs one letter-of-credit lifecycle on the chosen "
        "platform simulation and renders the resulting span tree, with "
        "every duration in simulated time.  Deterministic: the same "
        "platform always yields byte-identical output.",
    )
    trace.add_argument("--platform", choices=PLATFORM_NAMES, default="fabric")
    trace.add_argument(
        "--json", action="store_true", help="emit spans as JSON instead"
    )
    trace.set_defaults(func=_cmd_trace)

    metrics = sub.add_parser(
        "metrics",
        help="metrics snapshot of a traced run, or a diff of two snapshots",
        description="Without --diff: runs one letter-of-credit lifecycle "
        "and prints the metrics snapshot (counters, gauges, histograms). "
        "With --diff BEFORE.json AFTER.json: prints per-metric deltas "
        "between two saved snapshots.",
    )
    metrics.add_argument("--platform", choices=PLATFORM_NAMES, default="fabric")
    metrics.add_argument(
        "--diff", nargs=2, metavar=("BEFORE", "AFTER"),
        help="diff two snapshot JSON files instead of running a workload",
    )
    metrics.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    metrics.set_defaults(func=_cmd_metrics)

    recover = sub.add_parser(
        "recover",
        help="crash/recover/catch-up scenario on one platform",
        description="Runs the canonical recovery scenario: a "
        "letter-of-credit party crashes mid-lifecycle under a fault plan, "
        "business continues without it (including interactions it is not "
        "entitled to see), then the node recovers from its checkpoint and "
        "catches up through the visibility-filtered protocol.  Reports "
        "liveness, convergence, and catch-up privacy.  Exit 1 on any "
        "divergence or entitlement widening.",
    )
    recover.add_argument("--platform", choices=PLATFORM_NAMES, default="fabric")
    recover.add_argument(
        "--seed", default=None, help="override the canonical scenario seed"
    )
    recover.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    recover.set_defaults(func=_cmd_recover)

    converge = sub.add_parser(
        "converge",
        help="recovery + convergence gate across all three platforms",
        description="Runs the canonical recovery scenario on every "
        "platform (or one, with --platform) and audits convergence.  "
        "This is the CI convergence gate: exit 0 iff every platform "
        "converges with zero divergence and no entitlement widening.",
    )
    converge.add_argument("--platform", choices=PLATFORM_NAMES, default=None)
    converge.add_argument(
        "--seed", default=None, help="override the canonical scenario seed"
    )
    converge.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    converge.set_defaults(func=_cmd_converge)

    bench = sub.add_parser(
        "bench",
        help="drive a synthetic workload through one platform's pipeline",
        description="Compiles a repro.workloads stream into TxRequests "
        "for the chosen platform and pumps them through the unified "
        "submission pipeline in batches, reporting simulated-time "
        "throughput, latency, and signature/certificate cache hit rates. "
        "Deterministic in --seed.  Exit 1 if any transaction fails.",
    )
    bench.add_argument("--platform", choices=PLATFORM_NAMES, default="fabric")
    bench.add_argument(
        "--workload", choices=WORKLOAD_NAMES, default="kv",
        help="kv: key-value updates; trades: bilateral confidential "
        "trades; loc: letter-of-credit stage mix (ops = applications)",
    )
    bench.add_argument(
        "--ops", type=int, default=100,
        help="operations (kv), trades, or LoC applications to generate",
    )
    bench.add_argument(
        "--skew", type=float, default=0.0,
        help="Zipfian key-popularity skew for the kv workload (0 = uniform)",
    )
    bench.add_argument(
        "--batch", type=int, default=25, help="requests kept in flight together"
    )
    bench.add_argument(
        "--no-force-cut", action="store_true",
        help="leave batch release to the orderer's size/timeout policy",
    )
    bench.add_argument("--seed", default="bench")
    bench.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )
    bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point used by ``python -m repro`` and the console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream consumer (e.g. ``| head``) closed the pipe early;
        # that is not an error.  Detach stdout so interpreter shutdown
        # doesn't raise again while flushing.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
