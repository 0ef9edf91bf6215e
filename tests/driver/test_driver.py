"""The cross-platform workload driver: batching, metrics, reports."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.common.errors import PlatformError
from repro.driver import (
    BENCH_ORGS,
    Driver,
    DriverConfig,
    build_scenario,
    kv_scenario,
    loc_scenario,
    trade_scenario,
)
from repro.platforms.base import TxRequest
from repro.platforms.quorum import QuorumNetwork


class TestConfig:
    def test_rejects_zero_batch(self):
        with pytest.raises(ValueError):
            DriverConfig(batch_size=0)

    def test_defaults_are_drip_feed_with_forced_cuts(self):
        config = DriverConfig()
        assert config.batch_size == 1
        assert config.force_cut is True


class TestRun:
    def test_all_requests_get_receipts_in_order(self):
        scenario = kv_scenario("fabric", 7, seed="driver")
        report = Driver(scenario.platform, DriverConfig(batch_size=3)).run(
            scenario.requests
        )
        assert report.operations == 7
        assert [r.request for r in report.receipts] == scenario.requests

    def test_failures_do_not_stop_the_run(self):
        scenario = kv_scenario("quorum", 2, seed="driver-fail")
        bad = TxRequest(submitter="OrgA", contract_id="kv-store",
                        function="missing", args={})
        report = Driver(scenario.platform, DriverConfig(batch_size=3)).run(
            [scenario.requests[0], bad, scenario.requests[1]]
        )
        assert report.operations == 3
        assert report.committed == 2
        assert report.failed == 1
        assert report.status_counts()["rejected:ContractError"] == 1

    def test_emits_driver_metrics(self):
        scenario = kv_scenario("corda", 5, seed="driver-metrics")
        report = Driver(scenario.platform, DriverConfig(batch_size=2)).run(
            scenario.requests
        )
        snapshot = scenario.platform.telemetry.metrics.snapshot()
        assert snapshot["counters"]["pipeline.submitted{platform=corda}"] == 5
        assert snapshot["counters"]["pipeline.committed{platform=corda}"] == 5
        assert snapshot["histograms"]["driver.batch_size"]["count"] == 3
        assert snapshot["histograms"]["driver.latency"]["count"] == 5
        # Each Corda flow waits for its messages to be delivered, so the
        # run takes simulated time and reports a rate.
        assert report.duration > 0.0
        assert snapshot["gauges"]["driver.last_throughput_tps"] == round(
            report.committed / report.duration, 3
        )

    def test_throughput_gauge_is_committed_over_duration(self):
        scenario = kv_scenario("fabric", 6, seed="driver-metrics")
        report = Driver(scenario.platform, DriverConfig(batch_size=3)).run(
            scenario.requests
        )
        assert report.duration > 0.0
        gauges = scenario.platform.telemetry.metrics.snapshot()["gauges"]
        assert gauges["driver.last_throughput_tps"] == round(
            report.committed / report.duration, 3
        )

    def test_run_span_wraps_submissions(self):
        scenario = kv_scenario("fabric", 2, seed="driver-span")
        scenario.platform.telemetry.start_tracing()
        Driver(scenario.platform).run(scenario.requests)
        spans = scenario.platform.telemetry.tracer.spans
        names = [span.name for span in spans]
        assert "driver.run" in names
        run_span = next(s for s in spans if s.name == "driver.run")
        assert run_span.attributes["operations"] == 2
        assert run_span.attributes["platform"] == "fabric"

    def test_batching_outpaces_drip_feed_on_fabric(self):
        """The orderer's cutting policy rewards full in-flight batches."""
        drip = kv_scenario("fabric", 40, seed="driver-tp")
        batched = kv_scenario("fabric", 40, seed="driver-tp")
        drip_report = Driver(
            drip.platform, DriverConfig(batch_size=1, force_cut=False)
        ).run(drip.requests)
        batched_report = Driver(
            batched.platform, DriverConfig(batch_size=40, force_cut=False)
        ).run(batched.requests)
        assert drip_report.committed == batched_report.committed == 40
        assert (
            batched_report.throughput_tps >= 2 * drip_report.throughput_tps
        )

    def test_deterministic_across_runs(self):
        reports = []
        for __ in range(2):
            scenario = trade_scenario("quorum", 6, seed="driver-det")
            reports.append(
                Driver(scenario.platform, DriverConfig(batch_size=2)).run(
                    scenario.requests
                ).to_dict()
            )
        assert reports[0] == reports[1]


class TestReport:
    def test_to_dict_round_trips_key_figures(self):
        scenario = loc_scenario("corda", 4, seed="driver-report")
        report = Driver(scenario.platform, DriverConfig(batch_size=5)).run(
            scenario.requests
        )
        payload = report.to_dict()
        assert payload["operations"] == report.operations
        assert payload["committed"] == report.committed
        assert payload["platform"] == "corda"
        assert set(payload["cache_stats"]) == {
            "signature_verify", "certificate_chain",
        }

    def test_zero_duration_reports_no_rate(self):
        scenario = kv_scenario("corda", 3, seed="driver-report")
        report = Driver(scenario.platform, DriverConfig(batch_size=2)).run([])
        assert report.to_dict()["throughput_tps"] is None
        assert "  throughput    n/a" in report.render_text().splitlines()

    def test_no_commits_reports_no_latency(self):
        scenario = kv_scenario("corda", 3, seed="driver-report")
        report = Driver(scenario.platform, DriverConfig(batch_size=2)).run([])
        assert report.mean_latency is None
        assert report.to_dict()["mean_latency_s"] is None
        assert "  mean latency  n/a" in report.render_text().splitlines()

    def test_cache_without_lookups_reports_no_rate(self):
        report = Driver(QuorumNetwork(seed="driver-report")).run([])
        assert report.cache_stats["signature_verify"]["hits"] == 0
        lines = report.render_text().splitlines()
        assert f"  cache {'signature_verify':24s} 0/0 hits (n/a)" in lines

    def test_committed_receipts_report_a_latency(self):
        scenario = kv_scenario("quorum", 3, seed="driver-report")
        report = Driver(scenario.platform, DriverConfig(batch_size=2)).run(
            scenario.requests
        )
        assert report.mean_latency > 0.0
        assert report.to_dict()["mean_latency_s"] > 0.0

    def test_render_text_mentions_caches_and_throughput(self):
        scenario = loc_scenario("fabric", 4, seed="driver-render")
        report = Driver(scenario.platform, DriverConfig(batch_size=5)).run(
            scenario.requests
        )
        text = report.render_text()
        assert "throughput" in text
        assert "signature_verify" in text
        assert "certificate_chain" in text


class TestScenarios:
    @pytest.mark.parametrize("platform_name", ("fabric", "corda", "quorum"))
    @pytest.mark.parametrize("workload", ("kv", "trades", "loc"))
    def test_every_pair_compiles_and_commits(self, platform_name, workload):
        scenario = build_scenario(platform_name, workload, 3, seed="matrix")
        report = Driver(scenario.platform, DriverConfig(batch_size=4)).run(
            scenario.requests
        )
        assert report.operations == len(scenario.requests) > 0
        assert report.failed == 0

    def test_same_seed_same_requests(self):
        a = build_scenario("fabric", "trades", 5, seed="stable")
        b = build_scenario("fabric", "trades", 5, seed="stable")
        assert a.requests == b.requests

    def test_bench_orgs_cover_the_audit_cast(self):
        assert set(("OrgA", "OrgB", "OrgC", "OrgD", "OrgE")) == set(BENCH_ORGS)

    @pytest.mark.parametrize(
        "platform_name, workload", [("nowhere", "kv"), ("fabric", "nothing")]
    )
    def test_unknown_platform_or_workload_is_refused(self, platform_name, workload):
        with pytest.raises(PlatformError, match="unknown"):
            build_scenario(platform_name, workload, 1)


class TestCordaContractRules:
    """Each workload's Corda contract refuses its invalid output."""

    @pytest.mark.parametrize(
        "workload, invalid, refusal",
        [
            ("kv", lambda args: {**args, "value": -1}, "non-negative"),
            ("trades",
             lambda args: {**args, "value": {**args["value"], "notional": 0}},
             "notional must be positive"),
            ("loc", lambda args: {**args, "amount": 0}, "amount must be positive"),
        ],
        ids=("kv", "trades", "loc"),
    )
    def test_invalid_output_is_rejected(self, workload, invalid, refusal):
        scenario = build_scenario("corda", workload, 2, seed="corda-rules")
        valid = scenario.requests[0]
        receipts = scenario.platform.submit_many(
            [replace(valid, args=invalid(valid.args)), valid]
        )
        assert [r.status for r in receipts] == [
            "rejected:PlatformError", "committed",
        ]
        assert refusal in receipts[0].info["error"]
