"""Command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import (
    PLATFORM_NAMES,
    WORKLOAD_NAMES,
    build_parser,
    main,
    requirements_from_json,
)
from repro.core.mechanisms import Mechanism
from repro.core.requirements import InteractionPrivacy


class TestFigure1Command:
    def test_deletion_path(self, capsys):
        assert main(["figure1", "--deletion-required"]) == 0
        out = capsys.readouterr().out
        assert "Off-chain peer data" in out

    def test_mpc_path(self, capsys):
        assert main([
            "figure1", "--private-from-counterparties", "--shared-function",
        ]) == 0
        assert "Multiparty computation" in capsys.readouterr().out

    def test_tearoff_path(self, capsys):
        assert main([
            "figure1", "--no-encrypted-sharing", "--partial-visibility",
        ]) == 0
        out = capsys.readouterr().out
        assert "Separation of ledgers" in out
        assert "Merkle trees and tear-offs" in out

    def test_untrusted_orderer_adds_encryption(self, capsys):
        assert main(["figure1", "--untrusted-orderer"]) == 0
        assert "Symmetric keys" in capsys.readouterr().out


class TestDesignCommand:
    def test_design_from_file(self, tmp_path, capsys):
        spec = {
            "name": "cli-case",
            "interaction_privacy": "group-private",
            "data_classes": [
                {"name": "pii", "deletion_required": True},
                {"name": "trade"},
            ],
            "logic": {"keep_logic_private": True},
            "deployment": {"ordering_service_trusted": False},
        }
        path = tmp_path / "req.json"
        path.write_text(json.dumps(spec))
        assert main(["design", str(path)]) == 0
        out = capsys.readouterr().out
        assert "# Privacy & confidentiality design: cli-case" in out
        assert "Off-chain peer data" in out

    def test_requirements_from_json_round_trip(self):
        requirements = requirements_from_json({
            "name": "x",
            "interaction_privacy": "individual-anonymous",
            "data_classes": [{"name": "d", "uninvolved_validation_required": True}],
        })
        assert requirements.interaction_privacy is InteractionPrivacy.INDIVIDUAL_ANONYMOUS
        assert requirements.data_class("d").uninvolved_validation_required


class TestAuditCommand:
    def test_audit_prints_all_platforms(self, capsys):
        assert main(["audit"]) == 0
        out = capsys.readouterr().out
        for platform in ("fabric", "corda", "quorum"):
            assert platform in out
        assert "participant_list_broadcast" in out


class TestTable1Command:
    def test_table1_agrees_and_exits_zero(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "agreement: 45/45" in out


class TestParser:
    def test_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_subcommand_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_choices_name_every_platform_and_workload(self):
        from repro.driver.scenarios import WORKLOADS
        from repro.platforms import PLATFORMS

        assert PLATFORM_NAMES == tuple(PLATFORMS)
        assert WORKLOAD_NAMES == tuple(WORKLOADS)


class TestThreatsCommand:
    def test_threats_matrix(self, tmp_path, capsys):
        spec = {
            "name": "threat-cli",
            "interaction_privacy": "group-private",
            "data_classes": [{"name": "d"}],
        }
        path = tmp_path / "req.json"
        path.write_text(json.dumps(spec))
        assert main(["threats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "EXPOSED" in out and "covered" in out
        assert "ordering-operator" in out


class TestRecoverCommand:
    def test_recover_default_platform_passes(self, capsys):
        assert main(["recover"]) == 0
        out = capsys.readouterr().out
        assert "recovery scenario: fabric" in out
        assert "CONVERGED" in out
        assert "verdict: OK" in out

    def test_recover_corda_json(self, capsys):
        assert main(["recover", "--platform", "corda", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["platform"] == "corda"
        assert payload["converged"] is True
        assert payload["leak_ok"] is True
        assert payload["divergences"] == []

    def test_recover_rejects_unknown_platform(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["recover", "--platform", "besu"])


class TestConvergeCommand:
    def test_converge_gate_passes_all_platforms(self, capsys):
        assert main(["converge"]) == 0
        out = capsys.readouterr().out
        for platform in ("fabric", "corda", "quorum"):
            assert f"recovery scenario: {platform}" in out
        assert "convergence gate: PASS" in out

    def test_converge_single_platform_json(self, capsys):
        assert main(["converge", "--platform", "quorum", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [r["platform"] for r in payload] == ["quorum"]
        assert all(r["ok"] for r in payload)


class TestBenchCommand:
    def test_bench_default_kv_on_fabric(self, capsys):
        assert main(["bench", "--ops", "10", "--batch", "5"]) == 0
        out = capsys.readouterr().out
        assert "driver run on fabric" in out
        assert "throughput" in out
        assert "signature_verify" in out

    def test_bench_json_payload(self, capsys):
        assert main([
            "bench", "--platform", "quorum", "--workload", "trades",
            "--ops", "6", "--batch", "3", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["platform"] == "quorum"
        assert payload["workload"] == "trades"
        assert payload["operations"] == 6
        assert payload["failed"] == 0
        assert "cache_stats" in payload

    def test_bench_loc_on_corda(self, capsys):
        assert main([
            "bench", "--platform", "corda", "--workload", "loc",
            "--ops", "4", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["committed"] == payload["operations"] > 0

    def test_bench_skew_changes_workload(self, capsys):
        assert main(["bench", "--ops", "12", "--skew", "2.0", "--json"]) == 0
        skewed = json.loads(capsys.readouterr().out)
        assert skewed["scenario"]["skew"] == 2.0

    def test_bench_no_force_cut_slows_drip_feed(self, capsys):
        assert main([
            "bench", "--ops", "5", "--batch", "1", "--no-force-cut", "--json",
        ]) == 0
        drip = json.loads(capsys.readouterr().out)
        assert main([
            "bench", "--ops", "5", "--batch", "5", "--json",
        ]) == 0
        batched = json.loads(capsys.readouterr().out)
        assert drip["force_cut"] is False
        assert batched["throughput_tps"] > drip["throughput_tps"]

    def test_bench_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            main(["bench", "--workload", "nope"])
