"""Capability probes: every platform answers every Table 1 row."""

from __future__ import annotations

import pytest

from repro.core.mechanisms import Mechanism, all_mechanisms
from repro.core.matrix import PAPER_TABLE_1
from repro.core.probe import COLUMNS, SHARED_PROBES, probe, probe_column
from repro.platforms.base import SupportLevel
from repro.platforms.corda import CordaNetwork
from repro.platforms.fabric import FabricNetwork
from repro.platforms.quorum import PrivateTransactionManager, QuorumNetwork


@pytest.fixture(scope="module")
def probe_results():
    platforms = [
        FabricNetwork(seed="probes-f"),
        CordaNetwork(seed="probes-c"),
        QuorumNetwork(seed="probes-q"),
    ]
    return {p.platform_name: probe_column(p) for p in platforms}


class TestCoverage:
    def test_every_platform_answers_every_mechanism(self, probe_results):
        for platform, results in probe_results.items():
            assert set(results) == set(all_mechanisms())

    def test_results_carry_evidence(self, probe_results):
        for results in probe_results.values():
            for result in results.values():
                assert result.evidence
                assert len(result.evidence) > 20

    def test_most_probes_are_exercised(self, probe_results):
        """The matrix should rest on executed code, not opinion."""
        for platform, results in probe_results.items():
            exercised = sum(1 for r in results.values() if r.exercised)
            assert exercised >= len(results) - 4, platform

    def test_unexercised_cells_are_exactly_the_constant_rows(self, probe_results):
        """A probe that silently became a constant row changes this set."""
        expected = {
            "fabric": {Mechanism.OPEN_SOURCE},
            "corda": {
                Mechanism.INSTALL_ON_INVOLVED_NODES,
                Mechanism.TRUSTED_EXECUTION_ENVIRONMENT,
                Mechanism.OPEN_SOURCE,
            },
            "quorum": {
                Mechanism.ZKP_OF_IDENTITY,
                Mechanism.OFF_CHAIN_EXECUTION_ENGINE,
                Mechanism.TRUSTED_EXECUTION_ENVIRONMENT,
                Mechanism.OPEN_SOURCE,
            },
        }
        for platform, results in probe_results.items():
            unexercised = {m for m, r in results.items() if not r.exercised}
            assert unexercised == expected[platform], platform


class TestAgreementWithPaper:
    @pytest.mark.parametrize("platform", ["fabric", "corda", "quorum"])
    def test_column_matches_paper(self, probe_results, platform):
        for mechanism in all_mechanisms():
            expected = PAPER_TABLE_1[(platform, mechanism)]
            actual = probe_results[platform][mechanism].level
            assert actual == expected, (
                f"{platform}/{mechanism.value}: paper {expected.value!r}, "
                f"probe {actual.value!r}"
            )


class TestKeyDifferentiators:
    """The cells that distinguish the platforms, asserted individually."""

    def test_only_fabric_has_native_zkp_identity(self, probe_results):
        levels = {
            p: probe_results[p][Mechanism.ZKP_OF_IDENTITY].level
            for p in probe_results
        }
        assert levels["fabric"] is SupportLevel.NATIVE
        assert levels["corda"] is SupportLevel.REWRITE
        assert levels["quorum"] is SupportLevel.REWRITE

    def test_only_corda_has_native_one_time_keys(self, probe_results):
        levels = {
            p: probe_results[p][Mechanism.ONE_TIME_PUBLIC_KEYS].level
            for p in probe_results
        }
        assert levels["corda"] is SupportLevel.NATIVE
        assert levels["fabric"] is SupportLevel.REWRITE
        assert levels["quorum"] is SupportLevel.IMPLEMENTABLE

    def test_only_corda_has_native_tear_offs(self, probe_results):
        levels = {
            p: probe_results[p][Mechanism.MERKLE_TEAR_OFFS].level
            for p in probe_results
        }
        assert levels["corda"] is SupportLevel.NATIVE
        assert levels["fabric"] is SupportLevel.IMPLEMENTABLE
        assert levels["quorum"] is SupportLevel.REWRITE

    def test_tee_universally_requires_rewrite(self, probe_results):
        for platform in probe_results:
            assert (
                probe_results[platform][Mechanism.TRUSTED_EXECUTION_ENVIRONMENT].level
                is SupportLevel.REWRITE
            )

    def test_advanced_crypto_universally_implementable(self, probe_results):
        for platform in probe_results:
            for mechanism in (
                Mechanism.ZKP_ON_DATA,
                Mechanism.MULTIPARTY_COMPUTATION,
                Mechanism.HOMOMORPHIC_ENCRYPTION,
            ):
                assert (
                    probe_results[platform][mechanism].level
                    is SupportLevel.IMPLEMENTABLE
                )

    def test_corda_install_scoping_not_applicable(self, probe_results):
        assert (
            probe_results["corda"][Mechanism.INSTALL_ON_INVOLVED_NODES].level
            is SupportLevel.NOT_APPLICABLE
        )

    def test_everyone_separates_ledgers(self, probe_results):
        for platform in probe_results:
            for mechanism in (
                Mechanism.SEPARATION_OF_LEDGERS_PARTIES,
                Mechanism.SEPARATION_OF_LEDGERS_DATA,
            ):
                assert probe_results[platform][mechanism].level is SupportLevel.NATIVE


class TestTables:
    @pytest.mark.parametrize("platform", ["fabric", "corda", "quorum"])
    def test_column_and_shared_rows_partition_the_mechanisms(self, platform):
        column = set(COLUMNS[platform])
        assert not column & set(SHARED_PROBES)
        assert column | set(SHARED_PROBES) == set(all_mechanisms())


def _raise_runtime_error(*args, **kwargs):
    raise RuntimeError("unrelated failure inside the probed call")


def _break_fabric_membership(monkeypatch, net):
    monkeypatch.setattr(
        net.membership, "verify_member_signature", _raise_runtime_error
    )


def _break_quorum_resolve_of_deleted(monkeypatch, net):
    original = PrivateTransactionManager.resolve

    def resolve(self, payload_hash):
        if not self.has_payload(payload_hash):
            raise RuntimeError("unrelated failure inside the probed call")
        return original(self, payload_hash)

    monkeypatch.setattr(PrivateTransactionManager, "resolve", resolve)


class TestProbesReportOnlyTheArchitecturalError:
    """A probe rates a cell '-' only on the error the architecture
    raises (``CertificateError`` for an unenrolled subject,
    ``PrivacyError`` for a deleted payload); any other failure of the
    probed code propagates instead of passing for the paper's answer."""

    @pytest.mark.parametrize(
        ("factory", "mechanism", "break_call"),
        [
            (FabricNetwork, Mechanism.ONE_TIME_PUBLIC_KEYS,
             _break_fabric_membership),
            (QuorumNetwork, Mechanism.OFF_CHAIN_PEER_DATA,
             _break_quorum_resolve_of_deleted),
        ],
        ids=["fabric-one-time-keys", "quorum-off-chain-peer-data"],
    )
    def test_unrelated_error_propagates(
        self, monkeypatch, factory, mechanism, break_call
    ):
        net = factory(seed="probe-crash")
        break_call(monkeypatch, net)
        with pytest.raises(RuntimeError, match="unrelated failure"):
            probe(net, mechanism)

    def test_fabric_rates_native_only_if_verification_returns_true(
        self, monkeypatch
    ):
        net = FabricNetwork(seed="probe-false")
        monkeypatch.setattr(
            net.membership, "verify_member_signature", lambda *a, **k: False
        )
        result = probe(net, Mechanism.ONE_TIME_PUBLIC_KEYS)
        assert result.level is SupportLevel.REWRITE
