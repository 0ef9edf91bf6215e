"""Leakage audit: the Section 5 claims, quantified and asserted."""

from __future__ import annotations

import pytest

from repro.core.audit import (
    audit_all,
    audit_corda,
    audit_fabric,
    audit_quorum,
)


@pytest.fixture(scope="module")
def reports():
    return {r.platform: r for r in audit_all(seed="test-audit")}


class TestFabricClaims:
    def test_uninvolved_orgs_learn_nothing(self, reports):
        report = reports["fabric"]
        assert report.uninvolved_identity_leaks() == 0
        assert report.uninvolved_data_leaks() == 0

    def test_orderer_sees_parties_and_data(self, reports):
        """'the ordering service has full visibility of channel members as
        well as all transactions' (Section 5)."""
        ordering = reports["fabric"].ordering_principal
        assert ordering.learned_trading_identities == {"OrgA", "OrgB"}
        assert ordering.learned_confidential_data

    def test_validated_ledger_blocks_double_spend(self, reports):
        assert reports["fabric"].validated_double_spend_rejected


class TestCordaClaims:
    def test_full_isolation_of_uninvolved(self, reports):
        report = reports["corda"]
        assert report.uninvolved_identity_leaks() == 0
        assert report.uninvolved_data_leaks() == 0

    def test_non_validating_notary_blind(self, reports):
        """With tear-offs, the notary learns neither parties nor data."""
        ordering = reports["corda"].ordering_principal
        assert ordering.learned_trading_identities == set()
        assert not ordering.learned_confidential_data

    def test_notary_still_blocks_double_spend(self, reports):
        assert reports["corda"].validated_double_spend_rejected


class TestQuorumClaims:
    def test_participant_list_broadcast(self, reports):
        """'the public ledger includes private transactions, including the
        list of participants' (Section 5)."""
        report = reports["quorum"]
        assert report.participant_list_broadcast
        assert report.uninvolved_identity_leaks() == 6  # 2 ids x 3 outsiders

    def test_private_payload_stays_confidential(self, reports):
        assert reports["quorum"].uninvolved_data_leaks() == 0

    def test_private_double_spend_succeeds(self, reports):
        """'it does not prevent the double spending of assets' (Section 5)."""
        assert reports["quorum"].private_double_spend_succeeded

    def test_public_double_spend_rejected(self, reports):
        assert reports["quorum"].validated_double_spend_rejected


class TestCrossPlatformShape:
    """The relative ordering the paper's narrative implies."""

    def test_corda_ordering_principal_blindest(self, reports):
        fabric_sees = len(reports["fabric"].ordering_principal.identities)
        corda_sees = len(reports["corda"].ordering_principal.identities)
        assert corda_sees < fabric_sees

    def test_quorum_leaks_most_identities_to_uninvolved(self, reports):
        leaks = {
            p: reports[p].uninvolved_identity_leaks()
            for p in ("fabric", "corda", "quorum")
        }
        assert leaks["quorum"] > leaks["fabric"] == leaks["corda"] == 0

    def test_no_platform_leaks_confidential_data_to_uninvolved(self, reports):
        for report in reports.values():
            assert report.uninvolved_data_leaks() == 0

    def test_summary_rows_complete(self, reports):
        for report in reports.values():
            row = report.summary_row()
            assert set(row) == {
                "platform",
                "uninvolved_identity_leaks",
                "uninvolved_data_leaks",
                "orderer_sees_identities",
                "orderer_sees_data",
                "participant_list_broadcast",
                "private_double_spend_succeeded",
                "validated_double_spend_rejected",
            }


class TestOneAccountPerPrincipal:
    """The L1 ordering-principal row is what the principal's own network
    nodes were delivered, and nothing else keeps a second account."""

    @pytest.mark.parametrize("platform", ["fabric", "corda", "quorum"])
    def test_ordering_knowledge_is_the_union_of_node_observers(
        self, monkeypatch, platform
    ):
        import repro.core.audit as audit
        from repro.network.simnet import Observer

        network_type = {
            "fabric": audit.FabricNetwork,
            "corda": audit.CordaNetwork,
            "quorum": audit.QuorumNetwork,
        }[platform]
        built = []

        class Capturing(network_type):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(audit, network_type.__name__, Capturing)
        seen = {}
        knowledge_of = audit._knowledge_of

        def spy(name, observers):
            observers = list(observers)
            seen[name] = (
                observers,
                set().union(*(o.seen_identities for o in observers)),
                set().union(*(o.seen_data_keys for o in observers)),
            )
            return knowledge_of(name, observers)

        monkeypatch.setattr(audit, "_knowledge_of", spy)
        report = getattr(audit, f"audit_{platform}")(seed="one-account")
        (net,) = built
        principal = net.ordering
        ordering = report.ordering_principal
        observers, identities, data_keys = seen[ordering.principal]
        nodes = [net.network.node(name).observer for name in principal.replicas]
        assert len(observers) == len(nodes)
        assert all(a is b for a, b in zip(observers, nodes))
        assert ordering.identities == identities
        assert ordering.data_keys == data_keys
        assert not hasattr(principal, "observer")
        assert not any(isinstance(v, Observer) for v in vars(principal).values())
