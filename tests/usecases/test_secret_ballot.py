"""Secret ballot: MPC tally on a segregated ledger."""

from __future__ import annotations

import pytest

from repro.common.errors import MPCError
from repro.usecases.secret_ballot import SecretBallotWorkflow


@pytest.fixture(scope="module")
def workflow():
    wf = SecretBallotWorkflow(members=("M1", "M2", "M3", "M4", "M5"))
    wf.setup()
    return wf


class TestBallot:
    def test_tally_correct(self, workflow):
        result = workflow.vote("m-1", {
            "M1": True, "M2": True, "M3": True, "M4": False, "M5": False,
        })
        assert (result.yes, result.no, result.passed) == (3, 2, True)

    def test_motion_fails_without_majority(self, workflow):
        result = workflow.vote("m-2", {
            "M1": True, "M2": False, "M3": False, "M4": False, "M5": True,
        })
        assert not result.passed

    def test_result_recorded_on_ledger(self, workflow):
        workflow.vote("m-3", {
            "M1": True, "M2": True, "M3": True, "M4": True, "M5": True,
        })
        outcome = workflow.recorded_outcome("m-3", "M5")
        assert outcome == {"yes": 5, "no": 0, "passed": True}

    def test_individual_votes_never_on_ledger(self, workflow):
        workflow.vote("m-4", {
            "M1": True, "M2": False, "M3": True, "M4": False, "M5": True,
        })
        channel = workflow.network.channel(workflow.channel_name)
        for tx in channel.chain.transactions():
            for write in tx.writes:
                # Only aggregates appear; no per-member vote mapping.
                if isinstance(write.value, dict):
                    assert "M1" not in write.value
                    assert set(write.value) <= {"yes", "no", "passed"}

    def test_mpc_stats_reported(self, workflow):
        result = workflow.vote("m-5", {
            "M1": True, "M2": True, "M3": False, "M4": False, "M5": False,
        })
        assert result.mpc_stats.rounds == 3
        assert result.mpc_stats.messages > 0

    def test_incomplete_votes_rejected(self, workflow):
        with pytest.raises(MPCError, match="every member"):
            workflow.vote("m-6", {"M1": True})

    def test_setup_required(self):
        wf = SecretBallotWorkflow(members=("A", "B"))
        with pytest.raises(RuntimeError, match="setup"):
            wf.vote("m", {"A": True, "B": False})

    def test_too_few_members_rejected(self):
        wf = SecretBallotWorkflow(members=("A",))
        with pytest.raises(MPCError, match="at least two"):
            wf.setup()


class TestNetworkTraffic:
    def test_mpc_traffic_crosses_the_wire(self, workflow):
        net = workflow.network.network
        before = net.stats.messages_sent
        workflow.vote("m-net", {
            "M1": True, "M2": False, "M3": True, "M4": False, "M5": True,
        })
        net.run()
        sent = net.stats.messages_sent - before
        n = len(workflow.members)
        # n(n-1) shares + n(n-1) partial broadcasts, plus the platform
        # messages for the committing transaction.
        assert sent >= 2 * n * (n - 1)

    def test_wiretap_learns_nothing_from_ballot(self, workflow):
        from repro.network import Observer

        tap = workflow.network.network.add_tap(Observer("ballot-tap"))
        workflow.vote("m-tap", {
            "M1": True, "M2": True, "M3": False, "M4": False, "M5": False,
        })
        # Shares and partial sums expose nothing; only the committing
        # transaction's channel traffic carries the (aggregate) key name.
        assert not any("M1" == i for i in tap.seen_data_keys)
        assert all(not k.startswith("vote") or k.startswith("ballot/")
                   for k in tap.seen_data_keys)
