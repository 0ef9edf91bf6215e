"""Secret ballot via MPC, committed to a ledger.

Section 3.2 names the secret ballot as the canonical "shared function on
private values" workload: each member's vote stays private, MPC produces
the tally, and only the agreed result is committed to the shared ledger —
here a Fabric channel, so the full recommended stack (segregated ledger +
MPC) is exercised end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import MPCError
from repro.crypto.mpc import MPCStats, secret_ballot
from repro.execution.contracts import SmartContract
from repro.platforms.fabric import FabricNetwork


@dataclass
class BallotResult:
    """Tally plus protocol cost and the committing transaction id."""

    yes: int
    no: int
    passed: bool
    mpc_stats: MPCStats
    tx_id: str


@dataclass
class SecretBallotWorkflow:
    """A board vote among channel members with private individual votes."""

    members: tuple[str, ...]
    network: FabricNetwork = field(default_factory=lambda: FabricNetwork(seed="ballot"))
    channel_name: str = "board-channel"
    contract_id: str = "ballot-contract"
    _initialized: bool = False

    def setup(self) -> None:
        if len(self.members) < 2:
            raise MPCError("a ballot needs at least two voters")
        for member in self.members:
            self.network.onboard(member)
        self.network.create_channel(self.channel_name, list(self.members))

        def record_result(view, args):
            view.put(f"ballot/{args['motion']}", {
                "yes": args["yes"], "no": args["no"], "passed": args["passed"],
            })
            return args["passed"]

        contract = SmartContract(
            contract_id=self.contract_id, version=1,
            language="python-chaincode",
            functions={"record": record_result},
        )
        self.network.deploy_chaincode(
            self.channel_name, contract, list(self.members)
        )
        self._initialized = True

    def _transmit_protocol_traffic(self, stats: MPCStats) -> None:
        """Replay the MPC message pattern over the simulated network.

        Each share and partial sum is an individually-uniform field
        element, so its payload declares nothing and every message
        reveals nothing — which is the point: the leakage audit can
        confirm that running the ballot exposes nothing to taps or
        uninvolved nodes.
        """
        net = self.network.network
        members = list(self.members)
        # Round 1: one private share from every member to every member.
        for sender in members:
            for receiver in members:
                if sender != receiver:
                    net.send(sender, receiver, "mpc-share", {"blob": "share"})
        # Round 2: every member broadcasts its partial sum to the others.
        for sender in members:
            net.broadcast(sender, "mpc-partial", {"blob": "partial"},
                          recipients=members)

    def vote(self, motion: str, votes: dict[str, bool]) -> BallotResult:
        """Run the MPC tally off-chain, then commit only the result.

        Raw votes never reach the platform: the MPC protocol runs between
        the members (its traffic is replayed over the simulated network
        for leakage accounting), and the chaincode records the aggregate.
        """
        if not self._initialized:
            raise RuntimeError("call setup() first")
        if set(votes) != set(self.members):
            raise MPCError("every member must cast a vote")
        tally, stats = secret_ballot(votes)
        self._transmit_protocol_traffic(stats)
        result = self.network.invoke(
            self.channel_name, self.members[0], self.contract_id, "record",
            {"motion": motion, **tally},
        )
        return BallotResult(
            yes=tally["yes"], no=tally["no"], passed=tally["passed"],
            mpc_stats=stats, tx_id=result.tx.tx_id,
        )

    def recorded_outcome(self, motion: str, viewer: str) -> dict:
        """Any member can read the committed aggregate (not the votes)."""
        channel = self.network.channel(self.channel_name)
        return channel.state_of(viewer).get(f"ballot/{motion}")
