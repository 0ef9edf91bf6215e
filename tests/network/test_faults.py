"""FaultPlan: windows, builders, and the pure queries the substrate uses;
and the substrate's healthy fast path, which must agree with them."""

from __future__ import annotations

import pytest

from repro.common.errors import DeliveryError, NetworkError
from repro.common.rng import DeterministicRNG
from repro.faults.plan import FaultPlan, Window
from repro.network.simnet import SimNetwork
from repro.platforms.quorum import QuorumNetwork
from repro.telemetry.tracing import TraceContext


class TestWindow:
    def test_default_window_is_forever(self):
        window = Window()
        assert window.contains(0.0)
        assert window.contains(1e9)

    def test_half_open_semantics(self):
        window = Window(1.0, 2.0)
        assert not window.contains(0.999)
        assert window.contains(1.0)
        assert window.contains(1.999)
        assert not window.contains(2.0)  # heals exactly at end

    def test_negative_start_rejected(self):
        with pytest.raises(NetworkError):
            Window(-1.0, 2.0)

    def test_inverted_window_rejected(self):
        with pytest.raises(NetworkError):
            Window(3.0, 1.0)


class TestLoss:
    def test_default_loss_applies_everywhere(self):
        plan = FaultPlan().set_default_loss(0.25)
        assert plan.loss_probability("A", "B") == 0.25
        assert plan.loss_probability("X", "Y") == 0.25

    def test_link_loss_overrides_default(self):
        plan = FaultPlan().set_default_loss(0.1).set_link_loss("A", "B", 0.9)
        assert plan.loss_probability("A", "B") == 0.9
        assert plan.loss_probability("B", "A") == 0.9  # symmetric
        assert plan.loss_probability("A", "C") == 0.1

    def test_invalid_probability_rejected(self):
        with pytest.raises(NetworkError):
            FaultPlan().set_default_loss(1.5)
        with pytest.raises(NetworkError):
            FaultPlan().set_link_loss("A", "B", -0.1)


class TestLatency:
    def test_no_faults_means_unit_multiplier(self):
        assert FaultPlan().latency_multiplier("A", "B", 0.0) == 1.0

    def test_link_and_global_multipliers_compose(self):
        plan = FaultPlan().slow_link("A", "B", 2.0).slow_all(3.0)
        assert plan.latency_multiplier("A", "B", 0.0) == 6.0
        assert plan.latency_multiplier("A", "C", 0.0) == 3.0

    def test_multiplier_respects_window(self):
        plan = FaultPlan().slow_all(8.0, start=1.0, end=2.0)
        assert plan.latency_multiplier("A", "B", 0.5) == 1.0
        assert plan.latency_multiplier("A", "B", 1.5) == 8.0
        assert plan.latency_multiplier("A", "B", 2.0) == 1.0

    def test_nonpositive_factor_rejected(self):
        with pytest.raises(NetworkError):
            FaultPlan().slow_all(0.0)
        with pytest.raises(NetworkError):
            FaultPlan().slow_link("A", "B", -1.0)


class TestPartitionsAndCrashes:
    def test_partition_window(self):
        plan = FaultPlan().partition_between("A", "B", start=1.0, end=3.0)
        assert not plan.is_partitioned("A", "B", 0.5)
        assert plan.is_partitioned("A", "B", 2.0)
        assert plan.is_partitioned("B", "A", 2.0)  # symmetric
        assert not plan.is_partitioned("A", "B", 3.0)
        assert not plan.is_partitioned("A", "C", 2.0)

    def test_crash_windows_accumulate(self):
        plan = (
            FaultPlan()
            .crash_node("A", start=0.0, end=1.0)
            .crash_node("A", start=5.0, end=6.0)
        )
        assert plan.is_crashed("A", 0.5)
        assert not plan.is_crashed("A", 3.0)
        assert plan.is_crashed("A", 5.5)
        assert not plan.is_crashed("B", 0.5)

    def test_orderer_outage_is_separate_from_crash(self):
        plan = FaultPlan().orderer_outage("fabric-orderer", start=0.0, end=1.0)
        assert plan.orderer_down("fabric-orderer", 0.5)
        assert not plan.is_crashed("fabric-orderer", 0.5)
        assert not plan.orderer_down("fabric-orderer", 1.0)

    def test_open_ended_crash_never_recovers(self):
        plan = FaultPlan().crash_node("A", start=2.0)
        assert not plan.is_crashed("A", 1.0)
        assert plan.is_crashed("A", 1e12)


class TestDescribe:
    def test_describe_lists_every_fault(self):
        plan = (
            FaultPlan()
            .set_default_loss(0.1)
            .set_link_loss("A", "B", 0.5)
            .slow_all(2.0)
            .partition_between("A", "C", start=1.0, end=2.0)
            .crash_node("D", start=0.0, end=1.0)
            .orderer_outage("orderer", start=3.0)
        )
        text = plan.describe()
        assert "default_loss=0.1" in text
        assert "loss A-B: 0.5" in text
        assert "latency x2.0 on all links" in text
        assert "partition A-C [1.0, 2.0)" in text
        assert "crash D [0.0, 1.0)" in text
        assert "orderer outage orderer [3.0, inf)" in text

    def test_builders_chain(self):
        plan = FaultPlan()
        assert plan.set_default_loss(0.0) is plan
        assert plan.partition_between("A", "B") is plan


def three_nodes(seed: str = "fast-path") -> SimNetwork:
    net = SimNetwork(rng=DeterministicRNG(seed))
    for name in ("A", "B", "C"):
        net.add_node(name)
    return net


def arrival_times(net: SimNetwork, sends: int = 20) -> list[float]:
    """Send *sends* messages A -> B and return when each arrived."""
    arrived = []
    net.node("B").on("data", lambda message: arrived.append(net.clock.now))
    for n in range(sends):
        net.send("A", "B", "data", {"n": n})
    net.run()
    return arrived


def health_queries(monkeypatch, net: SimNetwork) -> list[str]:
    """Record every link or node health query *net* makes."""
    queries = []
    for name in ("is_partitioned", "is_crashed"):
        query = getattr(net, name)

        def spy(*args, name=name, query=query, **kwargs):
            queries.append(name)
            return query(*args, **kwargs)

        monkeypatch.setattr(net, name, spy)
    return queries


class TestHealthyFastPath:
    """A network with no plan, no cut and no crash skips its per-message
    health checks; every change of health must reach the next message."""

    def test_partition_after_send_drops_in_flight(self):
        net = three_nodes()
        net.send("A", "B", "data", {})
        net.partition("A", "B")
        net.run()
        assert net.stats.dropped_by_partition == 1
        assert net.node("B").observer.messages_observed == 0

    def test_crash_after_send_drops_in_flight(self):
        net = three_nodes()
        net.send("A", "B", "data", {})
        net.crash_node("B")
        net.run()
        assert net.stats.dropped_by_crash == 1
        assert net.node("B").observer.messages_observed == 0

    def test_heal_returns_to_fast_path(self, monkeypatch):
        cut, never_cut = three_nodes(), three_nodes()
        cut.partition("A", "C")
        with pytest.raises(DeliveryError, match="partition"):
            cut.send("A", "C", "data", {})
        cut.heal("A", "C")
        queries = health_queries(monkeypatch, cut)
        assert arrival_times(cut) == arrival_times(never_cut)
        assert queries == []
        assert cut.stats == never_cut.stats
        assert cut.rng.uniform(0, 1) == never_cut.rng.uniform(0, 1)

    def test_recover_returns_to_fast_path(self, monkeypatch):
        crashed, never_crashed = three_nodes(), three_nodes()
        crashed.crash_node("C")
        with pytest.raises(DeliveryError, match="down"):
            crashed.send("A", "C", "data", {})
        crashed.recover_node("C")
        queries = health_queries(monkeypatch, crashed)
        assert arrival_times(crashed) == arrival_times(never_crashed)
        assert queries == []
        assert crashed.stats == never_crashed.stats
        assert crashed.rng.uniform(0, 1) == never_crashed.rng.uniform(0, 1)

    def test_plan_injected_after_queueing_drops_at_delivery(self):
        platform = QuorumNetwork(seed="late-plan")
        platform.onboard("A")
        platform.onboard("B")
        net = platform.network
        net.send("A", "B", "data", {})
        platform.inject_faults(FaultPlan().crash_node("B"))
        net.run()
        assert net.stats.dropped_by_crash == 1
        assert net.node("B").observer.messages_observed == 0

    def test_builder_on_attached_plan_takes_effect_on_next_send(self):
        net = three_nodes()
        net.fault_plan = plan = FaultPlan()
        net.send("A", "B", "data", {})
        plan.crash_node("B")
        with pytest.raises(DeliveryError, match="down"):
            net.send("A", "B", "data", {})
        plan.partition_between("A", "C")
        with pytest.raises(DeliveryError, match="partition"):
            net.send("A", "C", "data", {})


class TestFastPathPin:
    """On a healthy network under the default ``NullTracer``, a send and
    its delivery consult no fault plan and decode no trace context."""

    @pytest.fixture
    def calls(self, monkeypatch) -> list[str]:
        calls = []
        queries = [
            name for name, member in vars(FaultPlan).items()
            if callable(member) and not name.startswith("__")
        ]
        for name in queries:
            method = getattr(FaultPlan, name)

            def spy(*args, name=name, method=method, **kwargs):
                calls.append(f"FaultPlan.{name}")
                return method(*args, **kwargs)

            monkeypatch.setattr(FaultPlan, name, spy)
        from_tuple = TraceContext.from_tuple

        def decode(pair):
            calls.append("TraceContext.from_tuple")
            return from_tuple(pair)

        monkeypatch.setattr(TraceContext, "from_tuple", staticmethod(decode))
        return calls

    def test_healthy_send_and_delivery_do_no_fault_or_trace_work(self, calls):
        net = three_nodes()
        net.send("A", "B", "data", {})
        assert net.run() == 1
        assert calls == []

    def test_the_spies_see_the_exact_path(self, calls):
        net = three_nodes()
        net.fault_plan = FaultPlan()
        tracer = net.telemetry.start_tracing()
        with tracer.span("call"):
            net.send("A", "B", "data", {})
        assert net.run() == 1
        assert {
            "FaultPlan.is_partitioned",
            "FaultPlan.is_crashed",
            "FaultPlan.loss_probability",
            "FaultPlan.latency_multiplier",
            "TraceContext.from_tuple",
        } <= set(calls)
