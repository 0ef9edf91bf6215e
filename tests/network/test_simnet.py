"""Simulated network: delivery, observers, partitions, drops, stats."""

from __future__ import annotations

import pytest

from repro.common.clock import SimClock
from repro.common.errors import DeliveryError, DeliveryTimeout
from repro.common.rng import DeterministicRNG
from repro.common.serialization import canonical_bytes
from repro.faults.plan import FaultPlan
from repro.crypto.symmetric import Ciphertext
from repro.network.messages import Exposure, Refusal, payload_exposure
from repro.network.simnet import LatencyModel, Observer, SimNetwork, payload_size


def received(net, name) -> int:
    """How many messages reached *name* (its own observer counts them)."""
    return net.node(name).observer.messages_observed


def collect(net, name, *kinds) -> list:
    """Register handlers on *name* that record each arriving message."""
    arrived = []
    for kind in kinds:
        net.node(name).on(kind, arrived.append)
    return arrived


@pytest.fixture
def net():
    network = SimNetwork(rng=DeterministicRNG("net-test"))
    for name in ("A", "B", "C"):
        network.add_node(name)
    return network


class TestDelivery:
    def test_point_to_point(self, net):
        messages = collect(net, "B", "ping")
        net.send("A", "B", "ping", {"x": 1})
        net.run()
        assert len(messages) == 1
        assert messages[0].payload == {"x": 1}

    def test_broadcast_excludes_sender(self, net):
        net.broadcast("A", "announce", "hello")
        net.run()
        assert received(net, "B") == 1
        assert received(net, "C") == 1
        assert received(net, "A") == 0

    def test_broadcast_to_explicit_recipients(self, net):
        net.broadcast("A", "announce", "hello", recipients=["B"])
        net.run()
        assert received(net, "B") == 1
        assert received(net, "C") == 0

    def test_unknown_recipient_rejected(self, net):
        with pytest.raises(DeliveryError, match="unknown recipient"):
            net.send("A", "Z", "ping", {})

    def test_duplicate_node_rejected(self, net):
        with pytest.raises(DeliveryError, match="already exists"):
            net.add_node("A")

    def test_delivery_order_respects_latency(self):
        net = SimNetwork(
            rng=DeterministicRNG("order"),
            latency=LatencyModel(base=0.01, jitter=0.0),
        )
        net.add_node("A")
        net.add_node("B")
        arrived = collect(net, "B", "first", "second")
        net.send("A", "B", "first", 1)
        net.clock.advance(1.0)
        net.send("A", "B", "second", 2)
        net.run()
        kinds = [m.kind for m in arrived]
        assert kinds == ["first", "second"]

    def test_clock_advances_with_deliveries(self, net):
        before = net.clock.now
        net.send("A", "B", "ping", {})
        net.run()
        assert net.clock.now > before

    def test_handlers_invoked(self, net):
        received = []
        net.node("B").on("ping", lambda m: received.append(m.payload))
        net.send("A", "B", "ping", 42)
        net.run()
        assert received == [42]

    def test_handlers_dispatch_by_kind(self, net):
        xs, ys = collect(net, "B", "x"), collect(net, "B", "y")
        net.send("A", "B", "x", 1)
        net.send("A", "B", "y", 2)
        net.send("A", "B", "z", 3)  # no handler: observed, then dropped
        net.run()
        assert [m.payload for m in xs] == [1]
        assert [m.payload for m in ys] == [2]
        assert received(net, "B") == 3

    def test_link_delivers_in_send_order(self):
        # Jitter larger than the gap between sends would reorder messages
        # on an unordered network; a link is an ordered stream.
        net = SimNetwork(
            rng=DeterministicRNG("fifo"),
            latency=LatencyModel(base=0.005, jitter=0.05),
        )
        for name in ("A", "B"):
            net.add_node(name)
        arrived = collect(net, "B", "n")
        for n in range(20):
            net.send("A", "B", "n", n)
        net.run()
        assert [m.payload for m in arrived] == list(range(20))


class Declared:
    """A test payload that declares what it reveals, and counts how often
    the network asks."""

    def __init__(self, **exposure) -> None:
        self._exposure = Exposure.of(**exposure)
        self.asked = 0

    @property
    def exposure(self) -> Exposure:
        self.asked += 1
        return self._exposure

    def wire_size(self) -> int:
        return 1


class TestObservers:
    def test_tap_sees_all_traffic(self, net):
        tap = net.add_tap(Observer("wiretap"))
        net.send("A", "B", "tx", Declared(identities={"A", "B"}))
        net.send("B", "C", "tx", Declared(data_keys={"price"}))
        net.run()
        assert tap.seen_identities == {"A", "B"}
        assert tap.seen_data_keys == {"price"}
        assert tap.messages_observed == 2

    def test_node_observer_sees_inbound_only(self, net):
        net.send("A", "B", "tx", Declared(identities={"A"}))
        net.run()
        assert net.node("B").observer.seen_identities == {"A"}
        assert net.node("C").observer.seen_identities == set()

    def test_empty_exposure_reveals_nothing(self, net):
        tap = net.add_tap(Observer("wiretap"))
        net.send("A", "B", "tx", {"secret": 1})
        net.run()
        assert tap.seen_identities == set()
        assert tap.seen_data_keys == set()

    def test_knowledge_snapshot(self, net):
        tap = net.add_tap(Observer("wiretap"))
        net.send("A", "B", "tx", Declared(code_ids={"cc"}))
        net.run()
        snapshot = tap.knowledge()
        assert snapshot["code_ids"] == ["cc"]
        assert snapshot["messages_observed"] == 1


class TestPayloadExposure:
    """Pins: a message exposes what its payload declares, derived by the
    network once per send or broadcast."""

    def test_message_carries_the_payload_exposure(self, net):
        message = net.send("A", "B", "tx", Declared(identities={"A"}))
        assert message.exposure == Exposure.of(identities={"A"})

    def test_tuple_reveals_the_union_of_its_items(self, net):
        payload = (
            "label", 7,
            (Declared(identities={"A"}), Declared(data_keys={"k"})),
            Declared(identities={"B"}, code_ids={"cc"}),
        )
        assert payload_exposure(payload) == Exposure.of(
            identities={"A", "B"}, data_keys={"k"}, code_ids={"cc"}
        )
        assert net.send("A", "B", "tx", payload).exposure == payload_exposure(payload)

    @pytest.mark.parametrize("payload", [
        "alice", 42, None, True, {"secret": 1}, ("a", 1, None),
        Refusal(ValueError("no")),
        Ciphertext(nonce=b"\x00" * 16, body=b"secret", tag=b"\x01" * 32),
    ])
    def test_opaque_payloads_reveal_nothing(self, payload):
        assert payload_exposure(payload) == Exposure()

    def test_broadcast_derives_the_exposure_once(self, net):
        payload = Declared(identities={"A"})
        messages = net.broadcast("A", "tx", payload)
        net.run()
        assert payload.asked == 1
        assert [m.exposure for m in messages] == [payload._exposure] * 2
        for name in ("B", "C"):
            assert net.node(name).observer.seen_identities == {"A"}

    def test_send_derives_the_exposure_once(self, net):
        payload = Declared(identities={"A"})
        net.send("A", "B", "tx", payload)
        net.run()
        assert payload.asked == 1


class TestFaults:
    def test_partition_blocks_send(self, net):
        net.partition("A", "B")
        with pytest.raises(DeliveryError, match="partition"):
            net.send("A", "B", "ping", {})

    def test_partition_is_symmetric(self, net):
        net.partition("A", "B")
        with pytest.raises(DeliveryError):
            net.send("B", "A", "ping", {})

    def test_partition_leaves_other_links(self, net):
        net.partition("A", "B")
        net.send("A", "C", "ping", {})
        net.run()
        assert received(net, "C") == 1

    def test_heal_restores_link(self, net):
        net.partition("A", "B")
        net.heal("A", "B")
        net.send("A", "B", "ping", {})
        net.run()
        assert received(net, "B") == 1

    def test_message_drops(self):
        net = SimNetwork(
            rng=DeterministicRNG("drops"),
            fault_plan=FaultPlan().set_default_loss(1.0),
        )
        net.add_node("A")
        net.add_node("B")
        net.send("A", "B", "ping", {})
        net.run()
        assert received(net, "B") == 0
        assert net.stats.messages_dropped == 1

    def test_partial_drop_rate(self):
        net = SimNetwork(
            rng=DeterministicRNG("drops2"),
            fault_plan=FaultPlan().set_default_loss(0.5),
        )
        net.add_node("A")
        net.add_node("B")
        for __ in range(200):
            net.send("A", "B", "ping", {})
        net.run()
        delivered = received(net, "B")
        assert 50 < delivered < 150  # loose bounds around 100


class TestPartitionTiming:
    """Regression: partitions must cut traffic already in flight."""

    def test_partition_after_send_drops_in_flight_message(self, net):
        net.send("A", "B", "ping", {})
        net.partition("A", "B")  # created while the message is in flight
        net.run()
        assert received(net, "B") == 0
        assert net.stats.messages_dropped == 1
        assert net.stats.dropped_by_partition == 1
        assert net.stats.messages_delivered == 0

    def test_partition_drop_still_advances_clock(self, net):
        before = net.clock.now
        net.send("A", "B", "ping", {})
        net.partition("A", "B")
        assert net.step() is True  # the event is consumed, not delivered
        assert net.clock.now > before

    def test_heal_then_resend_delivers(self, net):
        net.send("A", "B", "ping", {})
        net.partition("A", "B")
        net.run()  # in-flight copy dies on the cut link
        net.heal("A", "B")
        net.send("A", "B", "ping", {})
        net.run()
        assert received(net, "B") == 1

    def test_drop_vs_partition_stats_are_distinct(self):
        net = SimNetwork(
            rng=DeterministicRNG("attrib"),
            fault_plan=FaultPlan().set_default_loss(1.0),
        )
        net.add_node("A")
        net.add_node("B")
        net.send("A", "B", "lost", {})  # probabilistic loss at send time
        net.fault_plan.set_default_loss(0.0)
        net.send("A", "B", "cut", {})
        net.partition("A", "B")  # partition drop at delivery time
        net.run()
        assert net.stats.dropped_by_loss == 1
        assert net.stats.dropped_by_partition == 1
        assert net.stats.messages_dropped == 2

    def test_timed_partition_heals_by_window_end(self, net):
        net.fault_plan = FaultPlan().partition_between("A", "B", start=0.0, end=1.0)
        with pytest.raises(DeliveryError, match="partition"):
            net.send("A", "B", "ping", {})
        net.clock.advance_to(1.0)
        net.send("A", "B", "ping", {})
        net.run()
        assert received(net, "B") == 1

    def test_message_sent_before_window_drops_inside_it(self, net):
        # Due time falls inside the partition window even though the send
        # happened before the window opened.
        net.latency = LatencyModel(base=0.5, jitter=0.0)
        net.fault_plan = FaultPlan().partition_between("A", "B", start=0.1, end=2.0)
        net.send("A", "B", "ping", {})  # sent at t=0, due at t=0.5
        net.run()
        assert received(net, "B") == 0
        assert net.stats.dropped_by_partition == 1


class TestBroadcastAtomicity:
    """Regression: a bad target mid-list must not leave a partial broadcast."""

    def test_unknown_target_queues_nothing(self, net):
        with pytest.raises(DeliveryError, match="unknown recipient"):
            net.broadcast("A", "announce", "x", recipients=["B", "Z", "C"])
        net.run()
        assert received(net, "B") == 0
        assert received(net, "C") == 0
        assert net.stats.messages_sent == 0

    def test_partitioned_target_queues_nothing(self, net):
        net.partition("A", "C")
        with pytest.raises(DeliveryError, match="partition"):
            net.broadcast("A", "announce", "x")
        net.run()
        assert received(net, "B") == 0
        assert net.stats.messages_sent == 0

    def test_crashed_target_queues_nothing(self, net):
        net.fault_plan = FaultPlan().crash_node("C", start=0.0, end=1.0)
        with pytest.raises(DeliveryError, match="down"):
            net.broadcast("A", "announce", "x")
        assert received(net, "B") == 0


class TestPayloadSizing:
    """One sizing rule: an object's own ``wire_size()``, the sum of a
    tuple's items, else the canonical JSON; nothing else is sized."""

    def test_nan_payload_raises_before_queueing(self, net):
        with pytest.raises(ValueError):
            net.send("A", "B", "ping", {"rate": float("nan")})
        net.run()
        assert received(net, "B") == 0
        assert net.stats.messages_sent == 0

    def test_unserializable_object_raises_before_queueing(self, net):
        with pytest.raises(TypeError):
            net.send("A", "B", "ping", object())
        assert net.stats.messages_sent == 0

    @pytest.mark.parametrize(
        "payload", ["", "tx:" + "f" * 64, 'quote " and \\ é', 0, -7, 10**30]
    )
    def test_scalar_is_sized_as_its_canonical_json(self, payload):
        assert payload_size(payload) == len(canonical_bytes(payload))

    def test_broadcast_sizes_payload_once(self, net, monkeypatch):
        sized = []
        payload_size = net._payload_size

        def counting_size(payload):
            sized.append(payload)
            return payload_size(payload)

        monkeypatch.setattr(net, "_payload_size", counting_size)
        payload = {"block": list(range(50))}
        messages = net.broadcast("A", "announce", payload)
        assert sized == [payload]
        assert [m.recipient for m in messages] == ["B", "C"]
        assert {m.size_bytes for m in messages} == {len(canonical_bytes(payload))}

    def test_unserializable_broadcast_queues_nothing(self, net):
        with pytest.raises(TypeError):
            net.broadcast("A", "announce", object())
        net.run()
        assert received(net, "B") == received(net, "C") == 0
        assert net.stats.messages_sent == 0
        assert net.stats.bytes_transferred == 0

    def test_object_reports_its_own_wire_size(self, net):
        class Sized:
            def wire_size(self):
                return 1234

        message = net.send("A", "B", "ping", Sized())
        assert message.size_bytes == 1234

    def test_tuple_is_the_sum_of_its_items(self, net):
        message = net.send("A", "B", "ping", (7, {"k": "v"}))
        assert message.size_bytes == len(canonical_bytes(7)) + len(
            canonical_bytes({"k": "v"})
        )


class TestResilientDelivery:
    def test_first_attempt_ack(self, net):
        receipt = net.send_with_retry("A", "B", "ping", {"x": 1})
        assert receipt.attempts == 1
        assert receipt.delivered_at == net.clock.now
        assert receipt.delivered_at > receipt.message.sent_at
        assert received(net, "B") == 1
        assert net.stats.retries == 0

    def test_retry_succeeds_after_partition_heals(self, net):
        # Link is cut for the first attempt's whole timeout window, then
        # heals; the second attempt must get through.
        net.fault_plan = FaultPlan().partition_between("A", "B", start=0.0, end=0.2)
        receipt = net.send_with_retry(
            "A", "B", "ping", {}, timeout=0.25, max_attempts=3
        )
        assert receipt.delivered_at >= 0.2
        assert receipt.attempts == 2
        assert net.stats.retries == 1

    def test_exhausted_attempts_raise_delivery_timeout(self, net):
        net.partition("A", "B")
        with pytest.raises(DeliveryTimeout, match="no acknowledgement"):
            net.send_with_retry("A", "B", "ping", {}, timeout=0.1, max_attempts=3)
        assert net.stats.retries == 2

    def test_silent_loss_surfaces_as_timeout(self):
        net = SimNetwork(
            rng=DeterministicRNG("lossy"),
            fault_plan=FaultPlan().set_default_loss(1.0),
        )
        net.add_node("A")
        net.add_node("B")
        with pytest.raises(DeliveryTimeout):
            net.send_with_retry("A", "B", "ping", {}, timeout=0.1, max_attempts=2)

    def test_unknown_recipient_fails_fast(self, net):
        before = net.clock.now
        with pytest.raises(DeliveryError, match="unknown recipient"):
            net.send_with_retry("A", "Z", "ping", {})
        assert net.clock.now == before  # no timeout was burned

    def test_backoff_widens_attempt_windows(self, net):
        net.partition("A", "B")
        with pytest.raises(DeliveryTimeout):
            net.send_with_retry(
                "A", "B", "ping", {}, timeout=0.1, max_attempts=3
            )
        # 0.1 + 0.2 + 0.4 of simulated waiting.
        assert net.clock.now == pytest.approx(0.7)

    def test_retry_does_not_duplicate_delivery(self, net):
        receipt = net.send_with_retry("A", "B", "ping", {}, max_attempts=3)
        net.run()
        assert receipt.attempts == 1
        assert received(net, "B") == 1


class TestFaultPlanThreading:
    def test_link_loss_drops_and_attributes(self):
        plan = FaultPlan().set_link_loss("A", "B", 1.0)
        net = SimNetwork(rng=DeterministicRNG("linkloss"), fault_plan=plan)
        net.add_node("A")
        net.add_node("B")
        net.add_node("C")
        net.send("A", "B", "ping", {})
        net.send("A", "C", "ping", {})  # unaffected link
        net.run()
        assert received(net, "B") == 0
        assert received(net, "C") == 1
        assert net.stats.dropped_by_loss == 1

    def test_latency_multiplier_slows_link(self):
        plan = FaultPlan().slow_link("A", "B", 10.0)
        net = SimNetwork(
            rng=DeterministicRNG("slow"),
            latency=LatencyModel(base=0.01, jitter=0.0),
            fault_plan=plan,
        )
        net.add_node("A")
        net.add_node("B")
        net.send("A", "B", "ping", {})
        net.run()
        assert net.clock.now == pytest.approx(0.1)

    def test_crash_window_refuses_sends(self, net):
        net.fault_plan = FaultPlan().crash_node("B", start=0.0, end=1.0)
        with pytest.raises(DeliveryError, match="down"):
            net.send("A", "B", "ping", {})
        with pytest.raises(DeliveryError, match="down"):
            net.send("B", "A", "ping", {})
        net.clock.advance_to(1.0)
        net.send("A", "B", "ping", {})  # recovered
        net.run()
        assert received(net, "B") == 1

    def test_crash_at_delivery_time_drops_in_flight(self, net):
        net.latency = LatencyModel(base=0.5, jitter=0.0)
        net.fault_plan = FaultPlan().crash_node("B", start=0.1, end=2.0)
        net.send("A", "B", "ping", {})  # sent at t=0 while B is still up
        net.run()
        assert received(net, "B") == 0
        assert net.stats.dropped_by_crash == 1

    def test_zero_loss_plan_keeps_rng_stream_identical(self):
        # Privacy-invariance prerequisite: attaching a plan with no loss
        # must not consume extra RNG draws, so faulted and clean runs with
        # the same seed see identical latencies.
        def deliveries(plan):
            net = SimNetwork(rng=DeterministicRNG("stream"), fault_plan=plan)
            net.add_node("A")
            net.add_node("B")
            times = []
            for __ in range(5):
                net.send("A", "B", "ping", {})
                net.run()
                times.append(net.clock.now)
            return times

        assert deliveries(None) == deliveries(FaultPlan())


class TestStats:
    def test_counters(self, net):
        net.send("A", "B", "ping", {"data": "x"})
        net.send("A", "C", "ping", {"data": "y"})
        net.run()
        assert net.stats.messages_sent == 2
        assert net.stats.messages_delivered == 2
        assert net.stats.bytes_transferred > 0

    def test_step_returns_false_when_empty(self, net):
        assert net.step() is False


class TestBoundCounters:
    """The per-message metrics are bound once per network, lazily."""

    HOT = (
        "net.messages_sent",
        "net.messages_delivered",
        "net.bytes_transferred",
        "net.sent_by_kind{kind=ping}",
    )

    def test_warm_sends_look_up_no_metric(self, net, monkeypatch):
        net.send("A", "B", "ping", {"x": 1})
        net.run()
        registry = net.telemetry.metrics
        lookups = []
        for accessor in ("counter", "histogram"):
            original = getattr(registry, accessor)
            monkeypatch.setattr(
                registry, accessor,
                lambda *a, _original=original, **k: lookups.append(a) or _original(*a, **k),
            )
        for __ in range(5):
            net.send("A", "B", "ping", {"x": 1})
            net.broadcast("A", "ping", {"x": 2}, recipients=["B", "C"])
        net.run()
        assert lookups == []
        counters = registry.snapshot()["counters"]
        assert counters["net.messages_sent"] == 16
        assert counters["net.sent_by_kind{kind=ping}"] == 16
        assert counters["net.messages_delivered"] == 16
        assert registry.snapshot()["histograms"]["net.delivery_latency"]["count"] == 16

    def test_no_series_before_the_first_message(self, net):
        snapshot = net.telemetry.metrics.snapshot()
        assert not any(name.startswith("net.") for name in snapshot["counters"])
        assert not snapshot["histograms"]


class TestActingOn:
    def test_outer_cause_is_restored_when_the_block_raises(self, net):
        outer = net.send("A", "B", "ping", {})
        inner = net.send("A", "C", "ping", {})
        with net.acting_on(outer):
            with pytest.raises(RuntimeError):
                with net.acting_on(inner):
                    raise RuntimeError("handler failed")
            assert net.send("B", "C", "ping", {}).caused_by == outer.message_id
        assert net.send("A", "B", "ping", {}).caused_by is None
