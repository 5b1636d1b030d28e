"""Unit coverage for the fault-injection layer.

Injector semantics (link cuts, capacity renegotiation, reverse-path
impairment, route flips, flow churn) and the FaultSchedule contract
(ordering, applied-event log, misuse errors).  Integration-level
recovery behaviour lives in test_chaos_recovery.py.
"""

from __future__ import annotations

import pytest

from repro.core.feedback import RouterFeedback
from repro.core.session import PelsScenario, PelsSimulation
from repro.faults import (AckLoss, AckReorder, Callback, FaultEvent,
                          FaultSchedule, FlowJoin, FlowLeave, LinkCapacity,
                          LinkDown, LinkFlap, LinkUp, RouteFlip,
                          RouterRestart)
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.packet import Color, Packet


class _Catcher:
    """Minimal receiving node for raw-link tests."""

    name = "catcher"

    def __init__(self) -> None:
        self.packets = []

    def receive(self, packet) -> None:
        self.packets.append(packet)


def _packet(seq: int) -> Packet:
    return Packet(flow_id=0, size=1000, color=Color.GREEN, seq=seq,
                  created_at=0.0, dst=0)


def _link(sim: Simulator, rate_bps: float = 8_000_000.0) -> tuple:
    catcher = _Catcher()
    link = Link(sim, src="src", dst=catcher, rate_bps=rate_bps,
                delay=0.001, name="test-link")
    return link, catcher


class TestLinkUpDown:
    def test_down_link_drops_offered_packets(self):
        sim = Simulator(seed=1)
        link, catcher = _link(sim)
        link.set_up(False)
        assert link.send(_packet(0)) is False
        assert link.send(_packet(1)) is False
        assert link.fault_drops == 2
        sim.run(until=1.0)
        assert catcher.packets == []

    def test_queued_packets_pause_and_resume(self):
        sim = Simulator(seed=1)
        link, catcher = _link(sim, rate_bps=8_000.0)  # 1s per packet
        for seq in range(3):
            assert link.send(_packet(seq))
        # Cut after the first packet serializes; the queued tail waits.
        sim.call_later(1.5, link.set_up, False)
        sim.run(until=4.0)
        assert len(catcher.packets) == 2  # first two made it out
        link.set_up(True)
        sim.run(until=6.0)
        assert len(catcher.packets) == 3  # the tail drained after re-up

    def test_flap_restores_automatically(self):
        sim = Simulator(seed=1)
        link, catcher = _link(sim)
        FaultSchedule().add(0.5, LinkFlap(link, down_for=1.0)) \
                       .install(sim)
        sim.run(until=0.6)
        assert not link.up
        sim.run(until=2.0)
        assert link.up
        assert link.send(_packet(0))

    def test_down_up_injectors(self):
        sim = Simulator(seed=1)
        link, _ = _link(sim)
        LinkDown(link).apply(sim)
        assert not link.up
        LinkUp(link).apply(sim)
        assert link.up

    def test_flap_rejects_nonpositive_outage(self):
        sim = Simulator(seed=1)
        link, _ = _link(sim)
        with pytest.raises(ValueError):
            LinkFlap(link, down_for=0.0)


class TestLinkCapacity:
    def test_renegotiates_rate_and_feedback_capacity(self):
        sim = Simulator(seed=1)
        link, _ = _link(sim, rate_bps=4_000_000.0)
        feedback = RouterFeedback(sim, capacity_bps=2_000_000.0)
        LinkCapacity(link, 1_000_000.0, feedback=feedback,
                     pels_share=0.5).apply(sim)
        assert link.rate_bps == 1_000_000.0
        assert feedback.capacity_bps == 500_000.0

    def test_without_feedback_only_the_link_changes(self):
        sim = Simulator(seed=1)
        link, _ = _link(sim)
        LinkCapacity(link, 1_000_000.0).apply(sim)
        assert link.rate_bps == 1_000_000.0

    def test_rejects_bad_parameters(self):
        sim = Simulator(seed=1)
        link, _ = _link(sim)
        with pytest.raises(ValueError):
            LinkCapacity(link, 0.0)
        with pytest.raises(ValueError):
            LinkCapacity(link, 1e6, pels_share=1.5)


class TestRouterRestartInjector:
    def test_restart_wipes_state_and_counts(self):
        sim = Simulator(seed=1)
        feedback = RouterFeedback(sim, capacity_bps=2_000_000.0)
        sim.run(until=1.0)
        assert feedback.epoch > 0
        RouterRestart(feedback).apply(sim)
        assert feedback.epoch == 0
        assert feedback.loss == 0.0
        assert feedback.restarts == 1

    def test_restart_with_new_router_id(self):
        sim = Simulator(seed=1)
        feedback = RouterFeedback(sim, capacity_bps=2_000_000.0)
        old_id = feedback.router_id
        RouterRestart(feedback, new_router_id=old_id + 100).apply(sim)
        assert feedback.router_id == old_id + 100


class TestRouteFlip:
    def test_flips_default_and_per_destination_routes(self):
        sim = Simulator(seed=1)
        link_a, _ = _link(sim)
        link_b, _ = _link(sim)

        class _Node:
            name = "n"
            routes = {}
            default_route = link_a

        node = _Node()
        RouteFlip(node, link_b).apply(sim)
        assert node.default_route is link_b
        RouteFlip(node, link_a, dst_id=7).apply(sim)
        assert node.routes[7] is link_a


class TestReversePathFaults:
    def test_ack_loss_window_restores_previous_rate(self):
        scenario = PelsScenario(n_flows=1, duration=6.0, seed=3)
        sim = PelsSimulation(scenario)
        sink = sim.sinks[0]
        FaultSchedule().add(2.0, AckLoss(sink, 0.9, duration=2.0)) \
                       .install(sim.sim)
        sim.run()
        assert sink.ack_loss_rate == 0.0  # restored after the window
        assert sink.acks_dropped > 0

    def test_ack_reorder_triggers_staleness_discard(self):
        scenario = PelsScenario(n_flows=1, duration=8.0, seed=3)
        sim = PelsSimulation(scenario)
        FaultSchedule().add(
            2.0, AckReorder(sim.sinks[0], jitter=0.2)).install(sim.sim)
        sim.run()
        tracker = sim.sources[0].tracker
        # Jitter several feedback intervals long must reorder epochs.
        assert tracker.stale_discarded > 0
        assert tracker.accepted > 0  # the loop still gets fresh samples

    def test_ack_reorder_is_seed_deterministic(self):
        def counters(seed: int) -> tuple:
            scenario = PelsScenario(n_flows=1, duration=6.0, seed=seed)
            sim = PelsSimulation(scenario)
            FaultSchedule().add(
                2.0, AckReorder(sim.sinks[0], jitter=0.2)).install(sim.sim)
            sim.run()
            tracker = sim.sources[0].tracker
            return (tracker.accepted, tracker.rejected,
                    tracker.stale_discarded,
                    list(sim.sources[0].rate_series))

        assert counters(5) == counters(5)

    def test_ack_loss_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            AckLoss(sink=None, rate=1.0)
        with pytest.raises(ValueError):
            AckReorder(sink=None, jitter=0.0)


class TestFlowChurn:
    def test_leave_then_rejoin_resumes_sending(self):
        scenario = PelsScenario(n_flows=2, duration=12.0, seed=2)
        sim = PelsSimulation(scenario)
        source = sim.sources[1]
        frames_at_leave = []
        (FaultSchedule()
         .add(4.0, FlowLeave(source))
         .add(6.0, Callback(
             lambda: frames_at_leave.append(source.frames_sent),
             label="probe:frames"))
         .add(8.0, FlowJoin(source, rate_bps=256_000.0))
         ).install(sim.sim)
        sim.run()
        assert frames_at_leave, "probe did not fire"
        # No frames during the gap, sending resumed after the re-join.
        assert source.frames_sent > frames_at_leave[0]
        assert not source._stopped


class TestFaultSchedule:
    def test_applied_log_records_fired_faults_in_order(self):
        sim = Simulator(seed=1)
        link, _ = _link(sim)
        schedule = (FaultSchedule()
                    .add(2.0, LinkUp(link))
                    .add(1.0, LinkDown(link)))
        schedule.install(sim)
        sim.run(until=3.0)
        assert [label for _, label in schedule.applied] == \
               [f"link-down:{link.name}", f"link-up:{link.name}"]
        assert [t for t, _ in schedule.applied] == [1.0, 2.0]

    def test_install_twice_rejected(self):
        sim = Simulator(seed=1)
        schedule = FaultSchedule()
        schedule.install(sim)
        with pytest.raises(RuntimeError):
            schedule.install(sim)

    def test_reinstall_on_second_simulator_rejected(self):
        # The applied-event log is append-only per install; re-arming
        # the schedule on a fresh simulator would interleave two runs'
        # fault logs.  This used to be accepted silently.
        first, second = Simulator(seed=1), Simulator(seed=2)
        link, _ = _link(first)
        schedule = FaultSchedule().add(1.0, LinkDown(link))
        schedule.install(first)
        first.run(until=2.0)
        with pytest.raises(RuntimeError,
                           match="another simulator"):
            schedule.install(second)
        # The original run's log survives untouched and the second
        # simulator got nothing armed.
        assert schedule.applied == [(1.0, f"link-down:{link.name}")]
        assert second.pending() == 0

    def test_rejected_install_arms_nothing(self):
        # Validation is atomic: a past-dated event anywhere in the
        # schedule must leave the heap clean and the schedule
        # reinstallable after the fix.
        sim = Simulator(seed=1)
        link, _ = _link(sim)
        sim.run(until=5.0)
        pending_before = sim.pending()
        schedule = (FaultSchedule()
                    .add(10.0, LinkDown(link))
                    .add(1.0, LinkUp(link)))  # in the past
        with pytest.raises(ValueError, match="in the past"):
            schedule.install(sim)
        assert sim.pending() == pending_before
        schedule.events = [FaultEvent(10.0, LinkDown(link))]
        schedule.install(sim)  # still installable once valid
        sim.run(until=11.0)
        assert [label for _, label in schedule.applied] == \
               [f"link-down:{link.name}"]

    def test_add_after_install_rejected(self):
        sim = Simulator(seed=1)
        link, _ = _link(sim)
        schedule = FaultSchedule().install(sim)
        with pytest.raises(RuntimeError):
            schedule.add(1.0, LinkDown(link))

    def test_past_event_rejected(self):
        sim = Simulator(seed=1)
        link, _ = _link(sim)
        sim.run(until=5.0)
        with pytest.raises(ValueError, match="in the past"):
            FaultSchedule().add(1.0, LinkDown(link)).install(sim)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(-1.0, Callback(lambda: None))

    def test_extend_accepts_events(self):
        sim = Simulator(seed=1)
        fired = []
        schedule = FaultSchedule().extend(
            [FaultEvent(1.0, Callback(lambda: fired.append(1), "one")),
             FaultEvent(2.0, Callback(lambda: fired.append(2), "two"))])
        schedule.install(sim)
        sim.run(until=3.0)
        assert fired == [1, 2]


class TestAsyncFaultDriver:
    """The installer's sim protocol over a WallClock's timers."""

    def run_loop(self, coro):
        import asyncio
        return asyncio.run(coro)

    def test_schedule_installs_and_fires_on_an_event_loop(self):
        import asyncio

        from repro.core.clock import WallClock
        from repro.faults import AsyncFaultDriver

        async def scenario():
            clock = WallClock()
            driver = AsyncFaultDriver(clock, seed=3)
            fired = []
            schedule = (FaultSchedule()
                        .add(0.01, Callback(lambda: fired.append("a"), "a"))
                        .add(0.03, Callback(lambda: fired.append("b"), "b")))
            schedule.install(driver)
            await asyncio.sleep(0.1)
            return fired, list(schedule.applied)

        fired, applied = self.run_loop(scenario())
        assert fired == ["a", "b"]
        assert [label for _, label in applied] == ["a", "b"]

    def test_past_times_clamp_to_now_instead_of_raising(self):
        import asyncio

        from repro.core.clock import WallClock
        from repro.faults import AsyncFaultDriver

        async def scenario():
            clock = WallClock()
            await asyncio.sleep(0.02)
            driver = AsyncFaultDriver(clock)
            fired = []
            driver.call_at(0.0, fired.append, "now")  # already past
            await asyncio.sleep(0.02)
            return fired

        assert self.run_loop(scenario()) == ["now"]


class TestSocketBlackhole:
    class Server:
        def __init__(self, flows):
            self.flows = flows
            self.retargets = []

        def retarget_flow(self, flow_id, addr):
            flow = self.flows.get(flow_id)
            if flow is None:
                return False
            flow.dst_addr = tuple(addr)
            self.retargets.append((flow_id, tuple(addr)))
            return True

    class Flow:
        def __init__(self, addr):
            self.dst_addr = addr

    def test_swallows_then_restores_only_unmoved_flows(self):
        from repro.faults import SocketBlackhole
        original = ("127.0.0.1", 7001)
        server = self.Server({1: self.Flow(original),
                              2: self.Flow(original)})
        hole = SocketBlackhole(server, [1, 2], duration=1.0)
        sim = Simulator(seed=1)
        hole.apply(sim)
        hole_addr = tuple(server.flows[1].dst_addr)
        assert hole_addr != original
        assert server.flows[2].dst_addr == hole_addr
        # Mid-blackhole, a failover re-homes flow 2 elsewhere.
        server.flows[2].dst_addr = ("127.0.0.1", 9999)
        assert sim.peek_time() == 1.0
        sim.run()  # the scheduled restore
        assert server.flows[1].dst_addr == original  # restored
        assert server.flows[2].dst_addr == ("127.0.0.1", 9999)  # kept

    def test_missing_flows_are_skipped(self):
        from repro.faults import SocketBlackhole
        server = self.Server({1: self.Flow(("127.0.0.1", 7001))})
        hole = SocketBlackhole(server, [1, 42], duration=0.5)
        sim = Simulator(seed=1)
        hole.apply(sim)
        sim.run()
        assert server.flows[1].dst_addr == ("127.0.0.1", 7001)

    def test_rejects_nonpositive_duration(self):
        from repro.faults import SocketBlackhole
        with pytest.raises(ValueError):
            SocketBlackhole(object(), [1], duration=0.0)


class TestLiveInjectorDescriptions:
    def test_describe_strings_are_stable(self):
        from repro.faults import (RegistrationErrors, ShardKill,
                                  ShardStall, SocketBlackhole)
        assert ShardKill([], 2).describe() == "shard-kill:slot2"
        assert ShardStall([], 1, duration=2.0).describe() == \
            "shard-stall:slot1:2.0s"
        assert ShardStall([], 1, duration=None).describe() == \
            "shard-stall:slot1:forever"
        assert SocketBlackhole(object(), [1, 2], 3.0).describe() == \
            "socket-blackhole:2flows:3.0s"
        assert RegistrationErrors(object(), 5).describe() == \
            "registration-errors:5"
        with pytest.raises(ValueError):
            ShardStall([], 0, duration=-1.0)
        with pytest.raises(ValueError):
            RegistrationErrors(object(), failures=0)
