"""Gateway admission control, shard processes, and the load generator.

The admission logic is pure (clock-injected token buckets, budget
arithmetic, stable hashing), so the bulk of this file runs in tier 1
against in-process shards (:class:`SimulatedShard`, the real handle
with its router on a ``SimNet``) and a ManualClock, and so do whole
load runs on simulated time (:func:`simulate_load`).  The
process-spawning paths — a real :class:`RouterShard` child and a small
:func:`run_load` session — are opt-in wall-clock tests behind the
``live`` marker, like the rest of the socket suite.
"""

from __future__ import annotations

import json
import math
import socket
import time
from unittest import mock

import pytest

from repro.core.clock import ManualClock, SimNet
from repro.live import shard as shard_module
from repro.live.client import LiveClient
from repro.live.gateway import (REASON_SHARD_DOWN, REASON_SHARD_OVERLOADED,
                                LiveGateway, TenantPolicy, TokenBucket,
                                shard_index)
from repro.live.loadgen import LoadConfig, _percentile, simulate_load
from repro.live.server import LiveServer
from repro.live.shard import (RouterShard, ShardConfig, SimulatedShard,
                              apply_control)
from repro.live.wire import LivePacket, decode_packet, encode_packet
from repro.sim.engine import Simulator
from repro.sim.packet import Color
from repro.video.fgs import FgsConfig


def sim_shard(shard_id, capacity_bps=100_000.0, net=None):
    """A started in-process shard whose PELS capacity is
    ``capacity_bps`` exactly (the default queue's share is 1/2)."""
    net = net or SimNet(Simulator())
    return SimulatedShard(ShardConfig(shard_id=shard_id,
                                      bottleneck_bps=2 * capacity_bps),
                          net).start()


def routes(shard):
    """The routes the shard's router holds."""
    return shard._conn.router.flow_routes


CLIENT = ("127.0.0.1", 5555)


def make_gateway(n_shards=2, capacity_bps=100_000.0, reserve=10_000.0,
                 clock=None, **policy_kwargs):
    clock = clock or ManualClock()
    net = SimNet(Simulator())
    shards = [sim_shard(i + 1, capacity_bps, net) for i in range(n_shards)]
    policy = TenantPolicy(**policy_kwargs) if policy_kwargs else None
    return LiveGateway(clock, shards, flow_reserve_bps=reserve,
                       default_policy=policy), shards, clock


class TestTokenBucket:
    def test_burst_then_rate_limited_then_refilled(self):
        bucket = TokenBucket(rate=2.0, burst=3.0, now=0.0)
        assert all(bucket.try_take(0.0) for _ in range(3))
        assert not bucket.try_take(0.0)
        assert bucket.try_take(0.5)  # 0.5 s x 2/s = 1 token back
        assert not bucket.try_take(0.5)

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=100.0, burst=2.0, now=0.0)
        assert bucket.try_take(1000.0)
        assert bucket.try_take(1000.0)
        assert not bucket.try_take(1000.0)

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.0)


class TestAdmission:
    def test_admits_installs_route_and_returns_shard_addr(self):
        gateway, shards, _ = make_gateway()
        decision = gateway.register("acme", 0, CLIENT)
        assert decision.admitted and decision.reason == "ok"
        assert decision.flow_id == 0
        shard = next(s for s in shards if s.shard_id == decision.shard_id)
        assert decision.shard_addr == shard.addr
        assert routes(shard)[0] == CLIENT
        assert gateway.admitted == 1

    def test_flow_ids_are_globally_unique(self):
        gateway, _, _ = make_gateway()
        ids = [gateway.register("t", key, CLIENT).flow_id
               for key in range(10)]
        assert ids == list(range(10))

    def test_registration_rate_limit_recovers_with_time(self):
        gateway, _, clock = make_gateway(
            registration_rate=1.0, registration_burst=2.0, max_flows=100)
        assert gateway.register("t", 0, CLIENT).admitted
        assert gateway.register("t", 1, CLIENT).admitted
        rejected = gateway.register("t", 2, CLIENT)
        assert not rejected.admitted and rejected.reason == "rate_limited"
        assert rejected.flow_id is None
        clock.advance(1.0)
        assert gateway.register("t", 2, CLIENT).admitted
        assert gateway.rejected["rate_limited"] == 1

    def test_rate_limit_is_per_tenant(self):
        gateway, _, _ = make_gateway(
            registration_rate=1.0, registration_burst=1.0, max_flows=100)
        assert gateway.register("a", 0, CLIENT).admitted
        assert not gateway.register("a", 1, CLIENT).admitted
        assert gateway.register("b", 0, CLIENT).admitted  # own bucket

    def test_tenant_concurrency_cap_and_release(self):
        gateway, _, _ = make_gateway(max_flows=2,
                                     registration_rate=1000.0,
                                     registration_burst=1000.0)
        first = gateway.register("t", 0, CLIENT)
        gateway.register("t", 1, CLIENT)
        full = gateway.register("t", 2, CLIENT)
        assert not full.admitted and full.reason == "tenant_full"
        assert gateway.deregister(first.flow_id)
        assert gateway.register("t", 2, CLIENT).admitted

    def test_shard_capacity_budget_and_release(self):
        # One shard, capacity for exactly two reservations.
        gateway, shards, _ = make_gateway(n_shards=1,
                                          capacity_bps=20_000.0,
                                          reserve=10_000.0)
        a = gateway.register("t", 0, CLIENT)
        gateway.register("t", 1, CLIENT)
        full = gateway.register("t", 2, CLIENT)
        assert not full.admitted and full.reason == "shard_full"
        gateway.deregister(a.flow_id)
        assert a.flow_id not in routes(shards[0])  # route removed
        assert gateway.register("t", 2, CLIENT).admitted

    def test_deregister_unknown_flow_is_false_not_raise(self):
        gateway, _, _ = make_gateway()
        assert gateway.deregister(999) is False

    def test_placement_is_stable_and_tenant_qualified(self):
        assert shard_index("t", 5, 4) == shard_index("t", 5, 4)
        gateway, _, _ = make_gateway(n_shards=4)
        first = gateway.register("t", 5, CLIENT)
        gateway.deregister(first.flow_id)
        again = gateway.register("t", 5, CLIENT)
        assert again.shard_id == first.shard_id

    def test_population_spreads_across_shards(self):
        gateway, _, _ = make_gateway(n_shards=4, capacity_bps=1e9)
        for key in range(200):
            gateway.register(f"tenant-{key % 4}", key, CLIENT)
        population = gateway.shard_population()
        assert sum(population.values()) == 200
        assert min(population.values()) > 0

    def test_needs_at_least_one_shard(self):
        with pytest.raises(ValueError):
            LiveGateway(ManualClock(), [])

    def test_admission_decision_carries_the_pool_slot(self):
        gateway, _, _ = make_gateway(n_shards=4)
        decision = gateway.register("t", 5, CLIENT)
        assert decision.shard_slot == shard_index("t", 5, 4)


class TestClosedSlots:
    """Every rejection reason, including the supervisor-driven ones."""

    def register_on_slot(self, gateway, n_shards, slot):
        key = 0
        while shard_index("t", key, n_shards) != slot:
            key += 1
        return gateway.register("t", key, CLIENT)

    def test_closed_slot_rejects_with_the_closing_reason(self):
        for reason in (REASON_SHARD_DOWN, REASON_SHARD_OVERLOADED):
            gateway, _, _ = make_gateway(n_shards=2)
            gateway.close_shard(1, reason)
            decision = self.register_on_slot(gateway, 2, 1)
            assert not decision.admitted
            assert decision.reason == reason
            assert decision.shard_slot == 1
            assert gateway.rejected[reason] == 1
            # The other slot keeps admitting.
            assert self.register_on_slot(gateway, 2, 0).admitted

    def test_reopened_slot_admits_again(self):
        gateway, _, _ = make_gateway(n_shards=2)
        gateway.close_shard(0, REASON_SHARD_OVERLOADED)
        gateway.open_shard(0)
        assert self.register_on_slot(gateway, 2, 0).admitted

    def test_install_failure_closes_the_slot_and_rejects_shard_down(self):
        clock = ManualClock()
        shards = [sim_shard(1)]
        shards[0].kill()  # install_route raises, as a dead child's pipe does
        gateway = LiveGateway(clock, shards, flow_reserve_bps=1_000.0)
        decision = gateway.register("t", 0, CLIENT)
        assert not decision.admitted
        assert decision.reason == REASON_SHARD_DOWN
        assert gateway.shard_closed(0) == REASON_SHARD_DOWN
        # The failed registration reserved nothing and admitted nothing.
        assert gateway.admitted == 0
        assert gateway.flows == {}

    def test_all_five_rejection_reasons_are_pre_seeded(self):
        gateway, _, _ = make_gateway()
        assert set(gateway.rejected) == {
            "rate_limited", "tenant_full", "shard_full",
            REASON_SHARD_DOWN, REASON_SHARD_OVERLOADED}


class TestReplaceShard:
    def test_replace_rehomes_flows_in_one_bulk_install(self):
        gateway, shards, _ = make_gateway(n_shards=1)
        ids = [gateway.register("t", key, CLIENT).flow_id
               for key in range(3)]
        replacement = sim_shard(9, shards[0].capacity_bps)
        with mock.patch.object(shard_module, "apply_control",
                               wraps=apply_control) as applied:
            rehomed = gateway.replace_shard(0, replacement)
        assert rehomed == sorted(ids)
        assert sorted(routes(replacement)) == sorted(ids)
        assert [call.args[1] for call in applied.call_args_list] == [
            ("routes", {fid: CLIENT for fid in ids})]
        assert gateway.shards[0] is replacement

    def test_reservations_survive_replacement(self):
        gateway, shards, _ = make_gateway(n_shards=1,
                                          capacity_bps=20_000.0,
                                          reserve=10_000.0)
        gateway.register("t", 0, CLIENT)
        gateway.register("t", 1, CLIENT)
        gateway.replace_shard(0, sim_shard(9, 20_000.0))
        # Still full: the flows moved, their budgets did not reset.
        assert gateway.register("t", 2, CLIENT).reason == "shard_full"

    def test_replace_bad_slot_raises(self):
        gateway, _, _ = make_gateway(n_shards=1)
        with pytest.raises(IndexError):
            gateway.replace_shard(3, sim_shard(9))


class TestLoadConfig:
    def test_capacity_scales_with_expected_population(self):
        config = LoadConfig(flows=200, shards=4, flow_share_bps=10_000.0,
                            capacity_headroom=1.25)
        assert config.shard_capacity_bps() == pytest.approx(
            10_000.0 * 50 * 1.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            LoadConfig(flows=0)
        with pytest.raises(ValueError):
            LoadConfig(flows=4, churn_flows=4)
        with pytest.raises(ValueError):
            LoadConfig(warmup_fraction=1.0)

    def test_shard_config_rejects_zero_id(self):
        with pytest.raises(ValueError):
            ShardConfig(shard_id=0)

    def test_percentile_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        assert _percentile(values, 0.50) == 50.0
        assert _percentile(values, 0.99) == 99.0
        assert _percentile([], 0.5) != _percentile([], 0.5)  # NaN


class CapturingTransport:
    """Fake datagram transport: keeps what the server sends."""

    def __init__(self) -> None:
        self.sent = []

    def sendto(self, data, addr) -> None:
        self.sent.append((decode_packet(data), addr))


class TestGroupedPacing:
    """The pacer stepped through ``LiveServer.advance`` under a
    ManualClock: no tasks, no sleeps, no sockets."""

    INTERVAL = 0.5

    def make_server(self, flow_ids=(0, 1), **kwargs):
        fgs = FgsConfig(packet_size=100, frame_packets=8, green_packets=2,
                        frame_interval=self.INTERVAL)
        server = LiveServer(
            ManualClock(), 0, fgs=fgs,
            controller_kwargs={"initial_rate_bps": 16_000.0,
                               "min_rate_bps": 1_000.0},
            flow_ids=list(flow_ids), seed=1, **kwargs)
        server.connection_made(CapturingTransport())
        server.dst_addr = ("127.0.0.1", 9)
        return server

    def step(self, server, now, slot=None):
        server.clock.now = now
        server.advance(now, slot)

    def test_frames_begin_after_phase_and_packets_flow(self):
        server = self.make_server(flow_ids=(0, 1))
        early, late = server.flows[0], server.flows[1]
        self.step(server, 0.0)
        # Flow 0 has phase 0; flow 1 waits out its golden-ratio offset.
        assert early.frames_sent == 1
        assert early.packets_sent == 1  # first packet's worth of credit
        assert late.frames_sent == 0 and late.packets_sent == 0
        self.step(server, 0.1)  # 16 kb/s x 0.1 s = 2 more packets
        assert early.packets_sent == 3
        assert late.frames_sent == 0
        self.step(server, 0.618 * self.INTERVAL + 0.001)
        assert late.frames_sent == 1 and late.packets_sent == 1
        sent = [packet for packet, _ in server.transport.sent]
        assert [p.seq for p in sent if p.flow_id == 0] == list(range(7))
        assert all(addr == ("127.0.0.1", 9)
                   for _, addr in server.transport.sent)

    def test_frame_boundary_truncates_and_logs_counts(self):
        server = self.make_server(flow_ids=(0,))
        flow = server.flows[0]
        self.step(server, 0.0)
        planned = len(flow.plan)
        self.step(server, self.INTERVAL + 0.01)
        assert flow.frames_sent == 2
        # Only the first packet of frame 0 made it out before the
        # boundary; the tail was truncated, and the log says so.
        assert planned > 1
        assert flow.frame_log == {0: (1, 0, 0)}
        # The cadence stays anchored to the phase offset, not to the
        # (late) wake that noticed the boundary.
        assert flow.deadline == pytest.approx(2 * self.INTERVAL)

    def test_stall_reanchors_instead_of_bursting_catch_up_frames(self):
        server = self.make_server(flow_ids=(0,))
        flow = server.flows[0]
        self.step(server, 0.0)
        stall = 5 * self.INTERVAL + 0.2
        self.step(server, stall)
        assert flow.frames_sent == 2  # one new frame, not five
        assert flow.deadline == pytest.approx(stall + self.INTERVAL)
        # The credit cap held the burst at the fresh frame's first packet.
        assert flow.packets_sent == 2

    def test_retired_flow_stops_emitting(self):
        server = self.make_server(flow_ids=(0,))
        flow = server.flows[0]
        self.step(server, 0.0)
        server.retire_flow(0)
        # Off the wheel (a churned server steps only what is live), yet
        # still there to report on.
        assert server.slots == [[]] and server.flows[0] is flow
        sent = flow.packets_sent
        self.step(server, 0.2)
        self.step(server, self.INTERVAL + 0.1, 0)
        assert flow.packets_sent == sent and flow.frames_sent == 1
        server.retire_flow(0)  # gateway teardown may repeat itself

    def test_flow_ids_override_requires_nonempty(self):
        with pytest.raises(ValueError):
            LiveServer(ManualClock(), 0, flow_ids=[])

    # -- the in-flight frame is logged (lost on the parent) ----------------

    def test_retire_logs_the_in_flight_frame(self):
        server = self.make_server(flow_ids=(0,))
        flow = server.flows[0]
        self.step(server, 0.0)
        self.step(server, 0.1)
        assert flow.frame_log == {}
        server.retire_flow(0)
        assert flow.frame_log == {0: (2, 1, 0)}
        assert sum(flow.frame_log[0]) == flow.packets_sent

    def test_stop_logs_every_in_flight_frame(self):
        server = self.make_server(flow_ids=(0, 2))
        self.step(server, 0.0)
        self.step(server, 0.4)
        server.stop()
        for flow in server.flows.values():
            assert set(flow.frame_log) == {0} == {flow.frame_id}
            assert sum(flow.frame_log[0]) == flow.packets_sent > 0
        server.stop()  # idempotent (sessions stop twice)
        assert len(server.flows[0].frame_log) == 1

    # -- the live starvation watchdog --------------------------------------

    def label(self, server, router_id, epoch, loss=0.1, flow_id=0):
        server.datagram_received(encode_packet(LivePacket(
            flow_id=flow_id, seq=0, is_ack=True, router_id=router_id,
            epoch=epoch, loss=loss, sent_at=0.0)), ("127.0.0.1", 1))

    def test_watchdog_enters_decays_per_frame_and_recovers(self):
        server = self.make_server(flow_ids=(0,), feedback_timeout=0.4,
                                  blind_backoff=0.5)
        flow = server.flows[0]
        self.step(server, 0.0)
        server.clock.now = 0.2
        self.label(server, router_id=7, epoch=900)
        assert flow.tracker.epoch == 900
        rate = flow.rate_bps
        self.step(server, 0.5)  # 0.3 s of silence: still closed-loop
        assert not flow.blind and flow.rate_bps == rate
        self.step(server, 1.0)  # 0.8 s: blind, first decay
        assert flow.blind
        assert (flow.rate_freezes, flow.blind_intervals) == (1, 1)
        assert flow.rate_bps == pytest.approx(rate * 0.5)
        assert flow.tracker.router_id is None  # epoch clock dropped
        self.step(server, 1.5)  # every blind frame decays again
        assert (flow.rate_freezes, flow.blind_intervals) == (1, 2)
        assert flow.rate_bps == pytest.approx(rate * 0.25)
        # A replacement shard: fresh router id, small epoch.
        server.clock.now = 1.6
        self.label(server, router_id=8, epoch=1, loss=0.0)
        assert not flow.blind and flow.recoveries == 1
        assert flow.tracker.router_id == 8
        self.step(server, 2.0)
        assert (flow.rate_freezes, flow.blind_intervals) == (1, 2)

    def test_watchdog_is_off_at_the_default_timeout(self):
        server = self.make_server(flow_ids=(0,))
        flow = server.flows[0]
        for k in range(6):
            self.step(server, k * self.INTERVAL)
        assert flow.feedback_timeout is None
        assert not flow.blind and flow.blind_intervals == 0
        assert flow.rate_bps == 16_000.0


class TestAckFastPath:
    def test_ack_with_label_drives_controller(self):
        clock = ManualClock()
        server = LiveServer(clock, 1, controller_kwargs={
            "initial_rate_bps": 50_000.0})
        flow = server.flows[0]
        before = flow.controller.rate_bps
        ack = encode_packet(LivePacket(flow_id=0, seq=1, is_ack=True,
                                       router_id=3, epoch=1, loss=0.5,
                                       sent_at=0.0))
        server.datagram_received(ack, ("127.0.0.1", 1))
        assert flow.acks_received == 1
        assert flow.controller.rate_bps != before
        # Same epoch again: freshness filter discards it.
        server.datagram_received(ack, ("127.0.0.1", 1))
        assert flow.tracker.rejected == 1
        assert len(flow.loss_series) == 1

    def test_unlabeled_and_foreign_acks_are_ignored(self):
        server = LiveServer(ManualClock(), 1)
        unlabeled = encode_packet(LivePacket(flow_id=0, seq=1, is_ack=True,
                                             sent_at=0.0))
        server.datagram_received(unlabeled, ("127.0.0.1", 1))
        foreign = encode_packet(LivePacket(flow_id=42, seq=1, is_ack=True,
                                           router_id=1, epoch=1, loss=0.1,
                                           sent_at=0.0))
        server.datagram_received(foreign, ("127.0.0.1", 1))
        data = encode_packet(LivePacket(flow_id=0, seq=1, sent_at=0.0))
        server.datagram_received(data, ("127.0.0.1", 1))  # not an ACK
        assert server.flows[0].acks_received == 1  # only the unlabeled one
        assert len(server.flows[0].loss_series) == 0


    @pytest.mark.parametrize("loss", [
        float("-inf"), -50.0, float("inf"), 5.0, float("nan"), -1e-9,
        1.0 + 1e-9])
    def test_forged_label_is_dropped_before_the_tracker(self, loss):
        """One valid-magic ACK with an impossible loss used to own the
        flow (-inf pinned the rate at max, nan at the floor)."""
        server = LiveServer(ManualClock(), 1, controller_kwargs={
            "initial_rate_bps": 128_000.0})
        flow = server.flows[0]
        rate, gamma = flow.rate_bps, flow.gamma

        def ack(router_id, epoch, value):
            server.datagram_received(encode_packet(LivePacket(
                flow_id=0, seq=1, is_ack=True, router_id=router_id,
                epoch=epoch, loss=value, sent_at=0.0)), ("127.0.0.1", 1))

        ack(99, 1_000_000, loss)
        assert server.malformed_acks == 1
        assert (flow.rate_bps, flow.gamma) == (rate, gamma)
        assert len(flow.loss_series) == len(flow.rate_series) == 0
        # The forged (router_id, epoch) did not become the flow's clock:
        # an honest router's small epoch is still fresh.
        assert flow.tracker.router_id is None
        assert flow.tracker.accepted == flow.tracker.rejected == 0
        ack(3, 1, 0.25)
        assert flow.tracker.accepted == 1 and flow.rate_bps != rate
        assert all(math.isfinite(v) for _, v in flow.rate_series)

    @pytest.mark.parametrize("loss", [0.0, 1.0])
    def test_the_closed_unit_interval_is_accepted(self, loss):
        server = LiveServer(ManualClock(), 1)
        server.datagram_received(encode_packet(LivePacket(
            flow_id=0, seq=1, is_ack=True, router_id=3, epoch=1, loss=loss,
            sent_at=0.0)), ("127.0.0.1", 1))
        assert server.malformed_acks == 0
        assert server.flows[0].tracker.accepted == 1


class TestShardProcess:
    """One real shard process, in tier-1: started, routed, forwarding
    datagrams, stopped."""

    def test_shard_routes_and_reports_stats(self):
        shard = RouterShard(ShardConfig(
            shard_id=1, bottleneck_bps=1_000_000.0,
            feedback_interval=0.02))
        receiver = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        receiver.bind(("127.0.0.1", 0))
        receiver.settimeout(5.0)
        sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            shard.start()
            shard.install_route(7, receiver.getsockname())
            # The pipe is ordered: this reply proves the route landed.
            assert shard.stats().routes == 1
            packet = encode_packet(LivePacket(flow_id=7, seq=0,
                                              color=Color.GREEN,
                                              sent_at=0.0, size=200))
            for _ in range(5):
                sender.sendto(packet, shard.addr)
            for _ in range(5):  # all five forwarded: all five counted
                forwarded = decode_packet(receiver.recvfrom(65536)[0])
                assert forwarded.flow_id == 7
                assert forwarded.router_id == 1  # stamped by shard 1
            stats = shard.stats()
            assert stats.arrivals[Color.GREEN] == 5
            assert stats.routes == 1
            assert stats.cpu_seconds > 0
        finally:
            final = shard.stop()
            sender.close()
            receiver.close()
        assert final is not None
        assert final.forwarded[Color.GREEN] == 5

    def test_stop_is_idempotent(self):
        shard = RouterShard(ShardConfig(shard_id=2))
        shard.start()
        assert shard.stop() is not None
        assert shard.stop() is None


class TestSimulatedShard:
    """The in-process shard against the handle contract the gateway and
    the supervisor use: one ``apply_control``, no process."""

    def test_stop_returns_the_final_stats(self):
        shard = sim_shard(3)
        shard.install_route(7, CLIENT)
        final = shard.stop()
        assert (final.shard_id, final.routes, final.cpu_seconds) == (3, 1, 0)
        assert not shard.alive and shard.stop() is None

    def test_supervision_verbs_round_trip(self):
        shard = sim_shard(4)
        assert shard.ping(42.0) and shard.request_stats()
        assert shard.set_shed_level(1)
        assert shard.poll_messages() == 2 and shard.poll_messages() == 0
        assert shard.last_pong == 42.0 and shard.last_stats.shard_id == 4
        assert shard.stats().shed_level == 1

    def test_datagrams_sent_to_a_killed_shard_vanish(self):
        net = SimNet(Simulator())
        shard = sim_shard(5, net=net)
        client = LiveClient(net.sim)  # sends, and receives the forwards
        shard.install_route(7, net.attach(client))
        packet = encode_packet(LivePacket(flow_id=7, seq=0, sent_at=0.0,
                                          color=Color.GREEN, size=200))
        client.transport.sendto(packet, shard.addr)
        net.sim.run(until=1.0)
        assert client.flows[7].bytes_received == 200
        child = shard._conn
        shard.kill()
        assert child.exitcode == -9 and not shard.alive
        client.transport.sendto(packet, shard.addr)
        net.sim.run(until=2.0)
        assert client.flows[7].bytes_received == 200
        assert child.router.arrivals[Color.GREEN] == 1
        # Later verbs fail as they do on a dead child's pipe.
        with pytest.raises(BrokenPipeError):
            shard.install_route(8, CLIENT)
        assert not shard.ping(1.0) and shard.poll_messages() == 0


@pytest.mark.live
class TestShardPipeEdgeCases:
    """The control pipe under child death and supervision traffic."""

    def test_sync_request_raises_cleanly_after_child_death(self):
        import os
        import signal
        shard = RouterShard(ShardConfig(shard_id=1))
        try:
            shard.start()
            os.kill(shard.pid, signal.SIGKILL)
            deadline = time.time() + 5.0
            while shard.exitcode is None and time.time() < deadline:
                time.sleep(0.01)
            # EOF mid-wait surfaces as RuntimeError, not EOFError.
            with pytest.raises(RuntimeError):
                shard.stats(timeout=1.0)
        finally:
            shard.stop()

    def test_async_verbs_are_safe_after_child_death(self):
        import os
        import signal
        shard = RouterShard(ShardConfig(shard_id=1))
        try:
            shard.start()
            os.kill(shard.pid, signal.SIGKILL)
            deadline = time.time() + 5.0
            while shard.exitcode is None and time.time() < deadline:
                time.sleep(0.01)
            # Fire-and-forget + drain: no exception, liveness visible.
            shard.ping(1.0)
            shard.request_stats()
            assert shard.poll_messages() >= 0
            assert shard.exitcode is not None
            assert not shard.alive
        finally:
            shard.stop()

    def test_stop_escalates_past_a_sigstopped_child(self):
        import os
        import signal
        shard = RouterShard(ShardConfig(shard_id=1))
        started = False
        try:
            shard.start()
            started = True
            os.kill(shard.pid, signal.SIGSTOP)
            t0 = time.time()
            # Polite stop can't answer; terminate pends on a stopped
            # process; the SIGKILL rung must still reap it.
            assert shard.stop(timeout=1.0) is None
            assert time.time() - t0 < 30.0
            assert shard.stop() is None  # handle fully stopped
            started = False
        finally:
            if started:
                shard.kill()

    def test_kill_is_immediate_and_idempotent(self):
        shard = RouterShard(ShardConfig(shard_id=1))
        shard.start()
        shard.kill()
        assert not shard.alive
        shard.kill()  # no process: no-op
        assert shard.stop() is None

    def test_sync_request_skips_interleaved_supervision_replies(self):
        shard = RouterShard(ShardConfig(shard_id=1))
        try:
            shard.start()
            # Queue async replies ahead of the synchronous stats call:
            # _request must dispatch them, not mistake them for its
            # answer.
            shard.ping(42.0)
            shard.request_stats()
            stats = shard.stats(timeout=5.0)
            assert stats.shard_id == 1
            shard.poll_messages()
            assert shard.last_pong == 42.0
        finally:
            shard.stop()


class TestSimulatedLoad:
    """:func:`simulate_load`: what only wall-clock load runs reached
    before, seeded and exact."""

    def test_churned_flows_yield_partial_results_not_errors(self):
        result = simulate_load(LoadConfig(flows=6, shards=1, duration=2.0,
                                          churn_flows=2, seed=3))
        assert (result.churned, result.admitted) == (2, 6)
        assert result.aggregate_goodput_bps > 0

    def test_post_window_goodput_is_the_sum_of_its_flows(self):
        result = simulate_load(LoadConfig(flows=8, shards=2, duration=2.0,
                                          post_window=0.5))
        per_flow, slots = result.post_flow_goodput, result.flow_slots
        assert sorted(per_flow) == sorted(slots)
        assert result.post_goodput_bps == sum(per_flow.values()) > 0
        for shard in result.per_shard:
            assert shard.post_goodput_bps == pytest.approx(sum(
                g for f, g in per_flow.items() if slots[f] == shard.slot))

    def test_the_same_config_runs_the_same(self):
        config = LoadConfig(flows=12, shards=2, duration=2.0, churn_flows=1,
                            post_window=0.5)
        first, again = (simulate_load(config).to_dict() for _ in range(2))
        first["flows_per_sec"] = again["flows_per_sec"]  # a host fact
        assert json.dumps(first) == json.dumps(again)


@pytest.mark.live
class TestLoadRun:
    def test_small_load_run_admits_and_delivers(self):
        from repro.live.loadgen import run_load
        result = run_load(LoadConfig(flows=8, shards=2, duration=2.0,
                                     seed=3))
        assert result.admitted == 8
        assert result.rejected == {}
        assert result.flows_per_sec > 100
        assert result.aggregate_goodput_bps > 0
        assert result.green_drops == 0
        assert result.delays["green"]["count"] > 0
        assert len(result.per_shard) == 2
        assert all(s.stats.cpu_seconds > 0 for s in result.per_shard)

    def test_churned_flows_yield_partial_results_not_errors(self):
        from repro.live.loadgen import run_load
        result = run_load(LoadConfig(flows=6, shards=1, duration=2.0,
                                     churn_flows=2, seed=3))
        assert result.churned == 2
        assert result.admitted == 6
        assert result.aggregate_goodput_bps > 0
