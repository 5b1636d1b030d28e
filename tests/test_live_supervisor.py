"""Shard supervision: health checks, failover and layered shedding.

The supervisor's whole decision surface is the synchronous
:meth:`ShardSupervisor.tick`, so every failure signature — crash,
hang, overload — is driven here with fake shard handles and a
ManualClock, and its poll timer on a Simulator clock; no processes, no
sockets, no sleeps.  The live-marked
chaos tests (``test_live_chaos.py``) exercise the same state machine
against real SIGKILL'd children.
"""

from __future__ import annotations

import pytest

from repro.core.clock import ManualClock, SimNet
from repro.core.pels_queue import PelsQueueConfig
from repro.live.gateway import (REASON_SHARD_DOWN, REASON_SHARD_OVERLOADED,
                                LiveGateway, TenantPolicy)
from repro.live.shard import ShardConfig, ShardStats, SimulatedShard
from repro.live.supervisor import (OVERLOAD_POLLS, RECOVER_POLLS,
                                   STATE_FAILED, STATE_HEALTHY,
                                   STATE_OVERLOADED, ShardSupervisor,
                                   SupervisorConfig)
from repro.live.wire import LivePacket, encode_packet
from repro.obs.metrics import MetricsRegistry, metrics
from repro.sim.engine import Simulator
from repro.sim.packet import Color

CLIENT = ("127.0.0.1", 5555)


class FakeShard:
    """A shard handle speaking the full supervision protocol."""

    def __init__(self, shard_id: int, capacity_bps: float = 1e9):
        self.shard_id = shard_id
        self.capacity_bps = capacity_bps
        self.routes = {}
        self.bulk_installs = []
        self.alive = True
        self.exitcode = None
        self.last_pong = None
        self.last_stats = None
        #: Whether the "child" echoes heartbeats (False simulates a
        #: SIGSTOP'd or wedged event loop: alive but silent).
        self.answer_pings = True
        self.shed_level = 0
        self.killed = False

    @property
    def addr(self):
        return ("127.0.0.1", 50_000 + self.shard_id)

    def install_route(self, flow_id, addr):
        self.routes[flow_id] = addr

    def install_routes(self, routes):
        self.bulk_installs.append(dict(routes))
        self.routes.update(routes)

    def remove_route(self, flow_id):
        self.routes.pop(flow_id, None)

    def poll_messages(self):
        return 0

    def ping(self, now):
        if self.answer_pings:
            self.last_pong = now
        return True

    def request_stats(self):
        return True

    def set_shed_level(self, level):
        self.shed_level = level

    def kill(self):
        self.killed = True
        self.alive = False
        self.exitcode = -9

    def respawn(self, shard_id):
        return FakeShard(shard_id, self.capacity_bps)


def make_stats(cpu=0.0, wall=0.0, shed_bytes=None, send_errors=0):
    return ShardStats(shard_id=1, port=0, arrivals=[0] * 4, drops=[0] * 4,
                      forwarded=[0] * 4, routes=0,
                      cpu_seconds=cpu, wall_seconds=wall,
                      shed_bytes=shed_bytes or [0, 0, 0, 0],
                      send_errors=send_errors)


def make_pool(n_shards=2, flows_per_shard=0, clock=None):
    """Gateway over fakes, a supervisor with an injected retarget."""
    clock = clock or ManualClock()
    shards = [FakeShard(i + 1) for i in range(n_shards)]
    gateway = LiveGateway(clock, shards, flow_reserve_bps=1_000.0,
                          default_policy=TenantPolicy(
                              max_flows=10_000,
                              registration_rate=1e6,
                              registration_burst=1e6))
    key = 0
    placed = {slot: 0 for slot in range(n_shards)}
    while any(count < flows_per_shard for count in placed.values()):
        decision = gateway.register("t", key, CLIENT)
        key += 1
        if placed[decision.shard_slot] >= flows_per_shard:
            gateway.deregister(decision.flow_id)
        else:
            placed[decision.shard_slot] += 1
    retargeted = []
    supervisor = ShardSupervisor(
        clock, gateway, SupervisorConfig(),
        retarget=lambda fid, addr: retargeted.append((fid, addr)))
    return supervisor, gateway, shards, clock, retargeted


class TestCrashFailover:
    def test_crashed_shard_is_replaced_and_flows_rehomed(self):
        supervisor, gateway, shards, clock, retargeted = \
            make_pool(n_shards=2, flows_per_shard=3)
        victim = shards[0]
        expected = sorted(gateway.flows_on(0))
        victim.alive = False
        victim.exitcode = -9

        supervisor.tick(clock.now)

        replacement = gateway.shards[0]
        assert replacement is not victim
        assert replacement.shard_id == 3  # fresh id past the pool max
        # Bulk re-install, not per-flow messages.
        assert replacement.bulk_installs == [gateway.flows_on(0)]
        assert sorted(replacement.routes) == expected
        # Every re-homed sender was re-aimed at the new socket.
        assert retargeted == [(fid, replacement.addr) for fid in expected]
        assert gateway.shard_closed(0) is None  # reopened
        assert supervisor.slot_state(0) == STATE_HEALTHY
        record = supervisor.failovers[0]
        assert record.cause == "crash"
        assert record.old_shard_id == 1
        assert record.new_shard_id == 3
        assert record.flows_rehomed == len(expected)
        assert victim.killed  # reaped, not leaked

    def test_replacement_ids_never_reuse(self):
        supervisor, gateway, shards, clock, _ = make_pool(n_shards=2)
        shards[0].alive = False
        supervisor.tick(clock.now)
        gateway.shards[1].alive = False
        supervisor.tick(clock.now)
        ids = [record.new_shard_id for record in supervisor.failovers]
        assert ids == [3, 4]

    def test_healthy_pool_never_fails_over(self):
        supervisor, _, _, clock, _ = make_pool(n_shards=2)
        for _ in range(20):
            clock.advance(0.25)
            supervisor.tick(clock.now)
        assert supervisor.failovers == []
        assert set(supervisor.states().values()) == {STATE_HEALTHY}


class TestPollTimer:
    def test_polls_on_its_clock_until_stopped(self):
        sim = Simulator()
        supervisor, _, _, _, _ = make_pool(n_shards=2, clock=sim)
        supervisor.start()
        with pytest.raises(RuntimeError):
            supervisor.start()
        sim.run(until=1.0)
        assert supervisor.ticks == 5  # t = 0, 0.25, 0.5, 0.75, 1.0
        supervisor.stop()
        sim.run(until=2.0)  # the armed poll fires into a no-op
        assert supervisor.ticks == 5 and sim.pending() == 0
        assert supervisor.failovers == []


class TestHangDetection:
    def test_silent_but_alive_shard_is_stalled_and_replaced(self):
        supervisor, gateway, shards, clock, _ = make_pool(n_shards=1)
        shards[0].answer_pings = False
        supervisor.tick(clock.now)  # first ping goes out
        clock.advance(1.0)
        supervisor.tick(clock.now)  # within hang_timeout: no action
        assert supervisor.failovers == []
        clock.advance(0.5)  # 1.5 s of silence > hang_timeout 1.2
        supervisor.tick(clock.now)
        assert supervisor.failovers[0].cause == "stall"
        assert shards[0].killed  # SIGKILL path: SIGTERM pends on SIGSTOP

    def test_answering_shard_resets_the_hang_clock(self):
        supervisor, _, shards, clock, _ = make_pool(n_shards=1)
        for _ in range(10):
            clock.advance(1.0)  # each gap alone would be < timeout...
            supervisor.tick(clock.now)  # ...and every tick gets a pong
        assert supervisor.failovers == []


class TestMaxRestarts:
    def test_slot_fails_permanently_after_restart_budget(self):
        supervisor, gateway, shards, clock, _ = make_pool(n_shards=1)
        for round_ in range(4):  # max_restarts = 3
            gateway.shards[0].alive = False
            supervisor.tick(clock.now)
        assert supervisor.slot_state(0) == STATE_FAILED
        assert gateway.shard_closed(0) == REASON_SHARD_DOWN
        abandoned = supervisor.failovers[-1]
        assert abandoned.new_shard_id is None
        # Further ticks leave the failed slot alone.
        ticks_before = len(supervisor.failovers)
        supervisor.tick(clock.now)
        assert len(supervisor.failovers) == ticks_before

    def test_failed_slot_rejects_registrations_with_shard_down(self):
        supervisor, gateway, _, clock, _ = make_pool(n_shards=1)
        for _ in range(4):
            gateway.shards[0].alive = False
            supervisor.tick(clock.now)
        decision = gateway.register("t", 999, CLIENT)
        assert not decision.admitted
        assert decision.reason == REASON_SHARD_DOWN


class TestOverloadShedding:
    def run_stats_ticks(self, supervisor, shards, clock, snapshots,
                        slot=0):
        for stats in snapshots:
            shards[slot].last_stats = stats
            clock.advance(0.25)
            supervisor.tick(clock.now)

    def test_hot_polls_escalate_red_then_yellow_never_green(self):
        supervisor, gateway, shards, clock, _ = make_pool(n_shards=1)
        hot = [make_stats(cpu=0.95 * t, wall=1.0 * t) for t in range(1, 7)]
        self.run_stats_ticks(supervisor, shards, clock, hot[:3])
        assert supervisor.shed_level(0) == 1  # red only
        assert shards[0].shed_level == 1
        assert supervisor.slot_state(0) == STATE_OVERLOADED
        assert gateway.shard_closed(0) == REASON_SHARD_OVERLOADED
        self.run_stats_ticks(supervisor, shards, clock, hot[3:5])
        assert supervisor.shed_level(0) == 2  # red + yellow
        # Level 2 is the ceiling: green is never in the shedding set.
        self.run_stats_ticks(supervisor, shards, clock, hot[5:])
        assert supervisor.shed_level(0) == 2

    def test_a_full_red_queue_at_idle_cpu_is_not_overload(self):
        # The gamma loop (Eq. 4, Lemma 4) holds red loss at p_thr, so a
        # healthy bottleneck's red queue is full and dropping: only CPU
        # makes a shard hot.  A real (in-process) shard reports it.
        net = SimNet(Simulator())
        shard = SimulatedShard(ShardConfig(
            queue=PelsQueueConfig(red_buffer=20)), net).start()
        red = encode_packet(LivePacket(flow_id=1, seq=0, sent_at=0.0,
                                       color=Color.RED, size=200))
        for _ in range(19):  # 0.95 of the buffer; the net never turns
            shard._conn.router.datagram_received(red, CLIENT)
        clock = ManualClock()
        gateway = LiveGateway(clock, [shard], flow_reserve_bps=1_000.0)
        supervisor = ShardSupervisor(clock, gateway, SupervisorConfig())
        for _ in range(6):
            clock.advance(0.25)
            supervisor.tick(clock.now)
        assert shard.last_stats.depths[2] == 19
        assert shard.last_stats.cpu_seconds == 0.0
        assert supervisor.shed_transitions == []
        assert supervisor.shed_level(0) == 0
        assert supervisor.slot_state(0) == STATE_HEALTHY
        assert gateway.shard_closed(0) is None

    def test_calm_polls_deescalate_and_reopen_the_slot(self):
        supervisor, gateway, shards, clock, _ = make_pool(n_shards=1)
        hot = [make_stats(cpu=0.95 * t, wall=1.0 * t) for t in range(1, 4)]
        self.run_stats_ticks(supervisor, shards, clock, hot)
        assert supervisor.shed_level(0) == 1
        calm = [make_stats(cpu=hot[-1].cpu_seconds + 0.1 * t,
                           wall=hot[-1].wall_seconds + 1.0 * t)
                for t in range(1, 4)]
        self.run_stats_ticks(supervisor, shards, clock, calm)
        assert supervisor.shed_level(0) == 0
        assert shards[0].shed_level == 0
        assert supervisor.slot_state(0) == STATE_HEALTHY
        assert gateway.shard_closed(0) is None

    def test_deescalation_never_reopens_someone_elses_closure(self):
        supervisor, gateway, shards, clock, _ = make_pool(n_shards=1)
        supervisor.force_shed(0, 1)
        gateway.close_shard(0, REASON_SHARD_DOWN)  # a failover owns it now
        supervisor.force_shed(0, 0)
        assert gateway.shard_closed(0) == REASON_SHARD_DOWN

    def test_force_shed_validates_and_logs_transitions(self):
        supervisor, gateway, shards, clock, _ = make_pool(n_shards=1)
        supervisor.force_shed(0, 2)
        assert shards[0].shed_level == 2
        assert gateway.shard_closed(0) == REASON_SHARD_OVERLOADED
        supervisor.force_shed(0, 0)
        assert gateway.shard_closed(0) is None
        assert [(slot, level) for _, slot, level
                in supervisor.shed_transitions] == [(0, 2), (0, 0)]

    def test_a_forced_level_is_a_floor_for_calm_polls(self):
        supervisor, gateway, shards, clock, _ = make_pool(n_shards=1)
        supervisor.force_shed(0, 1)
        calm = [make_stats(cpu=0.1 * t, wall=1.0 * t)
                for t in range(1, 2 * RECOVER_POLLS + 2)]
        self.run_stats_ticks(supervisor, shards, clock, calm)
        assert supervisor.shed_level(0) == shards[0].shed_level == 1
        assert gateway.shard_closed(0) == REASON_SHARD_OVERLOADED
        assert [(slot, level) for _, slot, level
                in supervisor.shed_transitions] == [(0, 1)]

    def test_hot_polls_escalate_above_the_floor_and_calm_back_to_it(self):
        supervisor, gateway, shards, clock, _ = make_pool(n_shards=1)
        supervisor.force_shed(0, 1)
        hot = [make_stats(cpu=0.95 * t, wall=1.0 * t)
               for t in range(1, OVERLOAD_POLLS + 2)]
        self.run_stats_ticks(supervisor, shards, clock, hot)
        assert supervisor.shed_level(0) == 2
        calm = [make_stats(cpu=hot[-1].cpu_seconds + 0.1 * t,
                           wall=hot[-1].wall_seconds + 1.0 * t)
                for t in range(1, 3 * RECOVER_POLLS + 1)]
        self.run_stats_ticks(supervisor, shards, clock, calm)
        assert supervisor.shed_level(0) == shards[0].shed_level == 1
        assert supervisor.slot_state(0) == STATE_OVERLOADED
        assert [level for _, _, level
                in supervisor.shed_transitions] == [1, 2, 1]

    def test_failover_resets_the_shed_state(self):
        supervisor, gateway, shards, clock, _ = make_pool(n_shards=1)
        supervisor.force_shed(0, 2)
        gateway.shards[0].alive = False
        supervisor.tick(clock.now)
        assert supervisor.shed_level(0) == 0
        assert gateway.shards[0].shed_level == 0  # replacement is clean


class TestObsInstruments:
    def test_failover_histogram_state_gauge_and_shed_counters(self):
        with metrics(MetricsRegistry()) as registry:
            supervisor, gateway, shards, clock, _ = \
                make_pool(n_shards=1, flows_per_shard=2)
            # Shed bytes deltas flow into per-color counters.
            shards[0].last_stats = make_stats(
                wall=1.0, shed_bytes=[0, 0, 500, 0])
            supervisor.tick(clock.now)
            shards[0].last_stats = make_stats(
                wall=2.0, shed_bytes=[0, 250, 750, 0])
            clock.advance(0.25)
            supervisor.tick(clock.now)
            gateway.shards[0].alive = False
            clock.advance(0.25)
            supervisor.tick(clock.now)
            values = registry.values()
        assert values["counters"]["live_shed_bytes_red"] == 750
        assert values["counters"]["live_shed_bytes_yellow"] == 250
        assert "live_shed_bytes_green" not in values["counters"] or \
            values["counters"]["live_shed_bytes_green"] == 0
        assert values["gauges"]["supervisor_state_slot0"] == 0  # healthy
        histogram = values["histograms"]["supervisor_failover_seconds"]
        assert histogram["count"] == 1

    def test_no_registry_means_no_instruments(self):
        supervisor, _, _, _, _ = make_pool(n_shards=1)
        assert supervisor._failover_hist is None
        assert supervisor._shed_counters is None


class TestReport:
    def test_report_is_json_shaped(self):
        import json

        supervisor, gateway, shards, clock, _ = \
            make_pool(n_shards=2, flows_per_shard=1)
        gateway.shards[1].alive = False
        supervisor.tick(clock.now)
        report = supervisor.report()
        assert report["ticks"] == 1
        assert report["states"] == {0: STATE_HEALTHY, 1: STATE_HEALTHY}
        assert report["failovers"][0]["slot"] == 1
        assert report["failovers"][0]["latency"] >= 0.0
        json.dumps(report)  # must serialize as-is

    def test_report_carries_shard_send_errors(self):
        supervisor, _, shards, clock, _ = make_pool(n_shards=2)
        shards[1].last_stats = make_stats(send_errors=7)
        supervisor.tick(clock.now)
        assert supervisor.report()["send_errors"] == {0: 0, 1: 7}


class TestGatewaySlotControl:
    def test_close_open_and_reason_introspection(self):
        _, gateway, _, _, _ = make_pool(n_shards=2)
        gateway.close_shard(1, REASON_SHARD_OVERLOADED)
        assert gateway.shard_closed(1) == REASON_SHARD_OVERLOADED
        assert gateway.shard_closed(0) is None
        gateway.open_shard(1)
        assert gateway.shard_closed(1) is None
        with pytest.raises(IndexError):
            gateway.close_shard(5, REASON_SHARD_DOWN)

    def test_index_of_tracks_replacements(self):
        supervisor, gateway, shards, clock, _ = make_pool(n_shards=2)
        assert gateway.index_of(1) == 0
        shards[0].alive = False
        supervisor.tick(clock.now)
        assert gateway.index_of(1) is None
        assert gateway.index_of(3) == 0
