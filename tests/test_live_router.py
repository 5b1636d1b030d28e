"""Deterministic LiveRouter internals under a ManualClock or a Simulator.

The live loopback suite (``--live``) exercises the router end to end
against real sockets and wall time; these tests pin the service-path
*logic* — WRR byte shares, the credit-shortfall wait, overflow drop
accounting, the batched ingest fast path, the serve-on-arrival token
bucket and its backlog timer — with hand-built datagrams and no sleeps,
so they run in tier 1.  A started router keeps time through its clock,
so here the clock is a :class:`~repro.sim.engine.Simulator` and its
timers are events on the heap.  (The queue policy itself is
``PelsQueueCore``'s; ``test_pels_core_differential.py`` pins that this
router and the simulator's bottleneck serve one trace identically.)
"""

from __future__ import annotations

import asyncio
import socket
import time
from collections import deque

import pytest

from repro.core.clock import ManualClock, WallClock
from repro.core.feedback import FeedbackComputer
from repro.core.pels_queue import PELS_SHARE_SAFE_RANGE, PelsQueueConfig
from repro.live.loadgen import LoadConfig, _default_queue
from repro.live.router import LiveRouter
from repro.live.shard import ShardConfig, _snapshot
from repro.live.wire import (HEADER_SIZE, LivePacket, decode_packet,
                             encode_packet, peek_color, peek_flow_id,
                             peek_is_valid, peek_label, peek_ptype)
from repro.obs.trace import Tracer, tracing
from repro.sim.engine import Simulator
from repro.sim.packet import Color


def datagram(color: Color, flow_id: int = 0, seq: int = 0,
             size: int = 200) -> bytes:
    return encode_packet(LivePacket(flow_id=flow_id, seq=seq, color=color,
                                    sent_at=0.0, size=size))


class FakeTransport:
    """Captures (payload, destination) pairs the router forwards."""

    def __init__(self) -> None:
        self.sent = []

    def sendto(self, data: bytes, addr) -> None:
        self.sent.append((bytes(data), addr))


def make_router(**overrides) -> LiveRouter:
    defaults = dict(
        clock=ManualClock(),
        bottleneck_bps=1_000_000.0,
        config=PelsQueueConfig(pels_weight=0.5, internet_weight=0.5,
                               green_buffer=4, yellow_buffer=4,
                               red_buffer=4, internet_buffer=4,
                               quantum_bytes=1000),
    )
    defaults.update(overrides)
    router = LiveRouter(**defaults)
    router.transport = FakeTransport()
    router.dst_addr = ("127.0.0.1", 9)
    return router


class TestIngest:
    def test_classifies_by_color_into_separate_queues(self):
        router = make_router()
        for color in (Color.GREEN, Color.YELLOW, Color.RED,
                      Color.BEST_EFFORT):
            router._ingest(datagram(color))
        assert router.arrivals == [1, 1, 1, 1]
        for color in Color:
            assert router.queue_depth(color) == 1

    def test_truncated_and_garbage_color_datagrams_are_ignored(self):
        router = make_router()
        router._ingest(b"")
        router._ingest(b"\x00" * (HEADER_SIZE - 1))
        router._ingest(datagram(Color.GREEN)[:HEADER_SIZE - 1])
        for garbage in (4, 127, 200, 255):  # beyond BEST_EFFORT
            bad = bytearray(datagram(Color.GREEN))
            bad[20] = garbage
            router._ingest(bytes(bad))
            router._ingest(memoryview(bad))  # the raw-socket path's type
        assert router.arrivals == [0, 0, 0, 0]
        assert router.queue_depths() == [0, 0, 0, 0]
        assert router._pels_bytes == 0
        assert router._drain(10_000.0) == 10_000.0
        assert router.transport.sent == []

    def test_overflow_drops_are_counted_per_color(self):
        router = make_router()
        for seq in range(6):  # green_buffer is 4
            router._ingest(datagram(Color.GREEN, seq=seq))
        assert router.arrivals[Color.GREEN] == 6
        assert router.queue_depth(Color.GREEN) == 4
        assert router.drops[Color.GREEN] == 2
        assert router.drops[Color.YELLOW] == 0

    def test_pels_bytes_counted_before_drop_but_not_best_effort(self):
        # Eq. 11 counts arrivals at the port, including overflowed ones.
        router = make_router()
        for seq in range(5):
            router._ingest(datagram(Color.GREEN, seq=seq, size=200))
        router._ingest(datagram(Color.BEST_EFFORT, size=999))
        assert router._pels_bytes == 5 * 200


class TestServicePath:
    def test_strict_priority_inside_pels(self):
        router = make_router()
        for color in (Color.RED, Color.YELLOW, Color.GREEN):
            router._ingest(datagram(color))
        router._drain(10_000.0)
        colors = [peek_color(d) for d, _ in router.transport.sent]
        assert colors == [int(Color.GREEN), int(Color.YELLOW),
                          int(Color.RED)]
        assert router.forwarded == [1, 1, 1, 0]

    @staticmethod
    def assert_split_tracks_weight(pels_weight, size, quantum=1000, n=40):
        """Both aggregates backlogged: over every prefix of the
        forwarded sequence the PELS byte share stays within one
        quantum (one datagram, where that is larger) of its weight."""
        router = make_router(config=PelsQueueConfig(
            pels_weight=pels_weight, internet_weight=1 - pels_weight,
            green_buffer=n, internet_buffer=n, quantum_bytes=quantum))
        for seq in range(n):
            router._ingest(datagram(Color.GREEN, seq=seq, size=size))
            router._ingest(datagram(Color.BEST_EFFORT, seq=seq, size=size))
        assert router._drain(float("inf")) == float("inf")
        colors = [peek_color(d) for d, _ in router.transport.sent]
        assert sorted(colors) == [0] * n + [3] * n
        # Once one aggregate runs dry the other has the port to itself.
        backlogged = 1 + min(
            max(i for i, c in enumerate(colors) if c == kind)
            for kind in (0, 3))
        pels = total = 0
        for color in colors[:backlogged]:
            total += size
            pels += size if color == 0 else 0
            assert abs(pels - pels_weight * total) <= max(quantum, size)
        return colors

    def test_wrr_alternates_between_pels_and_internet(self):
        # L1's own defaults: 500 B datagrams, 50/50, quantum 1000.
        colors = self.assert_split_tracks_weight(0.5, size=500)
        assert colors[:6] != [0] * 6  # PPPP... until PELS ran dry, once

    @pytest.mark.parametrize("pels_weight", [0.75, 0.9])
    def test_wrr_byte_split_tracks_the_weight(self, pels_weight):
        self.assert_split_tracks_weight(pels_weight, size=548)

    @pytest.mark.parametrize("pels_weight", PELS_SHARE_SAFE_RANGE + (0.5,))
    @pytest.mark.parametrize("quantum", [1, 300, 1000])
    def test_one_drain_with_ample_credit_empties_the_port(
            self, pels_weight, quantum):
        # quantum 1 needs hundreds of DRR rounds a datagram: the port
        # must neither give up with a backlog nor lose the weighting.
        self.assert_split_tracks_weight(pels_weight, size=548,
                                        quantum=quantum)

    def test_best_effort_into_the_load_run_config_is_not_wedged(self):
        # loadgen's queue gives the Internet FIFO weight 1e-6: one
        # stray best-effort datagram waits behind PELS, then goes.
        def scenario(router, sim):
            router._ingest(datagram(Color.BEST_EFFORT, size=500))
            for seq in range(8):
                router._ingest(datagram(Color.GREEN, seq=seq, size=500))
            advance(sim, 0.002)  # 2 Gb/s x 2 ms covers everything
            router._service()
            colors = [peek_color(d) for d, _ in router.transport.sent]
            assert colors == [0] * 8 + [3]
            assert router.queue_depths() == [0, 0, 0, 0]
            assert not router._timer and backlog_timers(sim, router) == []
        run_started(scenario, bottleneck_bps=2e9, config=_default_queue())

    def test_credit_shortfall_puts_datagram_back_at_head(self):
        router = make_router()
        router._ingest(datagram(Color.GREEN, seq=0, size=400))
        router._ingest(datagram(Color.GREEN, seq=1, size=400))
        leftover = router._drain(500.0)  # covers one datagram, not two
        assert len(router.transport.sent) == 1
        assert leftover == pytest.approx(100.0)
        # The un-served datagram never left the port: it is counted
        # once and goes next.
        assert router.queue_depth(Color.GREEN) == 1
        assert router.forwarded[Color.GREEN] == 1
        assert router._drain(400.0) == 0.0
        assert [decode_packet(d).seq for d, _ in router.transport.sent] \
            == [0, 1]
        assert router.forwarded[Color.GREEN] == 2

    def test_put_back_preserves_fifo_order(self):
        router = make_router()
        for seq in range(3):
            router._ingest(datagram(Color.GREEN, seq=seq, size=400))
        router._drain(450.0)
        router._drain(10_000.0)
        seqs = [decode_packet(d).seq for d, _ in router.transport.sent]
        assert seqs == [0, 1, 2]

    def test_empty_aggregate_forfeits_deficit(self):
        # Standard DRR: an idle Internet FIFO must not bank credit and
        # later burst past the PELS aggregate.
        router = make_router(config=PelsQueueConfig(
            green_buffer=64, internet_buffer=64, quantum_bytes=1000))
        for seq in range(20):  # PELS alone: Internet's turns pass idle
            router._ingest(datagram(Color.GREEN, seq=seq, size=500))
        router._drain(float("inf"))
        del router.transport.sent[:]
        for seq in range(20):
            router._ingest(datagram(Color.GREEN, seq=seq, size=500))
            router._ingest(datagram(Color.BEST_EFFORT, seq=seq, size=500))
        router._drain(float("inf"))
        colors = [peek_color(d) for d, _ in router.transport.sent]
        assert colors[:8].count(3) <= 5  # a quantum ahead at most

    def test_label_stamped_on_pels_not_best_effort(self):
        router = make_router()
        router.feedback.close(100_000, elapsed=0.030)  # nonzero loss
        router._ingest(datagram(Color.GREEN))
        router._ingest(datagram(Color.BEST_EFFORT))
        router._drain(10_000.0)
        by_color = {peek_color(d): d for d, _ in router.transport.sent}
        green_router_id, _, green_loss = peek_label(by_color[0])
        be_router_id, _, _ = peek_label(by_color[3])
        assert green_router_id == 1 and green_loss > 0
        assert be_router_id == 0

    def test_flow_routes_override_default_destination(self):
        router = make_router()
        router.flow_routes[7] = ("10.0.0.7", 1234)
        router._ingest(datagram(Color.GREEN, flow_id=7))
        router._ingest(datagram(Color.GREEN, flow_id=8))
        router._drain(10_000.0)
        destinations = {peek_flow_id(d): addr
                        for d, addr in router.transport.sent}
        assert destinations[7] == ("10.0.0.7", 1234)
        assert destinations[8] == ("127.0.0.1", 9)

    def test_serve_credit_accrues_with_manual_clock(self):
        # 1 mb/s for 0.01 s = 1250 bytes of credit.
        clock = ManualClock()
        router = make_router(clock=clock)
        for seq in range(4):
            router._ingest(datagram(Color.GREEN, seq=seq, size=400))
        clock.advance(0.01)
        credit = router._drain(0.01 * router.bottleneck_bps / 8)
        assert len(router.transport.sent) == 3  # 1250 // 400
        assert credit == pytest.approx(1250.0 - 1200.0)


class TimerLog(Simulator):
    """A Simulator that also logs what is armed on it, as ``(delay,
    callback)``, so a test can count the router's timers without firing
    them by hand."""

    def __init__(self) -> None:
        super().__init__(seed=1)
        self.armed = []

    def call_later(self, delay, callback, *args) -> None:
        self.armed.append((delay, callback))
        super().call_later(delay, callback, *args)


def backlog_timers(sim: TimerLog, router: LiveRouter):
    return [arm for arm in sim.armed if arm[1] == router._on_timer]


def service_calls(sim: TimerLog, router: LiveRouter):
    return [arm for arm in sim.armed if arm[1] == router._service]


def advance(sim: Simulator, dt: float) -> None:
    sim.run(until=sim.now + dt)


class FakeSocket:
    """A non-blocking UDP socket's surface as the router uses it."""

    def __init__(self, send_error=None) -> None:
        self.pending = deque()
        self.sent = []
        self.send_error = send_error

    def recv_into(self, buffer) -> int:
        if not self.pending:
            raise BlockingIOError
        data = self.pending.popleft()
        buffer[:len(data)] = data
        return len(data)

    def sendto(self, data, addr) -> None:
        if self.send_error is not None:
            raise self.send_error
        self.sent.append((bytes(data), addr))

    def fileno(self) -> int:
        return -1


def flood_batch(size: int = 500):
    """64 datagrams, 8:40:16 green:yellow:red, interleaved."""
    colors = [Color.GREEN] * 8 + [Color.YELLOW] * 40 + [Color.RED] * 16
    return [datagram(colors[(i * 37) % 64], seq=i, size=size)
            for i in range(64)]


def run_started(scenario, raw_socket: bool = False, **overrides):
    """``scenario(router, sim)`` on a router started on a
    :class:`TimerLog`: its epoch and backlog timers and its coalesced
    service calls are events on the simulator's heap, and time moves
    only by ``sim.run``.
    """
    sim = TimerLog()
    router = make_router(clock=sim, **overrides)
    if raw_socket:
        router.transport = None
        router._sock = FakeSocket()
    router.start()
    try:
        return scenario(router, sim)
    finally:
        asyncio.run(router.stop())


class TestTokenBucketService:
    def test_ingest_with_credit_is_forwarded_by_the_same_wake(self):
        def scenario(router, sim):
            advance(sim, 0.01)  # 1 mb/s x 10 ms = 1250 B of credit
            for seq in range(3):
                router._sock.pending.append(
                    datagram(Color.GREEN, seq=seq, size=400))
            router._on_readable()
            assert [decode_packet(d).seq for d, _ in router._sock.sent] \
                == [0, 1, 2]
            assert router.queue_depths() == [0, 0, 0, 0]
            assert not router._timer and backlog_timers(sim, router) == []
        run_started(scenario, raw_socket=True)

    def test_credit_shortfall_arms_exactly_one_timer(self):
        def scenario(router, sim):
            for seq in range(3):
                router._ingest(datagram(Color.GREEN, seq=seq, size=400))
            router._service()  # no time has passed: no credit
            assert router.transport.sent == []
            assert router._timer and len(backlog_timers(sim, router)) == 1
            (first,) = backlog_timers(sim, router)
            assert first[0] >= router.service_tick
            # Further ingest wakes serve but never arm a second timer.
            router._ingest(datagram(Color.GREEN, seq=3, size=400))
            router._service()
            assert backlog_timers(sim, router) == [first]

            # 4 ms at 1 mb/s = 500 B: the fire covers one datagram,
            # keeps the 100 B remainder and re-arms for the backlog.
            advance(sim, 0.004)
            assert len(router.transport.sent) == 1
            assert router._credit == pytest.approx(100.0)
            assert router._timer and len(backlog_timers(sim, router)) == 2

            # A long stall earns the burst cap (2 x quantum), not more;
            # it clears the backlog and nothing is re-armed.  (A loop
            # that stalls fires its timer late, which a simulator never
            # does: the late fire is made by hand.)
            sim.now += 1.0
            router._on_timer()
            assert len(router.transport.sent) == 4
            assert router._credit == pytest.approx(2000.0 - 3 * 400)
            assert not router._timer and len(backlog_timers(sim, router)) == 2
        # A 4 ms tick, so the first fire is the 4 ms this test steps.
        run_started(scenario, service_tick=0.004)

    def test_idle_router_holds_no_timer(self):
        def scenario(router, sim):
            assert not router._timer
            advance(sim, 5.0)
            router._service()
            assert not router._timer
            assert backlog_timers(sim, router) == [] \
                and service_calls(sim, router) == []
        run_started(scenario)

    def test_stop_cancels_the_timer_and_is_idempotent(self):
        sim = TimerLog()
        router = make_router(clock=sim)
        asyncio.run(router.stop())  # before start(): nothing to undo
        router.start()
        router._ingest(datagram(Color.GREEN))
        router._service()
        assert router._timer and len(backlog_timers(sim, router)) == 1
        asyncio.run(router.stop())
        asyncio.run(router.stop())
        # A coalesced service call that outlives stop() is inert.
        router._service()
        assert len(backlog_timers(sim, router)) == 1
        # So are the timers armed before it: they fire into a no-op,
        # serve nothing and re-arm nothing.
        sim.run(until=1.0)
        assert not router._timer and sim.pending() == 0
        assert router.transport.sent == []
        assert router.queue_depth(Color.GREEN) == 1

    def test_load_run_default_buffers_hold_100k_pps_at_2_gbps(self):
        # PR 11 finding: the load-run default red_buffer=64 dropped red
        # at 80k+ pps even at 2 Gb/s, because the queues only emptied
        # once per 2 ms tick.  Served on arrival, 64-datagram batches
        # every 0.64 ms never leave a datagram behind.
        def scenario(router, sim):
            batch = flood_batch()
            for _ in range(200):
                advance(sim, 64 / 100_000)
                router._sock.pending.extend(batch)
                router._on_readable()
                assert router.queue_depths() == [0, 0, 0, 0]
            assert router.drops == [0, 0, 0, 0]
            assert sum(router.forwarded) == len(router._sock.sent) == 12_800
            assert backlog_timers(sim, router) == []
        queue = LoadConfig().queue
        assert queue.red_buffer == 64
        run_started(scenario, raw_socket=True, bottleneck_bps=2e9,
                    config=queue)

    def test_saturated_port_conserves_rate_and_priority(self):
        # One simulated second of 20k pps x 500 B (80 Mb/s) into
        # 50 Mb/s: arrivals every 3.2 ms, the backlog timer in between.
        rate = 50e6 / 8

        def scenario(router, sim):
            violations = []

            def checked_sendto(data, addr, send=router.transport.sendto):
                color = peek_color(data)
                if any(router.queue_depths()[:color]):
                    violations.append(color)
                send(data, addr)
            router.transport.sendto = checked_sendto

            batch = flood_batch()

            def arrive() -> None:
                for data in batch:
                    router._ingest(data)
                router._service()
                sim.call_later(0.0032, arrive)
            sim.call_later(0.0032, arrive)
            sim.run(until=1.0)

            sent_bytes = sum(len(d) for d, _ in router.transport.sent)
            assert sent_bytes <= rate * 1.0 + router._burst_bytes
            assert sent_bytes >= 0.98 * rate * 1.0
            assert violations == []
            assert router.drops[Color.GREEN] == 0
            loss = [router.drops[c] / router.arrivals[c] for c in (0, 1, 2)]
            assert loss[2] >= loss[1] >= loss[0] == 0.0
            # Tick-sized bursts: the timer never fires faster than the
            # tick, so a second holds at most 500 of them.
            timers = backlog_timers(sim, router)
            assert all(delay >= router.service_tick for delay, _ in timers)
            assert 0 < len(timers) <= 500
        run_started(scenario, bottleneck_bps=50e6, config=PelsQueueConfig(
            pels_weight=1.0, internet_weight=1e-6, green_buffer=64,
            yellow_buffer=128, red_buffer=64, internet_buffer=16))


class TestEpochStep:
    """``close_epoch(now)`` is the whole Eq. 11 epoch, synchronously:
    no loop, no task, no sleep."""

    #: 12 x 400 B per ~30 ms = 1.28 mb/s into C = 0.5 mb/s: p > 0.
    BURST = 12

    def offer(self, router) -> int:
        for seq in range(self.BURST):
            router._ingest(datagram(Color.GREEN, seq=seq, size=400))
        router._drain(float("inf"))
        return self.BURST * 400

    def test_each_step_closes_one_epoch_on_the_measured_interval(self):
        clock = ManualClock()
        with tracing(Tracer()) as tracer:
            router = make_router(clock=clock)
        oracle = FeedbackComputer(router.feedback.capacity_bps,
                                  interval=router.interval)
        hooked = []
        router.feedback.epoch_hook = lambda log: hooked.append(
            (log.epoch, len(log.loss_series), len(log.rate_series),
             sum(e["type"] == "epoch" for e in tracer.to_dicts())))
        # Nominal T, an overshooting timer, nominal again: Eq. 11
        # divides by the time that actually passed.
        for step, elapsed in enumerate((0.030, 0.047, 0.030), start=1):
            offered = self.offer(router)
            clock.advance(elapsed)
            router.close_epoch(clock.now)
            expected = oracle.close(offered, elapsed=elapsed)
            assert router.feedback.label == expected
            assert router.feedback.loss == oracle.loss > 0
            assert router.feedback.rate_bps == oracle.rate_bps
            assert router._pels_bytes == 0
            # Logged, traced, then announced - once, in that order.
            assert hooked[-1] == (step, step, step, step)
            assert len(hooked) == step
            assert router.feedback.loss_series.times[-1] == clock.now
            assert router.feedback.loss_series.values[-1] == oracle.loss
            assert router.feedback.rate_series.values[-1] == oracle.rate_bps
        # The physical-loss windows close with the epoch: the port
        # drained between bursts, so 8 of every 12 greens overflowed.
        assert router.core.losses.series[Color.GREEN].values == [8 / 12] * 3

    def test_restart_is_survived(self):
        clock = ManualClock()
        router = make_router(clock=clock)
        hooked = []
        router.feedback.epoch_hook = lambda log: hooked.append(log.epoch)
        for _ in range(3):
            self.offer(router)
            clock.advance(0.030)
            router.close_epoch(clock.now)
        router.feedback.restart()
        assert router.feedback.label.epoch == 0
        self.offer(router)
        clock.advance(0.030)
        router.close_epoch(clock.now)
        # z re-counts from boot; the window was wiped, so R is this one
        # interval's; the log and the hook carry on.
        assert hooked == [1, 2, 3, 1]
        assert router.feedback.rate_bps == pytest.approx(
            self.BURST * 400 * 8 / 0.030)
        assert len(router.feedback.loss_series) == 4

    def test_started_router_measures_from_its_start_instant(self):
        sim = Simulator()
        router = make_router(clock=sim, interval=0.040)
        advance(sim, 5.0)  # built long before it is started
        router.start()
        try:
            self.offer(router)
            advance(sim, 0.040)  # the router's own epoch timer closes it
            assert router.feedback.epoch == 1
            assert router.feedback.rate_bps == pytest.approx(
                self.BURST * 400 * 8 / 0.040)
        finally:
            asyncio.run(router.stop())


class TestProtocolModeCoalescing:
    def test_one_service_call_per_loop_iteration(self):
        def scenario(router, sim):
            advance(sim, 0.01)
            for seq in range(3):
                router.datagram_received(
                    datagram(Color.GREEN, seq=seq, size=400), None)
            assert len(service_calls(sim, router)) == 1
            assert router.transport.sent == []  # served by the callback
            sim.run(until=sim.now)  # the rest of this instant
            assert len(router.transport.sent) == 3
            # The next iteration's first arrival schedules again.
            router.datagram_received(datagram(Color.GREEN, seq=3), None)
            assert len(service_calls(sim, router)) == 2
        run_started(scenario)

    def test_real_loop_runs_the_coalesced_call_once(self):
        async def main():
            # A WallClock arms on the running loop; at 100 Gb/s the
            # microseconds before the call earn the credit it needs.
            clock = WallClock()
            router = make_router(clock=clock, bottleneck_bps=1e11)
            router.start()
            calls = []
            service = router._service
            router._service = lambda: (calls.append(clock.now), service())
            try:
                for seq in range(3):
                    router.datagram_received(
                        datagram(Color.GREEN, seq=seq, size=400), None)
                # A zero-delay timer runs in the loop's next iteration,
                # behind what was ready before it (this task's resume):
                # two iterations, no waiting.
                await asyncio.sleep(0)
                await asyncio.sleep(0)
                assert len(calls) == 1
                assert len(router.transport.sent) == 3
            finally:
                await router.stop()
        asyncio.run(main())

    def test_unstarted_router_schedules_nothing(self):
        # No loop is needed to ingest: the hot-path benches and the
        # ledger's ingest probe drive datagram_received bare.
        router = make_router()
        router.datagram_received(datagram(Color.GREEN), None)
        assert router.queue_depth(Color.GREEN) == 1
        assert not router._service_scheduled

    def test_forward_hands_the_transport_the_queued_bytearray(self):
        router = make_router()
        seen = []
        router.transport.sendto = lambda data, addr: seen.append(data)
        router._ingest(datagram(Color.GREEN))
        router._drain(10_000.0)
        assert type(seen[0]) is bytearray  # no bytes() copy per forward


class TestSendErrors:
    def test_refused_sends_are_counted_and_reported(self):
        router = make_router()
        router.transport = None
        router._sock = FakeSocket(send_error=BlockingIOError())
        for seq in range(3):
            router._ingest(datagram(Color.GREEN, seq=seq))
        router._drain(10_000.0)
        # The queues served them; the socket lost them.
        assert router.forwarded[Color.GREEN] == 3
        assert router.drops == [0, 0, 0, 0]
        assert router.send_errors == 3
        stats = _snapshot(router, ShardConfig(), 0, time.monotonic())
        assert stats.send_errors == 3


class TestRawSocketBatching:
    def test_on_readable_drains_up_to_recv_batch(self):
        router = make_router(recv_batch=8)
        receiver = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        receiver.bind(("127.0.0.1", 0))
        receiver.setblocking(False)
        sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            for seq in range(12):
                sender.sendto(datagram(Color.GREEN, seq=seq),
                              receiver.getsockname())
            router.transport = None
            router._sock = receiver
            router._on_readable()
            assert router.arrivals[Color.GREEN] == 8  # one batch
            router._on_readable()
            assert router.arrivals[Color.GREEN] == 12  # drained dry
            # Overflowed past green_buffer=4: drop accounting intact.
            assert router.drops[Color.GREEN] == 8
        finally:
            sender.close()
            receiver.close()

    def test_constructor_rejects_bad_recv_batch(self):
        with pytest.raises(ValueError):
            make_router(recv_batch=0)


class TestLayeredShedding:
    def test_level_one_sheds_red_only(self):
        router = make_router()
        router.set_shed_level(1)
        for color in (Color.GREEN, Color.YELLOW, Color.RED,
                      Color.BEST_EFFORT):
            router._ingest(datagram(color))
        assert router.shed_packets == [0, 0, 1, 0]
        assert router.queue_depth(Color.RED) == 0
        assert router.queue_depth(Color.GREEN) == 1
        assert router.queue_depth(Color.YELLOW) == 1
        assert router.queue_depth(Color.BEST_EFFORT) == 1

    def test_level_two_sheds_red_and_yellow_never_green(self):
        router = make_router()
        router.set_shed_level(2)
        for color in (Color.GREEN, Color.YELLOW, Color.RED,
                      Color.BEST_EFFORT):
            router._ingest(datagram(color, size=300))
        assert router.shed_packets == [0, 1, 1, 0]
        assert router.shed_bytes[Color.YELLOW] == \
            router.shed_bytes[Color.RED] > 0
        assert router.queue_depth(Color.GREEN) == 1
        assert router.queue_depth(Color.BEST_EFFORT) == 1

    def test_shed_packets_still_count_as_offered_load(self):
        # Eq. 11's virtual loss is computed over *offered* load — a
        # shed packet must still appear in arrivals and _pels_bytes so
        # upstream senders see the loss signal and back off.
        router = make_router()
        router.set_shed_level(1)
        for seq in range(3):
            router._ingest(datagram(Color.RED, seq=seq, size=200))
        assert router.arrivals[Color.RED] == 3
        assert router._pels_bytes == 3 * 200
        assert router.drops[Color.RED] == 0  # shed, not overflow

    def test_level_zero_restores_forwarding(self):
        router = make_router()
        router.set_shed_level(2)
        router._ingest(datagram(Color.RED, seq=0))
        router.set_shed_level(0)
        router._ingest(datagram(Color.RED, seq=1))
        assert router.queue_depth(Color.RED) == 1
        assert router.shed_packets[Color.RED] == 1

    def test_shed_level_validation_and_depth_introspection(self):
        router = make_router()
        for level in (-1, 3):
            with pytest.raises(ValueError):
                router.set_shed_level(level)
        router._ingest(datagram(Color.GREEN))
        router._ingest(datagram(Color.YELLOW))
        assert router.queue_depths() == [1, 1, 0, 0]


class TestWirePeeks:
    def test_peeks_agree_with_full_decode(self):
        data = encode_packet(LivePacket(flow_id=321, seq=5,
                                        color=Color.YELLOW, router_id=9,
                                        epoch=4, loss=0.25, sent_at=1.5,
                                        size=300))
        assert peek_flow_id(data) == 321
        assert peek_color(data) == int(Color.YELLOW)
        assert peek_ptype(data) == 0
        assert peek_label(data) == (9, 4, 0.25)
        assert peek_is_valid(data)

    def test_peek_is_valid_rejects_garbage(self):
        assert not peek_is_valid(b"short")
        data = bytearray(encode_packet(LivePacket(flow_id=1, seq=0)))
        data[0] ^= 0xFF  # corrupt the magic
        assert not peek_is_valid(bytes(data))
