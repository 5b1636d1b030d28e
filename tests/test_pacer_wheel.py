"""The live sender's pacer wheel, deterministically.

``LiveServer`` keeps its flows in ``n = max(1, min(flows, pace_tick /
MIN_STEP))`` slots (flow *i*, admission order, in slot ``i mod n``) and
one timer, re-armed with the clock's ``call_at``, steps slot ``k mod n``
at ``t0 + k * pace_tick / n``.  Nothing here opens a socket: the slot
rule and the synchronous step run under a :class:`ManualClock`, the
timer on a :class:`~repro.sim.engine.Simulator` clock — except where a
step must cost time or the loop must stall, which a simulator never
does: those tests keep :class:`LateClock`, whose timers fire late when
the test says so.  One short test runs the wheel on a ``WallClock``
over a real asyncio loop.
"""

from __future__ import annotations

import asyncio
import heapq
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clock import ManualClock, WallClock
from repro.live.server import MIN_STEP, LiveServer
from repro.live.wire import decode_packet
from repro.sim.engine import Simulator
from repro.video.fgs import FgsConfig


class CapturingTransport:
    def __init__(self) -> None:
        self.sent = []

    def sendto(self, data, addr) -> None:
        self.sent.append(decode_packet(data))


class LateClock(ManualClock):
    """A hand-moved clock with the wheel's timer call.

    ``run_until`` fires the pending timers in deadline order, moving the
    clock to each deadline first — unless the clock is already past it
    (a stall the test injected, or work a step charged), in which case
    the timer fires late, as on a real loop.
    """

    def __init__(self) -> None:
        super().__init__()
        self.pending = []
        self._seq = 0

    def call_at(self, when, fn, *args) -> None:
        self._seq += 1
        heapq.heappush(self.pending, (when, self._seq, fn, args))

    def run_until(self, until: float) -> None:
        while self.pending and self.pending[0][0] <= until:
            when, _, fn, args = heapq.heappop(self.pending)
            self.now = max(self.now, when)
            fn(*args)
        self.now = max(self.now, until)


def make_server(flows: int, pace_tick: float, frame_interval: float = 0.1,
                rate_bps: float = 29_840.0, clock=None) -> LiveServer:
    """100-byte packets at a rate that earns 37.3 B of credit per 10 ms
    tick: under one packet a tick, and never exactly a packet."""
    server = LiveServer(
        clock or ManualClock(), flows, pace_tick=pace_tick,
        fgs=FgsConfig(packet_size=100, frame_packets=64, green_packets=8,
                      frame_interval=frame_interval),
        controller_kwargs={"initial_rate_bps": rate_bps,
                           "min_rate_bps": 1_000.0})
    server.connection_made(CapturingTransport())
    server.dst_addr = ("127.0.0.1", 9)
    return server


def started(server: LiveServer, work: float = 0.0):
    """Start ``server`` on its clock; every ``advance`` is recorded as
    ``(now, slot)`` and (on a :class:`LateClock`) charges ``work``
    seconds to the clock."""
    steps = []
    advance = server.advance

    def recording(now, slot=None):
        steps.append((now, slot))
        advance(now, slot)
        server.clock.now += work

    server.advance = recording
    server.start()
    return steps


# -- (a) the slot rule --------------------------------------------------------

@given(flows=st.integers(1, 2_000), tick_ms=st.integers(1, 50))
@settings(max_examples=60, deadline=None)
def test_slots_partition_the_flows_evenly(flows, tick_ms):
    pace_tick = tick_ms / 1000
    server = LiveServer(ManualClock(), flows, pace_tick=pace_tick)
    slots = server.slots
    members = [flow.flow_id for slot in slots for flow in slot]
    assert sorted(members) == list(range(flows))  # disjoint, complete
    sizes = [len(slot) for slot in slots]
    assert max(sizes) - min(sizes) <= 1
    assert 1 <= len(slots) <= flows
    assert len(slots) <= pace_tick / MIN_STEP
    for k, slot in enumerate(slots):
        assert [flow.flow_id % len(slots) for flow in slot] == [k] * len(slot)


def test_slot_follows_admission_order_not_flow_id():
    server = LiveServer(ManualClock(), 0, pace_tick=0.002,
                        flow_ids=[40, 7, 19, 3, 8])
    assert [[f.flow_id for f in slot] for slot in server.slots] == \
        [[40, 19, 8], [7, 3]]


def test_a_tick_under_the_floor_is_one_slot():
    assert len(LiveServer(ManualClock(), 9, pace_tick=0.0004).slots) == 1


# -- (b) head-of-line fence ---------------------------------------------------

@pytest.mark.parametrize("flows,pace_tick", [
    (400, 0.010), (1_000, 0.010), (50, 0.005), (3, 0.010), (7, 0.001)])
def test_one_wake_steps_at_most_a_slice(flows, pace_tick):
    """What stands between a datagram on the socket and the loop reading
    it is one ``advance(now, slot)``: at most ⌈N/n⌉ flows, where the
    per-tenant grouping stepped N/4 (100 of the ledger's 400)."""
    server = make_server(flows, pace_tick)
    n = len(server.slots)
    assert n == max(1, min(flows, round(pace_tick / MIN_STEP)))
    server.advance(0.0)
    server.advance(0.15)  # past every phase offset: all flows mid-frame
    visited = Counter()
    for slot in range(n):
        now = 0.2 + slot * pace_tick / n
        server.advance(now, slot)
        stepped = [f.flow_id for f in server.flows.values() if f.last == now]
        assert len(stepped) <= math.ceil(flows / n)
        visited.update(stepped)
    # ... and one rotation is one step of every flow.
    assert visited == Counter(range(flows))


# -- (c) the wheel paces what one advance(now) per tick paced -----------------

def sent_per_flow(server: LiveServer):
    out = {flow_id: [] for flow_id in server.flows}
    for packet in server.transport.sent:
        out[packet.flow_id].append(
            (packet.seq, packet.color, packet.frame_id))
    return out


@pytest.mark.parametrize("flows", [1, 4, 23, 57])
def test_rotation_emits_what_the_whole_tick_step_emitted(flows):
    """Stepping the slots in rotation across each tick against the
    parent's one ``advance(now)`` per tick, 60 ticks.  With the frame
    interval a whole number of ticks, a flow's steps are the same steps
    ``k * pace_tick / n`` later, so it emits the same packets in the
    same order; the offset can only carry it across a frame deadline
    one step early, which is at most the one packet a tick's credit
    buys."""
    pace_tick, ticks = 0.010, 60
    whole = make_server(flows, pace_tick)
    wheel = make_server(flows, pace_tick)
    n = len(wheel.slots)
    for tick in range(ticks):
        whole.advance(tick * pace_tick)
        for slot in range(n):
            wheel.advance(tick * pace_tick + slot * pace_tick / n, slot)
    expected, got = sent_per_flow(whole), sent_per_flow(wheel)
    ahead = 0
    for flow_id in whole.flows:
        reference, rotated = expected[flow_id], got[flow_id]
        assert len(reference) > 10
        assert rotated[:len(reference)] == reference
        assert len(rotated) - len(reference) in (0, 1)
        ahead += len(rotated) - len(reference)
    assert flows < 4 or ahead > 0  # the offset is really there


# -- the timer: period, stall, retire, stop -----------------------------------

@pytest.mark.parametrize("flows,work_share", [(400, 0.0), (400, 0.6),
                                              (3, 0.6), (1, 0.9)])
def test_period_is_the_tick_whatever_a_step_costs(flows, work_share):
    """Absolute deadlines: K ticks step every slot K ± 1 times even
    when each step eats most of its interval (``sleep(pace_tick)`` after
    the work made the period tick + work)."""
    pace_tick, ticks = 0.010, 50
    clock = LateClock()
    server = make_server(flows, pace_tick, clock=clock)
    step = pace_tick / len(server.slots)
    steps = started(server, work=work_share * step)
    clock.run_until(ticks * pace_tick)
    per_slot = Counter(slot for _, slot in steps)
    assert set(per_slot) == set(range(len(server.slots)))
    assert all(abs(count - ticks) <= 1 for count in per_slot.values())
    # In rotation, each at (not before) its own deadline.
    assert [slot for _, slot in steps[:2 * len(server.slots)]] == \
        list(range(len(server.slots))) * 2
    assert all(now >= k * step - 1e-12 for k, (now, _) in enumerate(steps))
    assert len(clock.pending) == 1


def test_a_stall_reanchors_with_one_step_not_a_burst():
    pace_tick = 0.010
    clock = LateClock()
    server = make_server(40, pace_tick, clock=clock)
    step = pace_tick / len(server.slots)
    steps = started(server)
    clock.run_until(3 * pace_tick)
    before = len(steps)
    stalled_until = clock.now + 4.5 * pace_tick  # 45 missed steps
    clock.now = stalled_until
    clock.run_until(stalled_until + 0.999 * step)
    assert [now for now, _ in steps[before:]] == [stalled_until]
    ((when, *_),) = clock.pending
    assert when == pytest.approx(stalled_until + step)
    # The rotation resumes where it stopped, at the tick's pace.
    clock.run_until(stalled_until + pace_tick + step / 2)
    resumed = steps[before:]
    assert [slot for _, slot in resumed[:3]] == \
        [(steps[before - 1][1] + k) % len(server.slots) for k in (1, 2, 3)]
    assert len(resumed) == len(server.slots) + 1


def test_slightly_late_steps_keep_the_absolute_grid():
    """Late by less than a step is not a stall: the next deadline stays
    on the grid (no drift), it is not pushed out by the lateness."""
    clock = LateClock()
    server = make_server(10, 0.010, clock=clock)
    steps = started(server)
    clock.run_until(0.0)
    clock.now = 0.0014  # busy elsewhere: the 1 ms step fires late
    clock.run_until(0.0014)
    assert steps == [(0.0, 0), (0.0014, 1)]
    ((when, *_),) = clock.pending
    assert when == pytest.approx(0.002)


def test_retired_flows_leave_the_wheel_but_stay_queryable():
    sim = Simulator()
    server = make_server(25, 0.010, clock=sim)
    started(server)
    sim.run(until=0.25)
    for flow_id in (0, 10, 13):
        server.retire_flow(flow_id)
    assert all(server.flows[fid] not in slot
               for fid in (0, 10, 13) for slot in server.slots)
    assert sum(len(slot) for slot in server.slots) == 22
    sent = {fid: server.flows[fid].packets_sent for fid in server.flows}
    logged = {fid: dict(server.flows[fid].frame_log) for fid in (0, 10, 13)}
    sim.run(until=0.5)
    for fid, flow in server.flows.items():
        if fid in logged:
            assert flow.packets_sent == sent[fid] > 0
            assert flow.frame_log == logged[fid] != {}
        else:
            assert flow.packets_sent > sent[fid]


@pytest.mark.parametrize("flows", [1, 7, 400])
def test_one_handle_whatever_the_flow_count_and_none_after_stop(flows):
    sim = Simulator()
    server = make_server(flows, 0.010, clock=sim)
    steps = started(server)
    assert sim.pending() == 1
    with pytest.raises(RuntimeError):
        server.start()
    sim.run(until=0.05)
    assert sim.pending() == 1
    server.stop()
    # The armed timer fires into a no-op and re-arms nothing.
    done = len(steps)
    sim.run(until=1.0)
    assert sim.pending() == 0
    assert len(steps) == done
    server.stop()  # sessions stop twice


def test_cross_traffic_keeps_its_budget_and_stops_with_the_server():
    """The CBR timer's jittered wakes spend exactly ``cbr_rate_bps``
    (400 kb/s of 100-byte datagrams: 500 a second), and stop with it."""
    sim = Simulator()
    server = make_server(1, 0.005, clock=sim)
    server.cbr_rate_bps = 400_000.0
    started(server)
    sim.run(until=1.0)
    # The last wake is at most 1.5 ticks (7.5 ms, 3.75 datagrams) old.
    assert 496 <= server.cross_packets_sent <= 500
    server.stop()
    sent = server.cross_packets_sent
    sim.run(until=2.0)
    assert server.cross_packets_sent == sent and sim.pending() == 0


def test_on_a_real_loop():
    """The same timer calls on a ``WallClock`` over asyncio's own loop
    (no sockets; 60 ms of wall clock)."""
    steps = []

    async def main():
        server = make_server(3, 0.005, clock=WallClock())
        advance = server.advance
        server.advance = lambda now, slot=None: (steps.append(slot),
                                                 advance(now, slot))
        server.start()
        await asyncio.sleep(0.06)
        server.stop()
        done = len(steps)
        await asyncio.sleep(0.02)
        return done

    done = asyncio.run(main())
    assert len(steps) == done >= 6
    assert steps[:6] == [0, 1, 2, 0, 1, 2]
