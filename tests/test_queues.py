"""Unit tests for drop-tail and RED queue disciplines."""

from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.pels_queue import PelsBottleneckQueue, PelsQueueConfig
from repro.sim.packet import Color, Packet
from repro.sim.queues import DropTailQueue, REDQueue


def pkt(size: int = 500, flow: int = 1) -> Packet:
    return Packet(flow_id=flow, size=size)


class TestDropTail:
    def test_fifo_order(self):
        q = DropTailQueue(capacity_packets=10)
        first, second = pkt(), pkt()
        q.enqueue(first)
        q.enqueue(second)
        assert q.dequeue() is first
        assert q.dequeue() is second
        assert q.dequeue() is None

    def test_packet_capacity_enforced(self):
        q = DropTailQueue(capacity_packets=2)
        assert q.enqueue(pkt())
        assert q.enqueue(pkt())
        assert not q.enqueue(pkt())
        assert len(q) == 2
        assert q.stats.drops == 1

    def test_byte_capacity_enforced(self):
        q = DropTailQueue(capacity_packets=None, capacity_bytes=1000)
        assert q.enqueue(pkt(600))
        assert not q.enqueue(pkt(600))
        assert q.enqueue(pkt(400))
        assert q.byte_count == 1000

    def test_requires_some_bound(self):
        with pytest.raises(ValueError):
            DropTailQueue(capacity_packets=None, capacity_bytes=None)

    def test_drop_callback_invoked_with_reason(self):
        q = DropTailQueue(capacity_packets=1)
        drops = []
        q.on_drop = lambda p, reason: drops.append((p, reason))
        q.enqueue(pkt())
        victim = pkt()
        q.enqueue(victim)
        assert drops == [(victim, "full-packets")]

    def test_stats_track_arrivals_departures(self):
        q = DropTailQueue(capacity_packets=8)
        for _ in range(3):
            q.enqueue(pkt(100))
        q.dequeue()
        assert q.stats.arrivals == 3
        assert q.stats.departures == 1
        assert q.stats.arrival_bytes == 300
        assert q.stats.departure_bytes == 100

    def test_loss_rate(self):
        q = DropTailQueue(capacity_packets=1)
        q.enqueue(pkt())
        q.enqueue(pkt())
        assert q.stats.loss_rate == 0.5

    def test_peek_does_not_remove(self):
        q = DropTailQueue(capacity_packets=4)
        p = pkt()
        q.enqueue(p)
        assert q.peek() is p
        assert len(q) == 1
        assert q.dequeue() is p

    def test_peek_empty(self):
        assert DropTailQueue(capacity_packets=4).peek() is None

    @pytest.mark.parametrize("bounds", [
        dict(capacity_packets=0), dict(capacity_packets=-1),
        dict(capacity_packets=None, capacity_bytes=0),
        dict(capacity_packets=4, capacity_bytes=0)])
    def test_zero_capacity_rejected(self, bounds):
        # A bound of 0 dropped on enqueue() but admitted on the
        # idle-link transit() fast path.
        with pytest.raises(ValueError):
            DropTailQueue(**bounds)

    def test_byte_count_tracks_queue(self):
        q = DropTailQueue(capacity_packets=10)
        q.enqueue(pkt(300))
        q.enqueue(pkt(200))
        q.dequeue()
        assert q.byte_count == 200


class TestRed:
    def _make(self, **kwargs) -> REDQueue:
        defaults = dict(capacity_packets=20, min_thresh=2, max_thresh=6,
                        max_p=0.5, weight=1.0, rng=random.Random(1))
        defaults.update(kwargs)
        return REDQueue(**defaults)

    def test_no_early_drops_below_min_threshold(self):
        q = self._make()
        for _ in range(2):
            assert q.enqueue(pkt())
        assert q.stats.drops == 0

    def test_forced_drop_above_max_threshold(self):
        q = self._make()
        for _ in range(7):
            q.enqueue(pkt())
        # avg (weight=1) tracks instantaneous length; above max_thresh
        # every arrival is dropped.
        assert not q.enqueue(pkt())

    def test_probabilistic_drops_between_thresholds(self):
        q = self._make(capacity_packets=1000, min_thresh=5, max_thresh=500,
                       max_p=0.5)
        accepted = sum(q.enqueue(pkt()) for _ in range(400))
        assert 0 < q.stats.drops < 400
        assert accepted + q.stats.drops == 400

    def test_hard_capacity_still_enforced(self):
        q = self._make(capacity_packets=3, min_thresh=100, max_thresh=200,
                       weight=0.001)
        for _ in range(3):
            q.enqueue(pkt())
        assert not q.enqueue(pkt())

    def test_requires_rng(self):
        q = REDQueue(min_thresh=0.1, max_thresh=1000.0, weight=1.0)
        with pytest.raises(RuntimeError):
            for _ in range(50):
                q.enqueue(pkt())  # probabilistic band needs an rng

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            REDQueue(max_p=0.0)
        with pytest.raises(ValueError):
            REDQueue(min_thresh=10, max_thresh=5)

    def test_fifo_order_preserved(self):
        q = self._make()
        a, b = pkt(), pkt()
        q.enqueue(a)
        q.enqueue(b)
        assert q.dequeue() is a
        assert q.dequeue() is b

    def test_uniform_drop_pattern_is_memoryless_shape(self):
        """RED spreads drops out (no long tail-drop bursts)."""
        q = self._make(capacity_packets=10_000, min_thresh=0.0,
                       max_thresh=1e9, max_p=0.2, weight=0.0)
        # weight=0 freezes avg at 0 < min? use weight tiny but avg>min:
        q = self._make(capacity_packets=10_000, min_thresh=0.5,
                       max_thresh=1e9, max_p=0.2, weight=1.0)
        pattern = []
        for _ in range(500):
            pattern.append(0 if q.enqueue(pkt()) else 1)
            q.dequeue()
            q.enqueue(pkt())  # keep one resident so avg stays ~1
        # Longest drop burst should be short for randomized early drops.
        longest = max(len(run) for run in "".join(map(str, pattern)).split("0")) \
            if any(pattern) else 0
        assert longest <= 6


# -- transit(p) == enqueue(p); dequeue() --------------------------------------

DISCIPLINES = {
    "droptail-packets": lambda: DropTailQueue(capacity_packets=3),
    "droptail-bytes": lambda: DropTailQueue(capacity_packets=None,
                                            capacity_bytes=1200),
    "droptail-both": lambda: DropTailQueue(capacity_packets=3,
                                           capacity_bytes=1200),
    "red": lambda: REDQueue(capacity_packets=6, min_thresh=1, max_thresh=4,
                            max_p=0.5, weight=0.5, rng=random.Random(7)),
    "pels": lambda: PelsBottleneckQueue(PelsQueueConfig(
        green_buffer=2, yellow_buffer=2, red_buffer=1, internet_buffer=2)),
}

#: ("transit" | "enqueue", colour, size) or ("dequeue",).
OPS = st.lists(st.one_of(
    st.tuples(st.sampled_from(["transit", "transit", "enqueue"]),
              st.sampled_from(list(Color)),
              st.sampled_from([40, 500, 1000, 1500])),
    st.just(("dequeue",))), max_size=60)


def _observe(queue, drops) -> tuple:
    stats = [queue.stats]
    if isinstance(queue, PelsBottleneckQueue):
        stats += [fifo.stats for fifo in queue.core.fifos]
    return ([(s.arrivals, s.arrival_bytes, s.drops, s.drop_bytes,
              s.departures, s.departure_bytes) for s in stats],
            len(queue), queue.byte_count, queue.arrival_log, drops,
            getattr(queue, "avg", None))


@pytest.mark.parametrize("discipline", DISCIPLINES)
@given(ops=OPS)
def test_transit_is_enqueue_then_dequeue(discipline, ops):
    """The idle-link fast path and the two-call round trip it replaces
    return the same packet and leave the same counters, backlog,
    ``arrival_log`` and drop reports behind, whatever came before."""
    fast, slow = DISCIPLINES[discipline](), DISCIPLINES[discipline]()
    fast_drops, slow_drops = [], []
    for queue, drops in ((fast, fast_drops), (slow, slow_drops)):
        queue.arrival_log = []
        queue.on_drop = lambda p, reason, drops=drops: drops.append(
            (id(p), reason))
    for op in ops:
        if op[0] == "dequeue":
            assert fast.dequeue() is slow.dequeue()
        else:
            packet = Packet(flow_id=1, size=op[2], color=op[1])
            if op[0] == "transit":
                served = slow.dequeue() if slow.enqueue(packet) else None
                assert fast.transit(packet) is served
            else:
                assert fast.enqueue(packet) == slow.enqueue(packet)
        assert _observe(fast, fast_drops) == _observe(slow, slow_drops)
