"""Unit tests for the PELS bottleneck queue (Fig. 4 left)."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import pels_queue
from repro.core.pels_queue import (PelsBottleneckQueue, PelsQueueConfig,
                                   PelsQueueCore)
from repro.sim.packet import Color, Packet


def pkt(color: Color, size: int = 500) -> Packet:
    return Packet(flow_id=1, size=size, color=color)


class TestConfig:
    def test_default_is_50_50(self):
        assert PelsQueueConfig().pels_share() == 0.5

    def test_share_computation(self):
        assert PelsQueueConfig(pels_weight=3, internet_weight=1).pels_share() \
            == 0.75

    def test_validation(self):
        with pytest.raises(ValueError):
            PelsQueueConfig(pels_weight=0)
        with pytest.raises(ValueError):
            PelsQueueConfig(red_buffer=0)


class TestClassification:
    def test_colors_routed_to_their_queues(self):
        q = PelsBottleneckQueue()
        q.enqueue(pkt(Color.GREEN))
        q.enqueue(pkt(Color.YELLOW))
        q.enqueue(pkt(Color.RED))
        q.enqueue(pkt(Color.BEST_EFFORT))
        assert len(q.green_queue) == 1
        assert len(q.yellow_queue) == 1
        assert len(q.red_queue) == 1
        assert len(q.internet_queue) == 1
        assert len(q) == 4

    def test_queue_for_lookup(self):
        q = PelsBottleneckQueue()
        assert q.queue_for(Color.GREEN) is q.green_queue
        assert q.queue_for(Color.BEST_EFFORT) is q.internet_queue


class TestPriorityWithinPels:
    def test_green_before_yellow_before_red(self):
        q = PelsBottleneckQueue()
        q.enqueue(pkt(Color.RED))
        q.enqueue(pkt(Color.YELLOW))
        q.enqueue(pkt(Color.GREEN))
        order = [q.dequeue().color for _ in range(3)]
        assert order == [Color.GREEN, Color.YELLOW, Color.RED]

    def test_red_starved_until_higher_classes_empty(self):
        q = PelsBottleneckQueue()
        for _ in range(5):
            q.enqueue(pkt(Color.RED))
        for _ in range(5):
            q.enqueue(pkt(Color.YELLOW))
        for _ in range(5):
            assert q.dequeue().color is Color.YELLOW


class TestWrrBetweenAggregates:
    def test_alternates_pels_and_internet(self):
        q = PelsBottleneckQueue()
        for _ in range(50):
            q.enqueue(pkt(Color.GREEN))
            q.enqueue(pkt(Color.BEST_EFFORT))
        counts = {True: 0, False: 0}
        for _ in range(40):
            counts[q.dequeue().color.is_pels] += 1
        assert abs(counts[True] - counts[False]) <= 4

    def test_weighted_share(self):
        q = PelsBottleneckQueue(PelsQueueConfig(
            pels_weight=0.75, internet_weight=0.25,
            green_buffer=300, internet_buffer=300))
        for _ in range(200):
            q.enqueue(pkt(Color.GREEN))
            q.enqueue(pkt(Color.BEST_EFFORT))
        pels = sum(1 for _ in range(100) if q.dequeue().color.is_pels)
        assert 70 <= pels <= 80


class TestLossAccounting:
    def test_red_overflow_recorded(self):
        q = PelsBottleneckQueue(PelsQueueConfig(red_buffer=2))
        for _ in range(5):
            q.enqueue(pkt(Color.RED))
        assert q.red_queue.stats.arrivals == 5
        assert q.red_queue.stats.drops == 3

    def test_sample_losses_windows(self):
        q = PelsBottleneckQueue(PelsQueueConfig(red_buffer=1))
        q.enqueue(pkt(Color.RED))
        q.enqueue(pkt(Color.RED))
        losses = q.core.losses
        losses.sample(now=1.0)
        assert list(losses.series[Color.RED]) == [(1.0, 0.5)]
        assert len(losses.series[Color.GREEN]) == 0  # no green arrivals

    def test_internet_drops_not_counted_as_pels(self):
        q = PelsBottleneckQueue(PelsQueueConfig(internet_buffer=1))
        q.enqueue(pkt(Color.BEST_EFFORT))
        q.enqueue(pkt(Color.BEST_EFFORT))
        q.core.losses.sample(now=1.0)
        assert all(len(series) == 0 for series in q.core.losses.series)
        assert q.stats.drops == 1

    def test_aggregate_stats(self):
        q = PelsBottleneckQueue(PelsQueueConfig(red_buffer=1))
        q.enqueue(pkt(Color.RED))
        q.enqueue(pkt(Color.RED))
        q.dequeue()
        assert q.stats.arrivals == 2
        assert q.stats.drops == 1
        assert q.stats.departures == 1


class TestColorLossSampler:
    """Windowed physical loss read off the core's own counters."""

    @staticmethod
    def offer(core, color, arrivals):
        for _ in range(arrivals):
            core.enqueue(color, object(), 500)

    def test_loss_per_window(self):
        core = PelsQueueCore(PelsQueueConfig(red_buffer=6))
        self.offer(core, Color.RED, 8)
        core.losses.sample(1.0)
        assert list(core.losses.series[Color.RED]) == [(1.0, 0.25)]

    def test_idle_window_records_nothing(self):
        core = PelsQueueCore(PelsQueueConfig())
        core.losses.sample(1.0)
        assert all(len(series) == 0 for series in core.losses.series)

    def test_window_resets(self):
        core = PelsQueueCore(PelsQueueConfig(red_buffer=1))
        self.offer(core, Color.RED, 2)
        core.losses.sample(1.0)
        core.dequeue()
        self.offer(core, Color.RED, 1)
        core.losses.sample(2.0)
        assert core.losses.series[Color.RED].values == [0.5, 0.0]

    def test_loss_in_pools_windows_by_arrivals(self):
        # 1 of 2 dropped, then 9 of 10: the pooled loss is 10/12, not
        # the 0.7 an unweighted mean of the two windows would claim.
        core = PelsQueueCore(PelsQueueConfig(red_buffer=1))
        self.offer(core, Color.RED, 2)
        core.losses.sample(1.0)
        core.dequeue()
        self.offer(core, Color.RED, 10)
        core.losses.sample(2.0)
        assert core.losses.loss_in(Color.RED, 0.0, 2.0) \
            == pytest.approx(10 / 12)
        # A window closing at t_start measured the time before it.
        assert core.losses.loss_in(Color.RED, 1.0, 2.0) \
            == pytest.approx(0.9)

    def test_loss_in_without_arrivals_is_none(self):
        core = PelsQueueCore(PelsQueueConfig())
        self.offer(core, Color.RED, 2)
        core.losses.sample(1.0)
        assert core.losses.loss_in(Color.GREEN, 0.0, 5.0) is None
        assert core.losses.loss_in(Color.RED, 1.0, 5.0) is None

    def test_shed_arrivals_are_offered_not_dropped(self):
        core = PelsQueueCore(PelsQueueConfig())
        core.set_shed_level(1)
        self.offer(core, Color.RED, 4)
        core.losses.sample(1.0)
        assert core.losses.series[Color.RED].values == [0.0]


class TestQueueDisciplineInterface:
    def test_peek_matches_dequeue(self):
        q = PelsBottleneckQueue()
        q.enqueue(pkt(Color.YELLOW))
        head = q.peek()
        assert q.dequeue() is head

    def test_byte_count(self):
        q = PelsBottleneckQueue()
        q.enqueue(pkt(Color.GREEN, 300))
        q.enqueue(pkt(Color.BEST_EFFORT, 700))
        assert q.byte_count == 1000

    def test_empty_dequeue(self):
        assert PelsBottleneckQueue().dequeue() is None


class TestCoreNeverGivesUp:
    """``dequeue``/``peek`` return ``None`` only on an empty port and
    never raise, however small the quantum is against the head."""

    @pytest.mark.parametrize("internet_weight", [1.0, 1 / 9, 1e-6])
    def test_lone_best_effort_packet_is_served(self, internet_weight):
        q = PelsBottleneckQueue(PelsQueueConfig(
            pels_weight=1.0, internet_weight=internet_weight))
        packet = pkt(Color.BEST_EFFORT, 1500)
        q.enqueue(packet)
        assert q.peek() is packet and q.dequeue() is packet
        assert q.peek() is None and q.dequeue() is None

    @given(share=st.sampled_from([0.25, 0.5, 0.75]),
           quantum=st.integers(1, 8),
           ops=st.lists(st.one_of(
               st.tuples(st.sampled_from(list(Color)),
                         st.integers(48, 600)), st.none()),
               min_size=1, max_size=60))
    def test_closed_form_jump_agrees_with_walking_every_round(
            self, share, quantum, ops):
        # Dyadic shares and integer quanta keep every deficit exact, so
        # the jump and the round-by-round walk may not differ at all.
        cfg = PelsQueueConfig(pels_weight=share, internet_weight=1 - share,
                              quantum_bytes=quantum)
        jumping, walking = PelsQueueCore(cfg), PelsQueueCore(cfg)
        for seq, op in enumerate(ops):
            if op is not None:
                for core in (jumping, walking):
                    core.enqueue(op[0], seq, op[1])
                continue
            served = jumping.dequeue()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(pels_queue, "_SPIN", range(10 ** 6))
                assert walking.dequeue() == served
            assert jumping.deficits == walking.deficits
            assert jumping.turn == walking.turn

    def test_zero_quantum_is_rejected_at_construction(self):
        with pytest.raises(ValueError):
            PelsBottleneckQueue(PelsQueueConfig(quantum_bytes=0))
