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
        est = q.loss_estimators[Color.RED]
        assert est.total_arrivals == 5
        assert est.total_drops == 3

    def test_sample_losses_windows(self):
        q = PelsBottleneckQueue(PelsQueueConfig(red_buffer=1))
        q.enqueue(pkt(Color.RED))
        q.enqueue(pkt(Color.RED))
        losses = q.sample_losses(now=1.0)
        assert losses[Color.RED] == pytest.approx(0.5)
        assert losses[Color.GREEN] is None  # no green arrivals

    def test_internet_drops_not_counted_as_pels(self):
        q = PelsBottleneckQueue(PelsQueueConfig(internet_buffer=1))
        q.enqueue(pkt(Color.BEST_EFFORT))
        q.enqueue(pkt(Color.BEST_EFFORT))
        assert q.loss_estimators[Color.RED].total_arrivals == 0
        assert q.stats.drops == 1

    def test_aggregate_stats(self):
        q = PelsBottleneckQueue(PelsQueueConfig(red_buffer=1))
        q.enqueue(pkt(Color.RED))
        q.enqueue(pkt(Color.RED))
        q.dequeue()
        assert q.stats.arrivals == 2
        assert q.stats.drops == 1
        assert q.stats.departures == 1


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
