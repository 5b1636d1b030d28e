"""Conservation and invariant tests across the simulator stack.

Packet-conservation is the canonical whole-system invariant for a
network simulator: every packet a source emits must be accounted for as
delivered, dropped at a queue, or still in flight.  A violation means a
queue, link or scheduler silently lost or duplicated a packet.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.session import PelsScenario, PelsSimulation
from repro.sim.packet import Color, Packet
from repro.sim.queues import DropTailQueue
from repro.sim.scheduler import (StrictPriorityScheduler,
                                 WeightedRoundRobinScheduler)


class TestQueueConservation:
    @given(ops=st.lists(st.tuples(st.booleans(), st.integers(100, 1500)),
                        min_size=1, max_size=300))
    @settings(max_examples=100)
    def test_droptail_accounts_every_packet(self, ops):
        queue = DropTailQueue(capacity_packets=8)
        for is_enqueue, size in ops:
            if is_enqueue:
                queue.enqueue(Packet(flow_id=1, size=size))
            else:
                queue.dequeue()
        stats = queue.stats
        assert stats.arrivals == stats.departures + stats.drops + len(queue)
        assert stats.arrival_bytes == (stats.departure_bytes
                                       + stats.drop_bytes + queue.byte_count)

    @given(colors=st.lists(st.sampled_from(list(Color)), min_size=1,
                           max_size=200),
           drain=st.integers(0, 200))
    @settings(max_examples=100)
    def test_wrr_of_priorities_conserves(self, colors, drain):
        pels = StrictPriorityScheduler(
            [DropTailQueue(capacity_packets=4) for _ in range(3)],
            classifier=lambda p: int(p.color))
        internet = DropTailQueue(capacity_packets=4)
        root = WeightedRoundRobinScheduler(
            [pels, internet], weights=[0.5, 0.5],
            classifier=lambda p: 0 if p.color.is_pels else 1)
        for color in colors:
            root.enqueue(Packet(flow_id=1, size=500, color=color))
        dequeued = 0
        for _ in range(drain):
            if root.dequeue() is None:
                break
            dequeued += 1
        stats = root.stats
        assert stats.arrivals == len(colors)
        assert stats.departures == dequeued
        assert stats.arrivals == stats.departures + stats.drops + len(root)


@pytest.mark.slow
class TestSessionConservation:
    @pytest.fixture(scope="class")
    def finished(self):
        sim = PelsSimulation(PelsScenario(n_flows=3, duration=25.0, seed=31))
        sim.run()
        # Let in-flight packets drain: no new frames after `duration`
        # because run() stopped the clock, so extend slightly.
        for source in sim.sources:
            source.stop()
        sim.sim.run(until=27.0)
        return sim

    def test_every_video_packet_accounted(self, finished):
        sent = sum(src.packets_sent for src in finished.sources)
        received = sum(snk.packets_received for snk in finished.sinks)
        q = finished.bottleneck_queue
        dropped = (q.green_queue.stats.drops + q.yellow_queue.stats.drops
                   + q.red_queue.stats.drops)
        in_queue = len(q) - len(q.internet_queue)
        # Access links are overprovisioned: no drops expected there.
        assert sent == received + dropped + in_queue

    def test_bytes_accounted(self, finished):
        sent = sum(src.bytes_sent for src in finished.sources)
        received = sum(snk.bytes_received for snk in finished.sinks)
        q = finished.bottleneck_queue
        dropped = (q.green_queue.stats.drop_bytes
                   + q.yellow_queue.stats.drop_bytes
                   + q.red_queue.stats.drop_bytes)
        assert sent == received + dropped \
            + q.byte_count - q.internet_queue.byte_count

    def test_frame_log_covers_all_packets(self, finished):
        for source in finished.sources:
            logged = sum(sum(counts) for counts in source.frame_log.values())
            assert logged == source.packets_sent

    def test_reception_never_exceeds_sent(self, finished):
        for flow in range(3):
            for reception in finished.frame_receptions(flow):
                assert reception.green_received <= reception.green_sent
                assert reception.received_enhancement_count <= \
                    reception.enhancement_sent
                assert reception.useful_enhancement <= \
                    reception.received_enhancement_count

    def test_sequence_numbers_dense(self, finished):
        for source in finished.sources:
            assert source.next_seq == source.packets_sent
