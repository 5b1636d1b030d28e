"""One PELS queue core, two drivers: differential and peek properties.

A generated arrival/service trace is fed to

(a) the reference — the ``DropTailQueue x4 -> StrictPriorityScheduler
    -> WeightedRoundRobinScheduler`` tree ``PelsBottleneckQueue`` was
    built from before ``PelsQueueCore``, rebuilt here from the generic
    schedulers that still ship in ``repro.sim``;
(b) ``PelsBottleneckQueue`` (the simulator's driver of the core);
(c) ``LiveRouter`` (the wall-clock driver) under a ``ManualClock`` with
    a fake transport, with infinite credit and with credit granted
    packet by packet;

and all three must accept, drop and serve the same items in the same
order.  The default Hypothesis profile keeps this inside tier-1's
budget; CI reruns the file with ``--hypothesis-profile=ci``.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.core.clock import ManualClock
from repro.core.pels_queue import (PELS_SHARE_SAFE_RANGE, PelsBottleneckQueue,
                                   PelsQueueConfig)
from repro.live.router import LiveRouter
from repro.live.wire import (HEADER_SIZE, LivePacket, decode_packet,
                             encode_packet)
from repro.sim.packet import Color, Packet
from repro.sim.queues import DropTailQueue
from repro.sim.scheduler import (StrictPriorityScheduler,
                                 WeightedRoundRobinScheduler)


def reference_tree(cfg: PelsQueueConfig) -> WeightedRoundRobinScheduler:
    pels = StrictPriorityScheduler(
        [DropTailQueue(cfg.green_buffer), DropTailQueue(cfg.yellow_buffer),
         DropTailQueue(cfg.red_buffer)],
        classifier=lambda packet: int(packet.color))
    return WeightedRoundRobinScheduler(
        [pels, DropTailQueue(cfg.internet_buffer)],
        weights=[cfg.pels_weight, cfg.internet_weight],
        classifier=lambda packet: 0 if packet.color.is_pels else 1,
        quantum_bytes=cfg.quantum_bytes)


def leaf_counts(tree: WeightedRoundRobinScheduler) -> list:
    leaves = tree.children[0].children + [tree.children[1]]
    return [(leaf.stats.arrivals, leaf.stats.drops, leaf.stats.departures)
            for leaf in leaves]


class FakeTransport:
    def __init__(self) -> None:
        self.seqs = []

    def sendto(self, data, addr) -> None:
        self.seqs.append(decode_packet(data).seq)


buffers = st.integers(1, 12)
configs = st.builds(
    lambda share, quantum, g, y, r, i: PelsQueueConfig(
        pels_weight=share, internet_weight=1 - share, green_buffer=g,
        yellow_buffer=y, red_buffer=r, internet_buffer=i,
        quantum_bytes=quantum),
    st.floats(*PELS_SHARE_SAFE_RANGE), st.integers(300, 1500),
    buffers, buffers, buffers, buffers)

#: An arrival is ``(color, size)``; a service op is how many items to
#: serve (``None`` = until the port is empty).
arrivals = st.tuples(st.sampled_from(list(Color)),
                     st.integers(HEADER_SIZE, 1500))
traces = st.lists(
    st.one_of(arrivals, arrivals, st.integers(1, 4), st.none()),
    min_size=1, max_size=200)


def is_arrival(op) -> bool:
    return isinstance(op, tuple)


def run_reference(cfg, trace, shed_level=0):
    """``(outcome per op, per-color counts)`` of the reference tree.

    An arrival's outcome is accepted-or-not; a service op's outcome is
    the list of ``(seq, size)`` served.  Ingest-time shedding (which the
    tree never had) is applied in front of it, as the core defines it:
    level 1 sheds red, level 2 red and yellow.
    """
    tree = reference_tree(cfg)
    shed = {Color.RED: shed_level >= 1, Color.YELLOW: shed_level >= 2}
    outcomes = []
    for seq, op in enumerate(trace):
        if is_arrival(op):
            color, size = op
            outcomes.append(
                not shed.get(color, False)
                and tree.enqueue(Packet(flow_id=1, size=size, color=color,
                                        seq=seq)))
            continue
        served = []
        while op is None or len(served) < op:
            packet = tree.dequeue()
            if packet is None:
                break
            served.append((packet.seq, packet.size))
        outcomes.append(served)
    return outcomes, leaf_counts(tree)


@given(cfg=configs, trace=traces)
def test_sim_driver_serves_the_reference_sequence(cfg, trace):
    expected, counts = run_reference(cfg, trace)
    queue = PelsBottleneckQueue(cfg)
    for seq, (op, outcome) in enumerate(zip(trace, expected)):
        if is_arrival(op):
            color, size = op
            assert queue.enqueue(Packet(flow_id=1, size=size, color=color,
                                        seq=seq)) == outcome
            continue
        for served in outcome:
            head = queue.peek()
            assert queue.dequeue() is head
            assert (head.seq, head.size) == served
        if op is None or len(outcome) < op:
            assert queue.peek() is None and queue.dequeue() is None
    assert [(leaf.stats.arrivals, leaf.stats.drops, leaf.stats.departures)
            for leaf in map(queue.queue_for, Color)] == counts
    assert queue.stats.arrivals == sum(map(is_arrival, trace))
    assert queue.stats.arrivals == (queue.stats.drops + len(queue)
                                    + queue.stats.departures)


@given(cfg=configs, trace=traces, shed_level=st.integers(0, 2),
       packet_credit=st.booleans())
def test_live_driver_serves_the_reference_sequence(cfg, trace, shed_level,
                                                   packet_credit):
    if not packet_credit:
        # Infinite credit cannot stop mid-backlog: every service op
        # drains the port, in the reference too.
        trace = [op if is_arrival(op) else None for op in trace]
    expected, counts = run_reference(cfg, trace, shed_level)
    router = LiveRouter(ManualClock(), bottleneck_bps=1e6, config=cfg)
    router.transport = transport = FakeTransport()
    router.dst_addr = ("127.0.0.1", 9)
    router.set_shed_level(shed_level)
    for seq, (op, outcome) in enumerate(zip(trace, expected)):
        if is_arrival(op):
            color, size = op
            before = sum(router.queue_depths())
            router._ingest(encode_packet(LivePacket(
                flow_id=1, seq=seq, color=color, sent_at=0.0, size=size)))
            assert sum(router.queue_depths()) - before == outcome
            continue
        del transport.seqs[:]
        if packet_credit:
            # Exactly the bytes of the next datagram, one at a time;
            # then credit that covers nothing must forward nothing.
            for _, size in outcome:
                assert router._drain(float(size)) == 0.0
            assert router._drain(HEADER_SIZE - 1.0) == HEADER_SIZE - 1.0
        else:
            assert router._drain(float("inf")) == float("inf")
        assert transport.seqs == [served for served, _ in outcome]
    shed = router.shed_packets
    assert shed[Color.GREEN] == shed[Color.BEST_EFFORT] == 0
    assert list(zip([a - s for a, s in zip(router.arrivals, shed)],
                    router.drops, router.forwarded)) == counts


@given(cfg=configs, trace=traces)
def test_peek_is_what_dequeue_returns_and_changes_nothing(cfg, trace):
    # Two queues, one trace; only one of them is ever peeked.  Peeking
    # (any number of times, arrivals in between) must not move the WRR.
    peeked, plain = PelsBottleneckQueue(cfg), PelsBottleneckQueue(cfg)
    for seq, op in enumerate(trace):
        if is_arrival(op):
            color, size = op
            assert peeked.peek() is peeked.peek()
            for queue in (peeked, plain):
                queue.enqueue(Packet(flow_id=1, size=size, color=color,
                                     seq=seq))
            continue
        for _ in range(op or len(plain)):
            head = peeked.peek()
            assert peeked.dequeue() is head
            other = plain.dequeue()
            assert (head is None and other is None) or head.seq == other.seq
