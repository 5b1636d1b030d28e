"""Unit tests for links, hosts and routers."""

from __future__ import annotations

import pytest

from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.node import Host, Router
from repro.sim.packet import Color, Packet
from repro.sim.queues import DropTailQueue


class Collector:
    """Minimal agent that remembers delivered packets and times."""

    def __init__(self, sim):
        self.sim = sim
        self.packets = []
        self.times = []

    def receive(self, packet):
        self.packets.append(packet)
        self.times.append(self.sim.now)


def two_hosts(sim, rate=1_000_000.0, delay=0.01, queue=None):
    a, b = Host(sim, "a"), Host(sim, "b")
    link = Link(sim, a, b, rate, delay, queue=queue)
    a.default_route = link
    agent = Collector(sim)
    b.attach_agent(agent)
    return a, b, link, agent


class TestLink:
    def test_serialization_plus_propagation_delay(self, sim):
        a, b, link, agent = two_hosts(sim, rate=1_000_000.0, delay=0.01)
        # 500 bytes at 1 mb/s = 4 ms serialization + 10 ms propagation.
        a.send(Packet(flow_id=1, size=500, dst=b.node_id))
        sim.run()
        assert agent.times == pytest.approx([0.014])

    def test_back_to_back_packets_pipeline(self, sim):
        a, b, link, agent = two_hosts(sim, rate=1_000_000.0, delay=0.01)
        for _ in range(3):
            a.send(Packet(flow_id=1, size=500, dst=b.node_id))
        sim.run()
        # Transmissions serialize at 4 ms each; propagation overlaps.
        assert agent.times == pytest.approx([0.014, 0.018, 0.022])

    def test_queue_overflow_drops(self, sim):
        q = DropTailQueue(capacity_packets=2)
        a, b, link, agent = two_hosts(sim, rate=8_000.0, delay=0.0, queue=q)
        # 500B at 8 kb/s = 0.5 s per packet; burst of 5 overflows.
        sent = [a.send(Packet(flow_id=1, size=500, dst=b.node_id))
                for _ in range(5)]
        sim.run()
        # First starts transmitting immediately; 2 queue; rest dropped.
        assert sum(sent) == 3
        assert len(agent.packets) == 3

    def test_counters(self, sim):
        a, b, link, agent = two_hosts(sim)
        a.send(Packet(flow_id=1, size=500, dst=b.node_id))
        sim.run()
        assert link.packets_sent == 1
        assert link.bytes_sent == 500

    def test_on_transmit_hook(self, sim):
        a, b, link, agent = two_hosts(sim)
        seen = []
        link.on_transmit = lambda p, l: seen.append((p, l))
        packet = Packet(flow_id=1, size=500, dst=b.node_id)
        a.send(packet)
        sim.run()
        assert len(seen) == 1
        assert seen[0][0] is packet and seen[0][1] is link

    def test_invalid_parameters(self, sim):
        a, b = Host(sim), Host(sim)
        with pytest.raises(ValueError):
            Link(sim, a, b, rate_bps=0, delay=0.01)
        with pytest.raises(ValueError):
            Link(sim, a, b, rate_bps=1e6, delay=-1)

    def test_link_resumes_after_idle(self, sim):
        a, b, link, agent = two_hosts(sim, rate=1_000_000.0, delay=0.0)
        a.send(Packet(flow_id=1, size=500, dst=b.node_id))
        sim.run()
        idle_until = sim.now
        sim.schedule(1.0, lambda: a.send(
            Packet(flow_id=1, size=500, dst=b.node_id)))
        sim.run()
        assert len(agent.packets) == 2
        # Second send starts a fresh transmission (4 ms) after the idle gap.
        assert agent.times[1] == pytest.approx(idle_until + 1.0 + 0.004)


class TestHost:
    def test_agent_dispatch_by_flow(self, sim):
        a, b, link, _ = two_hosts(sim)
        flow1, flow2 = Collector(sim), Collector(sim)
        b.attach_agent(flow1, flow_id=1)
        b.attach_agent(flow2, flow_id=2)
        a.send(Packet(flow_id=2, size=100, dst=b.node_id))
        a.send(Packet(flow_id=1, size=100, dst=b.node_id))
        sim.run()
        assert len(flow1.packets) == 1
        assert len(flow2.packets) == 1

    def test_catch_all_agent(self, sim):
        a, b, link, agent = two_hosts(sim)
        a.send(Packet(flow_id=99, size=100, dst=b.node_id))
        sim.run()
        assert len(agent.packets) == 1

    def test_misrouted_packet_raises(self, sim):
        a, b, link, agent = two_hosts(sim)
        with pytest.raises(RuntimeError):
            b.receive(Packet(flow_id=1, size=100, dst=123456))

    def test_send_without_route_raises(self, sim):
        lonely = Host(sim)
        with pytest.raises(RuntimeError):
            lonely.send(Packet(flow_id=1, size=100, dst=0))

    def test_send_stamps_source(self, sim):
        a, b, link, agent = two_hosts(sim)
        packet = Packet(flow_id=1, size=100, dst=b.node_id)
        a.send(packet)
        assert packet.src == a.node_id


class TestRouter:
    def _chain(self, sim):
        """a -> router -> b"""
        a, b = Host(sim, "a"), Host(sim, "b")
        router = Router(sim, "r")
        up = Link(sim, a, router, 1e6, 0.001)
        down = Link(sim, router, b, 1e6, 0.001)
        a.default_route = up
        router.add_route(b.node_id, down)
        agent = Collector(sim)
        b.attach_agent(agent)
        return a, router, b, agent

    def test_forwards_by_destination(self, sim):
        a, router, b, agent = self._chain(sim)
        a.send(Packet(flow_id=1, size=100, dst=b.node_id))
        sim.run()
        assert len(agent.packets) == 1
        assert agent.packets[0].hops == 2

    def test_no_route_counts_drop(self, sim):
        a, router, b, agent = self._chain(sim)
        a.send(Packet(flow_id=1, size=100, dst=999999))
        sim.run()
        assert router.no_route_drops == 1
        assert agent.packets == []

    def test_default_route_fallback(self, sim):
        """A packet without a destination entry follows the default route."""
        a, router, b, agent = self._chain(sim)
        router.default_route = router.routes[b.node_id]
        del router.routes[b.node_id]
        a.send(Packet(flow_id=1, size=100, dst=b.node_id))
        sim.run()
        assert len(agent.packets) == 1

    def test_hooks_see_packets_before_forwarding(self, sim):
        a, router, b, agent = self._chain(sim)
        seen = []
        router.add_packet_hook(seen.append)
        packet = Packet(flow_id=1, size=100, dst=b.node_id)
        a.send(packet)
        sim.run()
        assert len(seen) == 1 and seen[0] is packet

    def test_multiple_hooks_in_order(self, sim):
        a, router, b, agent = self._chain(sim)
        calls = []
        router.add_packet_hook(lambda p: calls.append("first"))
        router.add_packet_hook(lambda p: calls.append("second"))
        a.send(Packet(flow_id=1, size=100, dst=b.node_id))
        sim.run()
        assert calls == ["first", "second"]
