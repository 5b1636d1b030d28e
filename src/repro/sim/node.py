"""Network nodes: hosts and routers.

Hosts terminate traffic: any attached agent (source or sink) gets the
packet.  Routers forward packets toward ``packet.dst`` using a static
routing table populated by the topology builder, and give attached
router processes (such as the PELS feedback computer) a chance to
observe/stamp packets as they pass.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Protocol

from .engine import Simulator
from .link import Link
from .packet import Packet

__all__ = ["Node", "Host", "Router", "Agent"]

#: Hook a router process registers to observe packets pre-forwarding.
PacketHook = Callable[[Packet], None]


class Agent(Protocol):
    """Anything attached to a host that consumes delivered packets."""

    def receive(self, packet: Packet) -> None:  # pragma: no cover - protocol
        ...


class Node:
    """Base class for all network nodes."""

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self.sim = sim
        # Ids are allocated per-simulator (not from a process-global
        # counter) so a simulation's topology labels do not depend on
        # what else ran earlier in the process — serial sweeps and
        # --jobs workers produce identical reports.
        self.node_id = sim.next_id("node")
        self.name = name or f"node{self.node_id}"
        self.routes: Dict[int, Link] = {}
        self.default_route: Optional[Link] = None

    def add_route(self, dst_id: int, link: Link) -> None:
        """Route packets destined to node ``dst_id`` out of ``link``."""
        self.routes[dst_id] = link

    def receive(self, packet: Packet) -> None:
        """Take a packet off an incoming link.  Links bind this entry
        once (see ``Link.dst``) and schedule it as the delivery event."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.__class__.__name__} {self.name!r} id={self.node_id}>"


class Host(Node):
    """End host; delivers packets to agents registered per flow.

    A host may run several agents (e.g., one PELS source per flow).
    Delivery is per ``flow_id`` with an optional catch-all agent.
    """

    def __init__(self, sim: Simulator, name: str = "") -> None:
        super().__init__(sim, name)
        self._agents: Dict[int, Agent] = {}
        self._catch_all: Optional[Agent] = None
        self.received = 0

    def attach_agent(self, agent: Agent, flow_id: Optional[int] = None) -> None:
        """Register an agent, optionally bound to a specific flow."""
        if flow_id is None:
            self._catch_all = agent
        else:
            self._agents[flow_id] = agent

    def receive(self, packet: Packet) -> None:
        dst = packet.dst
        if dst is not None and dst != self.node_id:
            # Hosts do not forward; a misrouted packet is a topology bug.
            raise RuntimeError(
                f"{self.name} received packet destined for node {dst}")
        self.received += 1
        agent = self._agents.get(packet.flow_id, self._catch_all)
        if agent is not None:
            agent.receive(packet)

    def send(self, packet: Packet) -> bool:
        """Inject a locally generated packet into the network."""
        packet.src = self.node_id
        # routes is keyed by int node ids, so a packet.dst of None falls
        # through to the default route.
        link = self.routes.get(packet.dst, self.default_route)
        if link is None:
            raise RuntimeError(f"{self.name} has no route for {packet}")
        return link.send(packet)


class Router(Node):
    """Store-and-forward router with observation hooks.

    Router processes (e.g. the PELS feedback computer of Section 5.2)
    register hooks via :meth:`add_packet_hook`; each hook sees every
    packet before it is enqueued on the egress link, which is where the
    paper stamps the ``(router_id, z, p)`` label.
    """

    def __init__(self, sim: Simulator, name: str = "") -> None:
        super().__init__(sim, name)
        self._hooks: List[PacketHook] = []
        self.no_route_drops = 0
        # A router's arrival *is* forwarding: links bind ``receive``
        # once, so hand them ``forward`` itself, not a trampoline frame
        # per packet per hop.
        self.receive = self.forward

    def add_packet_hook(self, hook: PacketHook) -> None:
        self._hooks.append(hook)

    def forward(self, packet: Packet) -> bool:
        """Apply hooks then enqueue on the egress link toward the dst."""
        out = self.routes.get(packet.dst, self.default_route)
        if out is None:
            self.no_route_drops += 1
            return False
        for hook in self._hooks:
            hook(packet)
        return out.send(packet)
