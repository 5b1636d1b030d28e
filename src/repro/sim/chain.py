"""Chain topology: sources -> R1 -> R2 -> ... -> Rn -> sinks.

The one topology builder: the paper's bar-bell (Fig. 6) is this chain
at one hop under other names (see :mod:`repro.sim.topology`).

Section 5.2 of the paper specifies how PELS behaves with *multiple*
routers on a path (each router overrides the feedback label only when
its own loss is larger, and sources track the router ID to detect
bottleneck shifts) but never evaluates it.  This topology makes that
evaluation possible: every inter-router link can carry its own PELS
queue and feedback process, and cross traffic can be injected at any
hop to move the bottleneck.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from .engine import Simulator
from .link import Link
from .node import Host, Router
from .queues import DropTailQueue, QueueDiscipline

__all__ = ["ChainConfig", "Chain", "build_chain"]

#: Factory for the queue of inter-router link ``i`` (0-based).
HopQueueFactory = Callable[[int], QueueDiscipline]


@dataclass
class ChainConfig:
    """Parameters of the chain topology."""

    n_flows: int = 2
    #: Capacity of each inter-router hop; the list length sets the
    #: number of hops (routers = hops + 1).
    hop_bps: Sequence[float] = (4_000_000.0, 4_000_000.0)
    hop_delay: float = 0.005
    access_bps: float = 10_000_000.0
    access_delay: float = 0.005
    access_queue_packets: int = 256
    #: Per-flow extra access delay, for heterogeneous-RTT experiments.
    extra_access_delay: Dict[int, float] = field(default_factory=dict)

    @property
    def n_hops(self) -> int:
        return len(self.hop_bps)

    def rtt(self, flow: int = 0) -> float:
        """Round-trip propagation delay for a flow (no queueing)."""
        one_way = (self.access_delay + self.extra_access_delay.get(flow, 0.0)
                   + self.n_hops * self.hop_delay + self.access_delay)
        return 2 * one_way


@dataclass
class Chain:
    """A wired chain: per-hop routers and links plus endpoint hosts."""

    sim: Simulator
    config: ChainConfig
    sources: List[Host]
    sinks: List[Host]
    routers: List[Router]
    hop_links: List[Link]
    access_links: List[Link]

    def source_sink_pair(self, flow: int) -> tuple[Host, Host]:
        return self.sources[flow], self.sinks[flow]


def build_chain(sim: Simulator, config: Optional[ChainConfig] = None,
                hop_queue: Optional[HopQueueFactory] = None,
                router_names: Optional[Sequence[str]] = None,
                hop_names: Optional[Sequence[str]] = None) -> Chain:
    """Construct the chain and populate routing tables.

    ``hop_queue(i)`` supplies the queue discipline of hop ``i``; the
    default is a drop-tail FIFO per hop.  The builder is queue-agnostic,
    so the same topology hosts PELS AQM, drop-tail or RED bottlenecks.
    ``router_names`` / ``hop_names`` replace ``router{i}`` / ``hop{i}``.
    """
    config = config or ChainConfig()
    if config.n_flows < 1:
        raise ValueError("need at least one flow")
    if config.n_hops < 1:
        raise ValueError("need at least one inter-router hop")
    router_names = router_names or [f"router{i}"
                                    for i in range(config.n_hops + 1)]
    hop_names = hop_names or [f"hop{i}" for i in range(config.n_hops)]

    routers = [Router(sim, name) for name in router_names]
    hop_links: List[Link] = []
    for i, rate in enumerate(config.hop_bps):
        queue = (hop_queue(i) if hop_queue is not None else
                 DropTailQueue(capacity_packets=128, name=f"{hop_names[i]}-q"))
        link = Link(sim, routers[i], routers[i + 1], rate, config.hop_delay,
                    queue=queue, name=hop_names[i])
        routers[i].default_route = link
        hop_links.append(link)

    sources: List[Host] = []
    sinks: List[Host] = []
    access_links: List[Link] = []
    for flow in range(config.n_flows):
        delay = config.access_delay + config.extra_access_delay.get(flow, 0.0)

        src = Host(sim, f"src{flow}")
        up = Link(sim, src, routers[0], config.access_bps, delay,
                  queue=DropTailQueue(
                      capacity_packets=config.access_queue_packets,
                      name=f"src{flow}-up-q"),
                  name=f"src{flow}->{router_names[0]}")
        src.default_route = up

        dst = Host(sim, f"sink{flow}")
        down = Link(sim, routers[-1], dst, config.access_bps, delay,
                    queue=DropTailQueue(
                        capacity_packets=config.access_queue_packets,
                        name=f"sink{flow}-down-q"),
                    name=f"{router_names[-1]}->sink{flow}")
        routers[-1].add_route(dst.node_id, down)

        sources.append(src)
        sinks.append(dst)
        access_links.extend([up, down])

    return Chain(sim=sim, config=config, sources=sources, sinks=sinks,
                 routers=routers, hop_links=hop_links,
                 access_links=access_links)
