"""Bar-bell (dumbbell) topology: the chain at one hop, in Fig. 6's words.

The paper's simulations (Fig. 6) use a single-bottleneck bar-bell:
multiple PELS and TCP sources on the left, a 4 mb/s bottleneck between
two routers, and sinks on the right; access links are 10 mb/s.  That is
:func:`repro.sim.chain.build_chain` with one inter-router hop, so this
module only translates the bar-bell's vocabulary (``bottleneck_bps``,
``left_router``, link ``bottleneck``) onto it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from .chain import Chain, ChainConfig, build_chain
from .engine import Simulator
from .link import Link
from .node import Router
from .queues import QueueDiscipline

__all__ = ["BarbellConfig", "Barbell", "build_barbell"]

QueueFactory = Callable[[], QueueDiscipline]


@dataclass
class BarbellConfig:
    """Parameters of the bar-bell topology (defaults follow Fig. 6)."""

    n_flows: int = 2
    bottleneck_bps: float = 4_000_000.0
    access_bps: float = 10_000_000.0
    bottleneck_delay: float = 0.010
    access_delay: float = 0.005
    access_queue_packets: int = 256
    #: Per-flow extra access delay, for heterogeneous-RTT experiments.
    extra_access_delay: Dict[int, float] = field(default_factory=dict)

    def as_chain(self) -> ChainConfig:
        return ChainConfig(
            n_flows=self.n_flows, hop_bps=(self.bottleneck_bps,),
            hop_delay=self.bottleneck_delay, access_bps=self.access_bps,
            access_delay=self.access_delay,
            access_queue_packets=self.access_queue_packets,
            extra_access_delay=self.extra_access_delay)

    def rtt(self, flow: int = 0) -> float:
        """Round-trip propagation delay for a flow (no queueing)."""
        return self.as_chain().rtt(flow)


class Barbell(Chain):
    """A one-hop :class:`Chain`; ``config`` is its :class:`ChainConfig`."""

    @property
    def left_router(self) -> Router:
        return self.routers[0]

    @property
    def bottleneck(self) -> Link:
        return self.hop_links[0]


def build_barbell(sim: Simulator, config: Optional[BarbellConfig] = None,
                  bottleneck_queue: Optional[QueueFactory] = None) -> Barbell:
    """Construct the bar-bell of Fig. 6 and populate routing tables.

    ``bottleneck_queue`` produces the bottleneck queue discipline; the
    default is a generous drop-tail FIFO (callers reproducing PELS
    inject the tri-color WRR structure from :mod:`repro.core.pels_queue`).
    """
    chain = build_chain(
        sim, (config or BarbellConfig()).as_chain(),
        hop_queue=bottleneck_queue and (lambda _hop: bottleneck_queue()),
        router_names=("left", "right"), hop_names=("bottleneck",))
    for router in chain.routers:  # links say "left", the node "left-router"
        router.name += "-router"
    return Barbell(**vars(chain))
