"""Multi-bottleneck PELS: per-hop AQM, max-loss feedback, bottleneck shifts.

Implements the multi-router behaviour Section 5.2 specifies but never
evaluates: every hop of a chain runs its own PELS queue and Eq. 11
feedback computer; a router overrides the label in passing packets only
when its loss exceeds the recorded one, so sources always react to the
*most congested* resource (max-min), and the ``router ID`` field lets
them detect when the bottleneck moves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..control.meta import MetaControllerConfig
from ..sim.chain import Chain, ChainConfig, build_chain
from ..sim.packet import Color
from ..sim.traffic import CbrSource
from ..video.fgs import FgsConfig
from .assembly import PacketAssembly
from .feedback import RouterFeedback
from .params import ControlParams, check_interferers
from .pels_queue import PelsBottleneckQueue, PelsQueueConfig

__all__ = ["MultiHopScenario", "MultiHopPelsSimulation"]

#: Golden-ratio frame-clock phasing of the multi-hop assembly.
FRAME_PHASE = 0.618


@dataclass
class MultiHopScenario(ControlParams):
    """A PELS population crossing a chain of PELS-enabled routers.

    ``hop_bps`` sets per-hop raw capacities; each hop's PELS share is
    ``pels share * hop_bps[i]``.
    """

    n_flows: int = 2
    duration: float = 60.0
    seed: int = 1
    hop_bps: tuple = (4_000_000.0, 6_000_000.0)
    #: Feedback-starvation timeout (None disables; see PelsScenario).
    feedback_timeout: Optional[float] = None
    blind_backoff: float = 0.85
    fgs: FgsConfig = field(default_factory=lambda: FgsConfig(
        frame_packets=256))
    queue: PelsQueueConfig = field(default_factory=PelsQueueConfig)
    #: (hop index, start time, stop time, rate) of PELS-colored CBR
    #: interferers used to shift the bottleneck between hops.  The
    #: interferer enters at the given hop's upstream router and exits
    #: at the chain tail.
    pels_interferers: tuple = ()
    #: Opt-in online meta-control (see PelsScenario.meta_controller).
    meta_controller: Optional[MetaControllerConfig] = None

    def __post_init__(self) -> None:
        check_interferers(self.pels_interferers, len(self.hop_bps))

    def pels_capacity_of(self, hop: int) -> float:
        return self.hop_bps[hop] * self.queue.pels_share()


class MultiHopPelsSimulation(PacketAssembly):
    """A chain of PELS-enabled routers with one feedback process per hop."""

    def __init__(self, scenario: Optional[MultiHopScenario] = None) -> None:
        super().__init__(scenario or MultiHopScenario())
        s = self.scenario

        self.hop_queues: List[PelsBottleneckQueue] = [
            PelsBottleneckQueue(s.queue, name=f"hop{i}-pels")
            for i in range(len(s.hop_bps))]
        chain_cfg = ChainConfig(
            n_flows=s.n_flows + 1 + len(s.pels_interferers),
            hop_bps=s.hop_bps)
        self.chain: Chain = build_chain(
            self.sim, chain_cfg,
            hop_queue=lambda i: self.hop_queues[i])

        # One Eq. 11 feedback computer per hop, hooked into its router.
        self.feedbacks: List[RouterFeedback] = [
            self.attach_feedback(router, s.pels_capacity_of(i),
                                 f"hop{i}-feedback")
            for i, router in enumerate(self.chain.routers[:-1])]
        self.build_flows(self.chain, FRAME_PHASE,
                         feedback_timeout=s.feedback_timeout,
                         blind_backoff=s.blind_backoff)

        # Best-effort CBR keeps every hop's Internet queue backlogged so
        # WRR grants PELS exactly its share on all hops.
        be_src, be_dst = self.chain.source_sink_pair(s.n_flows)
        self.cbr = CbrSource(self.sim, be_src, be_dst, flow_id=1000,
                             rate_bps=1.5 * max(s.hop_bps))

        # PELS-colored interferers move the bottleneck between hops.
        self.interferers: List[CbrSource] = []
        for j, (hop, start, stop, rate) in enumerate(s.pels_interferers):
            host, dst = self.chain.source_sink_pair(s.n_flows + 1 + j)
            # Route the interferer so it enters the chain at ``hop``:
            # attach its access link to that hop's upstream router.
            up = host.default_route
            up.dst = self.chain.routers[hop]
            self.interferers.append(CbrSource(
                self.sim, host, dst, flow_id=2000 + j, rate_bps=rate,
                packet_size=500, color=Color.RED,
                start_time=start, stop_time=stop))

        # The tuner's r* oracle uses the tightest hop, as the monitor does.
        self.read_out(zip(self.hop_queues, self.feedbacks))

    # -- observations -------------------------------------------------------

    def bottleneck_router_id_of(self, flow: int) -> Optional[int]:
        """The router the flow currently believes is its bottleneck."""
        return self.sources[flow].tracker.router_id

    def router_id_of_hop(self, hop: int) -> int:
        return self.feedbacks[hop].router_id

    def hop_losses(self) -> Dict[int, float]:
        """Latest Eq. 11 loss of every hop."""
        return {i: fb.loss for i, fb in enumerate(self.feedbacks)}
