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

from ..cc.mkc import MkcController
from ..control.meta import MetaController, MetaControllerConfig
from ..obs.metrics import current_registry
from ..obs.monitor import SimulationMonitor
from ..sim.chain import Chain, ChainConfig, build_chain
from ..sim.engine import Simulator
from ..sim.packet import Color
from ..sim.traffic import CbrSource
from ..video.fgs import FgsConfig
from .feedback import RouterFeedback
from .gamma import GammaController
from .pels_queue import PelsBottleneckQueue, PelsQueueConfig
from .report import PortView, SessionView
from .sink import PelsSink
from .source import PelsSource

__all__ = ["MultiHopScenario", "MultiHopPelsSimulation"]


@dataclass
class MultiHopScenario:
    """A PELS population crossing a chain of PELS-enabled routers.

    ``hop_bps`` sets per-hop raw capacities; each hop's PELS share is
    ``pels share * hop_bps[i]``.  ``cbr_joins`` optionally injects
    extra best-effort load at specific hops/times — with a congested
    PELS share this is how the experiments move the bottleneck.
    """

    n_flows: int = 2
    duration: float = 60.0
    seed: int = 1
    hop_bps: tuple = (4_000_000.0, 6_000_000.0)
    alpha_bps: float = 20_000.0
    beta: float = 0.5
    initial_rate_bps: float = 128_000.0
    sigma: float = 0.5
    p_thr: float = 0.75
    feedback_interval: float = 0.030
    feedback_window: int = 5
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

    def pels_capacity_of(self, hop: int) -> float:
        return self.hop_bps[hop] * self.queue.pels_share()


class MultiHopPelsSimulation:
    """A chain of PELS-enabled routers with one feedback process per hop."""

    def __init__(self, scenario: Optional[MultiHopScenario] = None) -> None:
        self.scenario = scenario or MultiHopScenario()
        s = self.scenario
        self.sim = Simulator(seed=s.seed)

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
        self.feedbacks: List[RouterFeedback] = []
        for i, router in enumerate(self.chain.routers[:-1]):
            feedback = RouterFeedback(
                self.sim, capacity_bps=s.pels_capacity_of(i),
                interval=s.feedback_interval,
                window_intervals=s.feedback_window,
                name=f"hop{i}-feedback")
            router.add_packet_hook(feedback.observe)
            self.feedbacks.append(feedback)

        backward = chain_cfg.rtt() / 2
        self.sources: List[PelsSource] = []
        self.sinks: List[PelsSink] = []
        for flow in range(s.n_flows):
            src_host, dst_host = self.chain.source_sink_pair(flow)
            delay_est = chain_cfg.rtt() + s.feedback_interval \
                * (s.feedback_window + 1) / 2
            controller = MkcController(
                alpha_bps=s.alpha_bps, beta=s.beta,
                feedback_delay=delay_est,
                initial_rate_bps=s.initial_rate_bps,
                max_rate_bps=s.fgs.max_rate_bps)
            source = PelsSource(
                self.sim, src_host, dst_host, flow_id=flow,
                controller=controller,
                gamma_controller=GammaController(sigma=s.sigma,
                                                 p_thr=s.p_thr),
                fgs_config=s.fgs,
                start_time=(flow * 0.618) % 1.0 * s.fgs.frame_interval,
                feedback_timeout=s.feedback_timeout,
                blind_backoff=s.blind_backoff)
            sink = PelsSink(self.sim, dst_host, flow_id=flow, source=source,
                            ack_delay=backward)
            self.sources.append(source)
            self.sinks.append(sink)

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

        #: What reports, the monitor and the meta-controller read.
        self.view = SessionView(
            senders=self.sources, receivers=self.sinks,
            ports=[PortView(queue.name, queue.core, feedback) for
                   queue, feedback in zip(self.hop_queues, self.feedbacks)],
            n_flows=s.n_flows, alpha_bps=s.alpha_bps, beta=s.beta,
            p_thr=s.p_thr, clock=self.sim, engine=self.sim)

        # Epoch-boundary metrics snapshots, as in PelsSimulation.
        registry = current_registry()
        self.monitor = SimulationMonitor(self.view, registry) \
            if registry is not None else None

        # Opt-in online meta-control (chained after the monitor; the
        # r* oracle uses the tightest hop, as the monitor does).
        self.meta: Optional[MetaController] = None
        if s.meta_controller is not None:
            self.meta = MetaController(s.meta_controller).attach(self.view)

    def run(self, until: Optional[float] = None) -> "MultiHopPelsSimulation":
        self.sim.run(until=until if until is not None
                     else self.scenario.duration)
        return self

    # -- observations -------------------------------------------------------

    def bottleneck_router_id_of(self, flow: int) -> Optional[int]:
        """The router the flow currently believes is its bottleneck."""
        return self.sources[flow].tracker.router_id

    def router_id_of_hop(self, hop: int) -> int:
        return self.feedbacks[hop].router_id

    def hop_losses(self) -> Dict[int, float]:
        """Latest Eq. 11 loss of every hop."""
        return {i: fb.loss for i, fb in enumerate(self.feedbacks)}
