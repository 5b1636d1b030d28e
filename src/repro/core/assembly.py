"""What every packet assembly shares: flow wiring, read-out tail, run loop.

The single-hop, multi-hop and best-effort simulations differ in
topology, bottleneck discipline and cross traffic.  How a PELS flow is
wired onto a host pair from the scenario's
:class:`~repro.core.params.ControlParams`, how a router gets its Eq. 11
process and the read-out tail live here once; what hangs on the epoch
hook is :func:`~repro.core.report.attach_readout`, which the live
session shares.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

from ..cc.base import make_controller
from ..sim.engine import Simulator
from .colors import PelsMarkingPolicy
from .feedback import RouterFeedback
from .flow import frame_receptions, frame_start
from .gamma import GammaController
from .pels_queue import PelsBottleneckQueue
from .report import PortView, SessionView, attach_readout
from .sink import PelsSink
from .source import PelsSource

if TYPE_CHECKING:
    from ..sim.chain import Chain
    from ..sim.node import Router

__all__ = ["PacketAssembly"]


class PacketAssembly:
    """Base of the three assemblies; ``scenario`` is a ``ControlParams``
    that also carries ``n_flows``, ``duration``, ``seed`` and ``fgs``."""

    def __init__(self, scenario) -> None:
        self.scenario = scenario
        self.sim = Simulator(seed=scenario.seed)
        self.sources: List[PelsSource] = []
        self.sinks: List[PelsSink] = []

    def attach_feedback(self, router: Router, capacity_bps: float,
                        name: str) -> RouterFeedback:
        """One Eq. 11 feedback computer, hooked into ``router``."""
        feedback = RouterFeedback(
            self.sim, capacity_bps=capacity_bps,
            interval=self.scenario.feedback_interval,
            window_intervals=self.scenario.feedback_window, name=name)
        router.add_packet_hook(feedback.observe)
        return feedback

    def build_flows(self, topology: Chain, frame_phase: float, *,
                    controller_name: str = "mkc",
                    start_times: Optional[Sequence[float]] = None,
                    marking_policy: type = PelsMarkingPolicy,
                    feedback_timeout: Optional[float] = None,
                    blind_backoff: float = 0.85, **sink_options) -> None:
        """Wire one PELS source/sink pair per flow onto ``topology``;
        ``sink_options`` (ACK loss, recording) go to :class:`PelsSink`."""
        s, config = self.scenario, topology.config
        control = s.control(s.fgs.max_rate_bps)
        gamma_kwargs = control.gamma_kwargs()
        ack_delay = config.rtt() / 2
        for flow in range(s.n_flows):
            src_host, dst_host = topology.source_sink_pair(flow)
            delay = control.feedback_delay(config.rtt(flow))
            source = PelsSource(
                self.sim, src_host, dst_host, flow_id=flow,
                controller=make_controller(
                    controller_name,
                    **control.controller_kwargs(controller_name, delay)),
                gamma_controller=GammaController(**gamma_kwargs),
                fgs_config=s.fgs, marking_policy=marking_policy(s.fgs),
                start_time=frame_start(flow, s.fgs, frame_phase, start_times),
                feedback_timeout=feedback_timeout,
                blind_backoff=blind_backoff)
            self.sources.append(source)
            self.sinks.append(PelsSink(
                self.sim, dst_host, flow_id=flow, source=source,
                ack_delay=ack_delay, **sink_options))

    def read_out(self, ports: Iterable[Tuple[PelsBottleneckQueue,
                                             RouterFeedback]],
                 **wrr_knob) -> None:
        """Expose the wired PELS ports (hop order) to the readers."""
        s = self.scenario
        #: What reports, the monitor and the meta-controller read.
        self.view = SessionView(
            senders=self.sources, receivers=self.sinks,
            ports=[PortView(queue.name, queue.core, feedback)
                   for queue, feedback in ports],
            n_flows=s.n_flows, alpha_bps=s.alpha_bps, beta=s.beta,
            p_thr=s.p_thr, clock=self.sim, engine=self.sim, **wrr_knob)
        self.monitor, self.meta = attach_readout(self.view, s.meta_controller)

    def run(self, until: Optional[float] = None):
        """Advance the simulation (defaults to the scenario duration)."""
        self.sim.run(until=until if until is not None
                     else self.scenario.duration)
        return self

    def frame_receptions(self, flow: int) -> list:
        """Ordered per-frame receptions joined with the send log."""
        return frame_receptions(self.sources[flow], self.sinks[flow])
