"""End-to-end PELS simulation assembly.

Wires the Fig. 6 bar-bell together: PELS sources/sinks with MKC (or any
registered controller), the tri-color WRR bottleneck, the router
feedback process, optional TCP cross-traffic in the Internet queue, and
periodic measurement sampling.  Every evaluation figure runs through
:class:`PelsSimulation`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional

from ..cc.tcp import TcpSink, TcpSource
from ..control.meta import MetaControllerConfig
from ..sim.traffic import CbrSource, ParetoBurstSource
from ..sim.packet import Color
from ..sim.stats import TimeSeries
from ..sim.topology import Barbell, BarbellConfig, build_barbell
from ..video.fgs import FgsConfig
from .assembly import PacketAssembly
from .colors import PelsMarkingPolicy
from .flow import FRAME_PHASE, frame_start
from .params import ControlParams
from .pels_queue import PelsBottleneckQueue, PelsQueueConfig

__all__ = ["PelsScenario", "PelsSimulation"]

#: LRD cross-traffic shape (see ParetoBurstSource): Pareto shape, mean
#: burst, and a peak sized with the idle mean so the long-run average
#: equals ``cbr_rate_bps``.
LRD_PEAK_BPS = 6_000_000.0
LRD_SHAPE = 1.5
LRD_MEAN_BURST_S = 0.4


@dataclass
class PelsScenario(ControlParams):
    """Complete parameterization of a PELS experiment run.

    Defaults reproduce the setup of Section 6: 4 mb/s bottleneck with
    50% WRR share for PELS and the :class:`ControlParams` control
    plane, driven by MKC unless ``controller_name`` says otherwise.
    """

    n_flows: int = 2
    duration: float = 60.0
    seed: int = 1
    #: Per-flow start times; defaults to all starting at t = 0.
    start_times: Optional[List[float]] = None

    controller_name: str = "mkc"

    #: Random reverse-path ACK loss probability (robustness tests).
    ack_loss_rate: float = 0.0
    #: Feedback-starvation timeout for the sources (seconds).  None —
    #: the default — disables the graceful-degradation path entirely,
    #: keeping legacy runs event-for-event identical; chaos scenarios
    #: set it so flows survive router restarts and link outages.
    feedback_timeout: Optional[float] = None
    #: Per-frame multiplicative rate decay while a source is blind.
    blind_backoff: float = 0.85
    #: Record (frame_id, arrival, color) per packet at every sink
    #: (needed by the playback-deadline analysis; off by default).
    record_arrivals: bool = False
    #: Per-color delay series sampling at the sinks: 1 records every
    #: delay sample (exact Fig. 8/9 windows), n keeps every n-th,
    #: 0 disables the series (aggregate mean/max stay exact).
    delay_series_stride: int = 1

    sample_interval: float = 1.0

    #: FGS geometry; the scenario default raises ``frame_packets`` to 256
    #: (R_max ≈ 1.56 mb/s at the 0.65625 s frame interval) so the MKC
    #: equilibrium of Fig. 9 (~1 mb/s per flow) is reachable — the paper
    #: codes the FGS layer at a "very large" R_max (Section 2.3).
    fgs: FgsConfig = field(
        default_factory=lambda: FgsConfig(frame_packets=256))
    topology: BarbellConfig = field(default_factory=BarbellConfig)
    queue: PelsQueueConfig = field(default_factory=PelsQueueConfig)

    #: Cross traffic in the Internet queue: "cbr" keeps it backlogged so
    #: WRR grants PELS exactly its share (the paper uses TCP for this);
    #: "tcp" uses the Reno-like sources; "lrd" is long-range-dependent
    #: Pareto ON/OFF VBR (same 3 mb/s mean, heavy-tailed bursts);
    #: "none" lets PELS take the link.
    cross_traffic: str = "cbr"
    cbr_rate_bps: float = 3_000_000.0
    tcp_flows: int = 2
    #: Optional per-flow marking policy factory override (see colors.py).
    marking_policy_factory: Optional[type] = None
    #: Opt-in online meta-control (PID tuning of alpha/sigma/WRR); None
    #: — the default — attaches nothing, keeping untuned runs event-
    #: and byte-identical to the frozen-parameter reproduction.
    meta_controller: Optional[MetaControllerConfig] = None

    def start_time_of(self, flow: int) -> float:
        return frame_start(flow, self.fgs, FRAME_PHASE, self.start_times)

    def frame_phase_of(self, flow: int) -> float:
        """Deterministic per-flow frame-clock offset (see
        :func:`~repro.core.flow.frame_start`)."""
        return frame_start(flow, self.fgs, FRAME_PHASE)

    def pels_capacity_bps(self) -> float:
        """The PELS share of the bottleneck (``C`` of Eq. 11)."""
        return self.topology.bottleneck_bps * self.queue.pels_share()

    def with_staggered_starts(self, batch: int = 2,
                              spacing: float = 50.0) -> "PelsScenario":
        """Fig. 8/9 arrival pattern: ``batch`` new flows every ``spacing`` s."""
        starts = [spacing * (flow // batch) for flow in range(self.n_flows)]
        return replace(self, start_times=starts)


class PelsSimulation(PacketAssembly):
    """A fully wired PELS run over the bar-bell topology."""

    def __init__(self, scenario: Optional[PelsScenario] = None) -> None:
        s = scenario or PelsScenario()
        if s.n_flows < 1:
            raise ValueError("need at least one PELS flow")
        if s.start_times is not None and len(s.start_times) != s.n_flows:
            raise ValueError("start_times must have one entry per flow")

        if s.cross_traffic not in ("none", "cbr", "tcp", "lrd"):
            raise ValueError(
                "cross_traffic must be 'none', 'cbr', 'tcp' or 'lrd'")
        super().__init__(s)
        self.bottleneck_queue = PelsBottleneckQueue(s.queue)
        n_cross = (s.tcp_flows if s.cross_traffic == "tcp"
                   else 1 if s.cross_traffic in ("cbr", "lrd") else 0)
        topo_cfg = replace(s.topology, n_flows=s.n_flows + n_cross)
        self.barbell: Barbell = build_barbell(
            self.sim, topo_cfg, bottleneck_queue=lambda: self.bottleneck_queue)

        self.feedback = self.attach_feedback(
            self.barbell.left_router, s.pels_capacity_bps(),
            "bottleneck-feedback")
        self.build_flows(
            self.barbell, FRAME_PHASE, controller_name=s.controller_name,
            start_times=s.start_times,
            marking_policy=s.marking_policy_factory or PelsMarkingPolicy,
            feedback_timeout=s.feedback_timeout,
            blind_backoff=s.blind_backoff, ack_loss_rate=s.ack_loss_rate,
            record_arrivals=s.record_arrivals,
            delay_series_stride=s.delay_series_stride)

        backward_delay = topo_cfg.rtt() / 2
        self.tcp_sources: List[TcpSource] = []
        self.tcp_sinks: List[TcpSink] = []
        self.cbr_source: Optional[CbrSource] = None
        self.lrd_source: Optional[ParetoBurstSource] = None
        if s.cross_traffic == "tcp":
            for i in range(s.tcp_flows):
                flow_id = 1000 + i
                pair = s.n_flows + i
                src_host, dst_host = self.barbell.source_sink_pair(pair)
                tcp_src = TcpSource(self.sim, src_host, dst_host,
                                    flow_id=flow_id)
                tcp_sink = TcpSink(self.sim, dst_host, flow_id=flow_id,
                                   source=tcp_src, ack_delay=backward_delay)
                self.tcp_sources.append(tcp_src)
                self.tcp_sinks.append(tcp_sink)
        elif s.cross_traffic == "cbr":
            src_host, dst_host = self.barbell.source_sink_pair(s.n_flows)
            self.cbr_source = CbrSource(self.sim, src_host, dst_host,
                                        flow_id=1000,
                                        rate_bps=s.cbr_rate_bps)
        elif s.cross_traffic == "lrd":
            src_host, dst_host = self.barbell.source_sink_pair(s.n_flows)
            # Idle-period mean sized so the long-run average matches the
            # CBR rate at the configured peak (same offered load, very
            # different burst structure).
            duty = s.cbr_rate_bps / LRD_PEAK_BPS
            if not 0 < duty < 1:
                raise ValueError("cbr_rate_bps must stay below the "
                                 f"{LRD_PEAK_BPS:.0f} b/s LRD peak")
            mean_idle = LRD_MEAN_BURST_S * (1 - duty) / duty
            self.lrd_source = ParetoBurstSource(
                self.sim, src_host, dst_host, flow_id=1000,
                peak_rate_bps=LRD_PEAK_BPS,
                mean_burst_s=LRD_MEAN_BURST_S, mean_idle_s=mean_idle,
                shape=LRD_SHAPE)

        # Periodic measurement: per-color physical loss at the bottleneck.
        self._sampler = self.feedback.every(s.sample_interval, self._sample)

        self.read_out([(self.bottleneck_queue, self.feedback)],
                      pels_share=s.queue.pels_share(),
                      set_pels_share=self.reconfigure_pels_share)

    def _sample(self) -> None:
        self.bottleneck_queue.core.losses.sample(self.sim.now)

    def reconfigure_pels_share(self, pels_weight: float) -> None:
        """Renegotiate the WRR split at runtime (administrative knob).

        Section 4.1 presents the WRR weights as a de-centralized
        administrative choice; this applies a new PELS weight to the
        live bottleneck and updates the feedback capacity C of Eq. 11
        accordingly, so the control loops re-converge to the new share.
        """
        if not 0 < pels_weight < 1:
            raise ValueError("pels weight must be in (0, 1)")
        self.bottleneck_queue.core.set_weights(pels_weight, 1 - pels_weight)
        self.feedback.capacity_bps = \
            self.scenario.topology.bottleneck_bps * pels_weight

    # -- derived results -----------------------------------------------------

    def red_loss_series(self) -> TimeSeries:
        """Sampled physical loss rate in the red queue (Fig. 7 right)."""
        return self.bottleneck_queue.core.losses.series[Color.RED]

    def mean_virtual_loss(self, t_start: float = 0.0) -> float:
        """Average router-computed loss p(k) after ``t_start``."""
        return self.feedback.loss_series.mean(t_start, float("inf"))

    def flow_rates_bps(self) -> List[float]:
        return [source.rate_bps for source in self.sources]
