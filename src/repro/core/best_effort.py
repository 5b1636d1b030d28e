"""Closed-loop best-effort streaming session (the paper's §3.1 regime).

The paper evaluates best-effort by applying uniform random loss to the
FGS layer offline (Section 6.5).  This module additionally provides the
*closed-loop* version: the same MKC video flows over a single RED FIFO
bottleneck that ignores packet colors entirely, so drops hit the FGS
layer uniformly at random (the RED/ECN drop model §3.1 assumes).  The
green (base) packets are protected at the queue level to mirror the
paper's "magically protected base layer" — without it, best-effort
streaming "simply becomes impossible" (their words).

This lets the Lemma 1 arithmetic be checked against a *simulated*
best-effort network rather than a Bernoulli replay: the measured
useful-prefix statistics should match Eq. (2) at the measured loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..sim.packet import Color, Packet
from ..sim.queues import DropTailQueue, QueueDiscipline, REDQueue
from ..sim.scheduler import StrictPriorityScheduler, WeightedRoundRobinScheduler
from ..sim.topology import Barbell, BarbellConfig, build_barbell
from ..sim.traffic import CbrSource
from ..video.fgs import FgsConfig
from .assembly import PacketAssembly
from .colors import NoRedMarkingPolicy
from .params import ControlParams

__all__ = ["BestEffortScenario", "BestEffortSimulation"]


class _ProtectedBaseQueue(QueueDiscipline):
    """A RED FIFO for enhancement packets with a protected base lane.

    Green packets bypass the RED queue through a small strict-priority
    lane (the paper's "magical" base-layer protection); everything else
    — yellow, red, it makes no difference here — experiences uniform
    random RED drops.
    """

    def __init__(self, rng) -> None:
        super().__init__("best-effort-q")
        self.base_queue = DropTailQueue(capacity_packets=100, name="base-q")
        self.enhancement_queue = REDQueue(
            capacity_packets=200, min_thresh=10, max_thresh=150, max_p=1.0,
            weight=0.02, rng=rng, name="enh-red-q")
        self.scheduler = StrictPriorityScheduler(
            [self.base_queue, self.enhancement_queue],
            classifier=lambda p: 0 if p.color is Color.GREEN else 1)

    def enqueue(self, packet: Packet) -> bool:
        self.stats.record_arrival(packet)
        accepted = self.scheduler.enqueue(packet)
        if not accepted:
            self.stats.record_drop(packet)
        return accepted

    def dequeue(self) -> Optional[Packet]:
        packet = self.scheduler.dequeue()
        if packet is not None:
            self.stats.record_departure(packet)
        return packet

    def peek(self) -> Optional[Packet]:
        return self.scheduler.peek()

    def __len__(self) -> int:
        return len(self.scheduler)

    @property
    def byte_count(self) -> int:
        return self.scheduler.byte_count


#: Golden-ratio frame-clock phasing of the best-effort assembly.
FRAME_PHASE = 0.618
#: Fraction of the bottleneck reserved for the video aggregate (0.5 so
#: operating points match the PELS scenarios).
VIDEO_SHARE = 0.5


@dataclass
class BestEffortScenario(ControlParams):
    """Best-effort streaming over a RED bottleneck (no PELS queues)."""

    n_flows: int = 4
    duration: float = 60.0
    seed: int = 1
    #: gamma is irrelevant in best-effort: all enhancement is one class
    #: (NoRedMarkingPolicy marks base green, rest yellow).
    gamma0: float = 0.05
    fgs: FgsConfig = field(default_factory=lambda: FgsConfig(
        frame_packets=256))
    topology: BarbellConfig = field(default_factory=BarbellConfig)

    def video_capacity_bps(self) -> float:
        return self.topology.bottleneck_bps * VIDEO_SHARE


class BestEffortSimulation(PacketAssembly):
    """MKC video flows over a color-blind RED bottleneck."""

    def __init__(self, scenario: Optional[BestEffortScenario] = None) -> None:
        super().__init__(scenario or BestEffortScenario())
        s = self.scenario

        self.video_queue = _ProtectedBaseQueue(self.sim.rng)
        internet_queue = DropTailQueue(capacity_packets=64, name="internet-q")
        bottleneck_queue = WeightedRoundRobinScheduler(
            [self.video_queue, internet_queue],
            weights=[VIDEO_SHARE, 1 - VIDEO_SHARE],
            classifier=lambda p: 0 if p.color.is_pels else 1,
            quantum_bytes=1000, name="wrr")

        topo_cfg = replace(s.topology, n_flows=s.n_flows + 1)
        self.barbell: Barbell = build_barbell(
            self.sim, topo_cfg, bottleneck_queue=lambda: bottleneck_queue)

        self.feedback = self.attach_feedback(
            self.barbell.left_router, s.video_capacity_bps(), "be-feedback")
        self.build_flows(self.barbell, FRAME_PHASE,
                         marking_policy=NoRedMarkingPolicy)

        be_src, be_dst = self.barbell.source_sink_pair(s.n_flows)
        self.cbr = CbrSource(self.sim, be_src, be_dst, flow_id=1000,
                             rate_bps=3_000_000.0)

    def enhancement_loss_rate(self) -> float:
        """Physical loss rate of the (color-blind) enhancement queue."""
        return self.video_queue.enhancement_queue.stats.loss_rate
