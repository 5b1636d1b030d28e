"""PELS — Partitioned Enhancement Layer Streaming (the paper's core).

* :class:`~repro.core.pels_queue.PelsQueueCore` — tri-color
  strict-priority AQM + Internet FIFO under WRR (Fig. 4 left), driven
  by :class:`~repro.core.pels_queue.PelsBottleneckQueue` in the
  simulator and by :class:`~repro.live.router.LiveRouter` on real UDP.
* :class:`~repro.core.gamma.GammaController` — the red-fraction
  controller of Eqs. (4)-(5).
* :class:`~repro.core.feedback.RouterFeedback` /
  :class:`~repro.core.feedback.FeedbackTracker` — Eq. (11) virtual-loss
  feedback with epoch freshness (Section 5.2).
* :class:`~repro.core.flow.FlowSender` /
  :class:`~repro.core.flow.FlowReceiver` — the application endpoints,
  clock-free; :class:`~repro.core.source.PelsSource` /
  :class:`~repro.core.sink.PelsSink` drive them in the simulator,
  :mod:`repro.live` on real UDP.
* :class:`~repro.core.session.PelsSimulation` — full Fig. 6 assembly.
* :class:`~repro.core.report.SessionView` /
  :func:`~repro.core.report.build_report` — the one read-out of a
  session, simulated or live.
"""

from .best_effort import BestEffortScenario, BestEffortSimulation
from .clock import Clock, ManualClock, WallClock
from .colors import (AllGreenMarkingPolicy, MarkingPolicy, NoRedMarkingPolicy,
                     PelsMarkingPolicy)
from .feedback import (EpochLog, FeedbackComputer, FeedbackTracker,
                       RouterFeedback)
from .flow import FlowReceiver, FlowSender, frame_receptions
from .gamma import (GammaController, gamma_fixed_point, is_stable_sigma,
                    iterate_gamma, iterate_gamma_delayed, pels_utility_bound)
from .multihop import MultiHopPelsSimulation, MultiHopScenario
from .pels_queue import PelsBottleneckQueue, PelsQueueConfig, PelsQueueCore
from .report import (FlowReport, PortView, SessionReport, SessionView,
                     build_report)
from .session import PelsScenario, PelsSimulation
from .sink import PelsSink
from .source import PelsSource

__all__ = [
    "AllGreenMarkingPolicy",
    "BestEffortScenario",
    "BestEffortSimulation",
    "Clock",
    "EpochLog",
    "FeedbackComputer",
    "FeedbackTracker",
    "ManualClock",
    "WallClock",
    "FlowReceiver",
    "FlowReport",
    "FlowSender",
    "GammaController",
    "MarkingPolicy",
    "MultiHopPelsSimulation",
    "MultiHopScenario",
    "NoRedMarkingPolicy",
    "PelsBottleneckQueue",
    "PelsMarkingPolicy",
    "PelsQueueConfig",
    "PelsQueueCore",
    "PelsScenario",
    "PelsSimulation",
    "PelsSink",
    "PelsSource",
    "PortView",
    "SessionReport",
    "SessionView",
    "RouterFeedback",
    "build_report",
    "frame_receptions",
    "gamma_fixed_point",
    "is_stable_sigma",
    "iterate_gamma",
    "iterate_gamma_delayed",
    "pels_utility_bound",
]
