"""The PELS flow endpoints, clock-free (Sections 4.2, 5.2; Fig. 4 right).

The paper's end host is small.  Per *frame* the sender plans the green
base, then the FGS slice cut yellow|red at the current gamma and sized
by the Eq. 8 rate; per *ACK* it admits each ``(router_id, z)`` epoch
once and steps Eq. 8 and Eq. 4.  The receiver counts what arrived per
frame and per colour.  That mechanism lives here once, as
:class:`FlowSender` and :class:`FlowReceiver`; time enters only as
``now`` arguments, nothing here schedules, sleeps or touches a socket.
The simulator (:mod:`repro.core.source`, :mod:`repro.core.sink`) and
the live stack (:mod:`repro.live.server`, :mod:`repro.live.client`)
are drivers: they own *when* a frame begins (both offset a flow's
first frame by :func:`frame_start`) and *how* a planned packet reaches
the network — per-packet gap events there, byte credit here — and call
the three sender entry points

* :meth:`FlowSender.begin_frame` — finalise the previous frame's
  emitted counts, run the starvation watchdog, snapshot rate and gamma
  into the series, plan;
* :meth:`FlowSender.account` — one planned packet was emitted;
* :meth:`FlowSender.on_label` — one feedback label arrived: freshness,
  recovery, Eq. 8, Eq. 4, loss series, trace.

Feedback starvation (``feedback_timeout``; ``None`` = off).  A dead
reverse path, a link outage, a killed shard or a router restart whose
wiped epoch counter makes every label look stale all starve the loop.
At a frame boundary with no fresh sample for longer than the timeout
the flow is *blind*: on entry the episode is counted
(``rate_freezes``), the tracker's epoch clock is dropped so a reborn
router's small epochs are adoptable, and ``trace.blind`` fires; every
blind frame (``blind_intervals``) decays the rate by ``blind_backoff``
while gamma stays frozen.  The first fresh sample ends the episode
(``recoveries``) and rebases the controller on the decayed rate — a
delayed-rate buffer must not replay pre-fault rates into the loss that
is about to arrive.  The watchdog runs on the frame clock, so a
healthy flow pays nothing per packet or per ACK for it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..cc.base import RateController
from ..sim.packet import Color, FeedbackLabel
from ..sim.stats import DelayProbe, TimeSeries
from ..video.decoder import FrameReception
from ..video.fgs import FgsConfig, PacketPlan
from .colors import MarkingPolicy, PelsMarkingPolicy
from .feedback import FeedbackTracker
from .gamma import GammaController

__all__ = ["FRAME_PHASE", "FlowSender", "FlowReceiver", "frame_receptions",
           "frame_start"]

_GREEN = Color.GREEN


#: Golden-ratio frame-clock phasing of the single-hop assembly and the
#: live server's pacer (multi-hop and best-effort carry their own).
FRAME_PHASE = 0.6180339887


def frame_start(flow: int, fgs: FgsConfig, phase: float,
                start_times: Optional[Sequence[float]] = None) -> float:
    """A flow's scenario start plus a deterministic frame-clock offset.

    Without it every flow would (re)plan frames at identical instants —
    an artificial synchronization that correlates the plan-time gamma
    with the aggregate-rate oscillation and skews the effective red
    share.  Golden-ratio spacing (``phase``) decorrelates the frame
    clocks while keeping runs reproducible.
    """
    base = 0.0 if start_times is None else start_times[flow]
    return base + (flow * phase) % 1.0 * fgs.frame_interval


class FlowSender:
    """Sender half of one PELS flow: marking + Eq. 4 + Eq. 8 + watchdog."""

    def __init__(self, flow_id: int, controller: RateController,
                 gamma_controller: Optional[GammaController] = None,
                 fgs_config: Optional[FgsConfig] = None,
                 marking_policy: Optional[MarkingPolicy] = None,
                 start_time: float = 0.0,
                 feedback_timeout: Optional[float] = None,
                 blind_backoff: float = 0.85, trace=None) -> None:
        if feedback_timeout is not None and feedback_timeout <= 0:
            raise ValueError("feedback timeout must be positive")
        if not 0 < blind_backoff <= 1:
            raise ValueError("blind backoff must be in (0, 1]")
        self.flow_id = flow_id
        self.controller = controller
        self.gamma_controller = gamma_controller or GammaController()
        self.fgs_config = fgs_config or FgsConfig()
        self.marking_policy = marking_policy \
            or PelsMarkingPolicy(self.fgs_config)
        #: When the frame clock starts; feedback silence is counted from
        #: here until the first accepted label.
        self.start_time = start_time
        self.feedback_timeout = feedback_timeout
        self.blind_backoff = blind_backoff
        self.blind = False
        #: Frame intervals spent without usable feedback.
        self.blind_intervals = 0
        #: Distinct blind episodes (each freezes gamma + starts decay).
        self.rate_freezes = 0
        #: Blind episodes ended by a fresh feedback sample.
        self.recoveries = 0
        self._last_feedback: Optional[float] = None

        self.tracker = FeedbackTracker()
        self._trace = trace
        self.rate_series = TimeSeries(f"rate-flow{flow_id}")
        self.gamma_series = TimeSeries(f"gamma-flow{flow_id}")
        self.loss_series = TimeSeries(f"loss-flow{flow_id}")

        self.next_seq = 0
        self.frame_id = -1
        self.packets_sent = 0
        self.bytes_sent = 0
        self.frames_sent = 0
        #: frame_id -> (green, yellow, red) counts actually emitted;
        #: holds finalised frames only (see :meth:`finish`).
        self.frame_log: Dict[int, Tuple[int, int, int]] = {}
        self._counts = [0, 0, 0]

    @property
    def rate_bps(self) -> float:
        return self.controller.rate_bps

    @property
    def gamma(self) -> float:
        return self.gamma_controller.gamma

    # -- per frame ---------------------------------------------------------

    def begin_frame(self, now: float) -> List[PacketPlan]:
        """Close the previous frame and plan the one starting at ``now``."""
        self.finish()
        if self.feedback_timeout is not None:
            self._check_starvation(now)
        rate = self.controller.rate_bps
        gamma = self.gamma_controller.gamma
        self.frame_id += 1
        self.frames_sent += 1
        self._counts = [0, 0, 0]
        self.rate_series.record(now, rate)
        self.gamma_series.record(now, gamma)
        return self.marking_policy.plan(rate, gamma)

    def finish(self) -> None:
        """Write the in-flight frame's emitted counts to ``frame_log``.

        Called by every :meth:`begin_frame`, and by the drivers when a
        flow stops mid-frame so its last frame is not lost.
        """
        if self.frame_id >= 0:
            green, yellow, red = self._counts
            self.frame_log[self.frame_id] = (green, yellow, red)

    def _check_starvation(self, now: float) -> None:
        last = self._last_feedback
        if last is None:
            last = self.start_time
        if now - last < self.feedback_timeout:
            return
        if not self.blind:
            self.blind = True
            self.rate_freezes += 1
            # A restarted bottleneck re-counts epochs from zero; only
            # dropping our epoch clock lets its labels through again.
            self.tracker.reset()
            if self._trace is not None:
                self._trace.blind(now, self.flow_id, True)
        self.blind_intervals += 1
        self.controller.blind_decay(self.blind_backoff, now)

    # -- per packet --------------------------------------------------------

    def account(self, plan: PacketPlan) -> int:
        """Count one emitted packet of the plan; return its sequence number."""
        seq = self.next_seq
        self.next_seq = seq + 1
        self.packets_sent += 1
        self.bytes_sent += plan.size
        color = plan.color
        # Green, yellow, and everything else counted as red.
        self._counts[color if color < 2 else 2] += 1
        return seq

    # -- per ACK -----------------------------------------------------------

    def on_label(self, label: Optional[FeedbackLabel],
                 now: float) -> Optional[float]:
        """Take one (possibly stale) label; return the loss if it was fresh."""
        loss = self.tracker.accept(label)
        if loss is None:
            return None
        self._last_feedback = now
        if self.blind:
            self.blind = False
            self.recoveries += 1
            self.controller.reset(self.controller.rate_bps)
            if self._trace is not None:
                self._trace.blind(now, self.flow_id, False)
        self.controller.on_feedback(loss, now)
        self.gamma_controller.update(loss)
        self.loss_series.record(now, loss)
        if self._trace is not None:
            self._trace.rate(now, self.flow_id, loss,
                             self.controller.rate_bps)
            self._trace.gamma_step(now, self.flow_id,
                                   self.gamma_controller.gamma)
        return loss

    def rejoin(self, now: float, rate_bps: Optional[float] = None) -> None:
        """Re-join after a stop: clear the starvation state and restart
        the controller (history included) from ``rate_bps`` — default:
        the rate it last had."""
        self.blind = False
        self._last_feedback = now
        self.controller.reset(rate_bps if rate_bps is not None
                              else self.controller.rate_bps)


class FlowReceiver:
    """Receiver half: counters, per-colour delay, per-frame reception."""

    def __init__(self, flow_id: int, green_packets: int = 21,
                 delay_series_stride: int = 1) -> None:
        self.flow_id = flow_id
        self.green_packets = green_packets
        self.packets_received = 0
        self.bytes_received = 0
        self.frames: Dict[int, FrameReception] = {}
        #: See DelayProbe.series_stride — 1 records every delay sample,
        #: 0 keeps only the aggregate counters (mean/max stay exact).
        self.delay_probes: Dict[Color, DelayProbe] = {
            color: DelayProbe(color.name.lower(),
                              series_stride=delay_series_stride)
            for color in (Color.GREEN, Color.YELLOW, Color.RED)
        }
        # Color.is_pels and the dict hash are per-packet costs; a plain
        # list indexed by the IntEnum value skips both.
        self._probe_by_color = [self.delay_probes[Color.GREEN],
                                self.delay_probes[Color.YELLOW],
                                self.delay_probes[Color.RED],
                                None]

    def account(self, packet, now: float, sent_at: float) -> None:
        """Count one data packet (anything with ``size``, ``color``,
        ``frame_id`` and ``index_in_frame``) that arrived at ``now``."""
        self.packets_received += 1
        self.bytes_received += packet.size
        color = packet.color
        probe = self._probe_by_color[color]
        if probe is not None:
            probe.record(now, now - sent_at)
        frame_id = packet.frame_id
        index = packet.index_in_frame
        if frame_id is None or index is None:
            return
        reception = self.frames.get(frame_id)
        if reception is None:
            reception = self.frames[frame_id] = FrameReception(
                frame_id=frame_id)
        if color is _GREEN:
            reception.green_received += 1
        else:
            # Green packets occupy frame indices [0, green_packets); the
            # enhancement index is relative to the first FGS packet.
            reception.enhancement_received.add(index - self.green_packets)


def frame_receptions(sender: FlowSender,
                     receiver: FlowReceiver) -> List[FrameReception]:
    """Per-frame receptions joined with the send log, in frame order.

    One entry per *finalised* frame of ``sender.frame_log`` (the frame
    in flight joins once :meth:`FlowSender.finish` has logged it), each
    carrying the green and enhancement counts actually emitted so
    utility (useful/sent) is well-defined.
    """
    out: List[FrameReception] = []
    for frame_id, (green, yellow, red) in sender.frame_log.items():
        reception = receiver.frames.get(frame_id)
        if reception is None:
            reception = FrameReception(frame_id=frame_id)
        reception.green_sent = green
        reception.enhancement_sent = yellow + red
        out.append(reception)
    return out
