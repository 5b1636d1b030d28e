"""Frozen reference: ``PelsSource`` as it stood before ``core/flow.py``.

The class body below is ``src/repro/core/source.py`` at commit ee0182d
(PR 16) verbatim — imports made absolute, class renamed, nothing else —
when frame begin, label intake and the starvation watchdog were still
written out in the simulator's source.  ``test_flow_core_differential``
runs generated scripts through it, through today's ``PelsSource`` and
through ``LiveServer``; do not edit it to make a test pass.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cc.base import RateController
from repro.sim.engine import Simulator
from repro.sim.node import Host
from repro.sim.packet import Color, Packet
from repro.sim.stats import TimeSeries
from repro.video.fgs import FgsConfig, PacketPlan
from repro.core.colors import MarkingPolicy, PelsMarkingPolicy
from repro.core.feedback import FeedbackTracker
from repro.core.gamma import GammaController

__all__ = ["FrozenPelsSource"]


class FrozenPelsSource:
    """A PELS video flow: marking + gamma control + congestion control."""

    def __init__(self, sim: Simulator, host: Host, dst_host: Host,
                 flow_id: int, controller: RateController,
                 gamma_controller: Optional[GammaController] = None,
                 fgs_config: Optional[FgsConfig] = None,
                 marking_policy: Optional[MarkingPolicy] = None,
                 start_time: float = 0.0,
                 stop_time: Optional[float] = None,
                 feedback_timeout: Optional[float] = None,
                 blind_backoff: float = 0.85) -> None:
        if feedback_timeout is not None and feedback_timeout <= 0:
            raise ValueError("feedback timeout must be positive")
        if not 0 < blind_backoff <= 1:
            raise ValueError("blind backoff must be in (0, 1]")
        self.sim = sim
        self.host = host
        self.dst_host = dst_host
        self.flow_id = flow_id
        self.controller = controller
        self.gamma_controller = gamma_controller or GammaController()
        self.fgs_config = fgs_config or FgsConfig()
        self.marking_policy = marking_policy or PelsMarkingPolicy(self.fgs_config)
        self.start_time = start_time
        self.stop_time = stop_time
        #: Feedback-starvation handling (None disables it, the default:
        #: legacy runs are unchanged event for event).
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
        self._trace = sim.tracer
        self.rate_series = TimeSeries(f"rate-flow{flow_id}")
        self.gamma_series = TimeSeries(f"gamma-flow{flow_id}")
        self.loss_series = TimeSeries(f"loss-flow{flow_id}")

        self.next_seq = 0
        self.frame_id = -1
        self.packets_sent = 0
        self.bytes_sent = 0
        self.frames_sent = 0
        #: Per-frame transmission log: frame_id -> (green, yellow, red)
        #: counts actually emitted.
        self.frame_log: dict[int, tuple[int, int, int]] = {}
        self._plan: List[PacketPlan] = []
        self._plan_pos = 0
        self._frame_deadline = 0.0
        self._generation = 0
        self._counts = [0, 0, 0]
        self._stopped = False
        # Pacing/frame events fire once and are never cancelled (the
        # generation counter guards staleness), so prebind the callbacks
        # and use the handle-free scheduling fast path.
        self._send_frame_cb = self._send_frame
        self._emit_next_cb = self._emit_next

        host.attach_agent(self, flow_id)
        sim.call_later(start_time, self._send_frame_cb)

    # -- transmit path -----------------------------------------------------

    def _send_frame(self) -> None:
        """Plan one frame and start its adaptive pacing loop."""
        if self._stopped:
            return
        if self.stop_time is not None and self.sim.now >= self.stop_time:
            self._stopped = True
            return
        self._finalize_frame_log()
        if self.feedback_timeout is not None:
            self._check_starvation()
        rate = self.controller.rate_bps
        gamma = self.gamma_controller.gamma
        self.frame_id += 1
        self.frames_sent += 1
        self._plan = self.marking_policy.plan(rate, gamma)
        self._plan_pos = 0
        self._counts = [0, 0, 0]
        self._generation += 1
        interval = self.fgs_config.frame_interval
        self._frame_deadline = self.sim.now + interval
        self.rate_series.record(self.sim.now, rate)
        self.gamma_series.record(self.sim.now, gamma)
        self.sim.call_later(interval, self._send_frame_cb)
        self._emit_next(self._generation)

    def _finalize_frame_log(self) -> None:
        if self.frame_id >= 0:
            self.frame_log[self.frame_id] = tuple(self._counts)  # type: ignore[assignment]

    def _check_starvation(self) -> None:
        """Frame-boundary watchdog: decay blind, re-sync the tracker.

        Runs on the frame clock rather than a dedicated timer so the
        starvation path adds zero events to the healthy hot path.
        """
        now = self.sim.now
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

    def _emit_next(self, generation: int) -> None:
        """Emit the next planned packet, then pace at the current rate."""
        if self._stopped or generation != self._generation:
            return
        if self._plan_pos >= len(self._plan):
            return
        if self.sim.now >= self._frame_deadline:
            # Frame deadline passed: the unsent tail is truncated, which
            # drops the top (red-most) portion of the FGS slice.
            return
        plan = self._plan[self._plan_pos]
        self._plan_pos += 1
        self._emit(plan)
        gap = plan.size * 8 / max(self.controller.rate_bps, 1.0)
        self.sim.call_later(gap, self._emit_next_cb, generation)

    def _emit(self, plan: PacketPlan) -> None:
        packet = Packet(flow_id=self.flow_id, size=plan.size,
                        color=plan.color, seq=self.next_seq,
                        frame_id=self.frame_id,
                        index_in_frame=plan.index_in_frame,
                        created_at=self.sim.now,
                        dst=self.dst_host.node_id)
        self.next_seq += 1
        self.packets_sent += 1
        self.bytes_sent += plan.size
        if plan.color is Color.GREEN:
            self._counts[0] += 1
        elif plan.color is Color.YELLOW:
            self._counts[1] += 1
        else:
            self._counts[2] += 1
        self.host.send(packet)

    # -- feedback path -------------------------------------------------------

    def receive(self, packet: Packet) -> None:
        """Handle an ACK carrying a (possibly stale) feedback label."""
        if not packet.is_ack:
            return
        loss = self.tracker.accept(packet.feedback)
        if loss is None:
            return
        now = self.sim.now
        self._last_feedback = now
        if self.blind:
            # Recovery: rebase the controller history on the decayed
            # rate (slow restart) and resume closed-loop control.  The
            # pre-fault rates in a delayed-rate buffer never generated
            # the loss that is about to arrive.
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

    def stop(self) -> None:
        """Terminate the flow (no further packets are emitted)."""
        self._stopped = True
        self._finalize_frame_log()

    def restart(self, rate_bps: Optional[float] = None,
                stop_time: Optional[float] = None) -> None:
        """Re-join a stopped flow (mid-run churn).

        Resets the controller (clearing any rate history) to
        ``rate_bps`` — default: the rate it last had — clears the
        starvation state, and restarts the frame clock at the current
        simulation time.  ``stop_time`` optionally arms a new departure.
        """
        self._stopped = False
        self.stop_time = stop_time
        self.blind = False
        self._last_feedback = self.sim.now
        self.controller.reset(rate_bps if rate_bps is not None
                              else self.controller.rate_bps)
        self.sim.call_later(0.0, self._send_frame_cb)

    @property
    def rate_bps(self) -> float:
        return self.controller.rate_bps

    @property
    def gamma(self) -> float:
        return self.gamma_controller.gamma
