"""The PELS application source: the simulator's driver of a flow sender.

What a PELS sender *does* — plan each frame at the controller's rate
and the current gamma, admit each router epoch once, step Eq. 8 and
Eq. 4, ride out feedback starvation blind — is
:class:`~repro.core.flow.FlowSender`.  This class is what the
simulator adds: the frame clock as events, and *adaptive* pacing — the
gap to the next packet is recomputed from the instantaneous controller
rate, so rate changes take effect within a packet time (as in the
paper's ns2 agents) rather than at frame granularity.  If the rate
drops mid-frame the plan tail (the red/upper packets) simply does not
get sent before the frame deadline, which is exactly the FGS
truncation semantics.
"""

from __future__ import annotations

from typing import List, Optional

from ..cc.base import RateController
from ..sim.engine import Simulator
from ..sim.node import Host
from ..sim.packet import Packet
from ..video.fgs import FgsConfig, PacketPlan
from .colors import MarkingPolicy
from .flow import FlowSender
from .gamma import GammaController

__all__ = ["PelsSource"]


class PelsSource(FlowSender):
    """A PELS video flow on a simulated host.

    ``feedback_timeout`` (None disables it, the default: legacy runs
    are unchanged event for event) arms the starvation watchdog.
    """

    def __init__(self, sim: Simulator, host: Host, dst_host: Host,
                 flow_id: int, controller: RateController,
                 gamma_controller: Optional[GammaController] = None,
                 fgs_config: Optional[FgsConfig] = None,
                 marking_policy: Optional[MarkingPolicy] = None,
                 start_time: float = 0.0,
                 stop_time: Optional[float] = None,
                 feedback_timeout: Optional[float] = None,
                 blind_backoff: float = 0.85) -> None:
        super().__init__(flow_id, controller, gamma_controller, fgs_config,
                         marking_policy, start_time, feedback_timeout,
                         blind_backoff, trace=sim.tracer)
        self.sim = sim
        self.host = host
        self.dst_host = dst_host
        self.stop_time = stop_time
        self._plan: List[PacketPlan] = []
        self._plan_pos = 0
        self._frame_deadline = 0.0
        self._generation = 0
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
        now = self.sim.now
        if self.stop_time is not None and now >= self.stop_time:
            self._stopped = True
            return
        self._plan = self.begin_frame(now)
        self._plan_pos = 0
        self._generation += 1
        interval = self.fgs_config.frame_interval
        self._frame_deadline = now + interval
        self.sim.call_later(interval, self._send_frame_cb)
        self._emit_next(self._generation)

    def _emit_next(self, generation: int) -> None:
        """Emit the next planned packet, then pace at the current rate."""
        if self._stopped or generation != self._generation:
            return
        sim = self.sim
        now = sim.now
        if now >= self._frame_deadline:
            # Frame deadline passed: the unsent tail is truncated, which
            # drops the top (red-most) portion of the FGS slice.
            return
        try:
            plan = self._plan[self._plan_pos]
        except IndexError:  # the whole plan went out before the deadline
            return
        self._plan_pos += 1
        size = plan.size
        self.host.send(Packet(self.flow_id, size, plan.color,
                              self.account(plan), now, self.dst_host.node_id,
                              self.frame_id, plan.index_in_frame))
        rate = self.controller.rate_bps
        sim.call_later(size * 8 / (1.0 if rate < 1.0 else rate),
                       self._emit_next_cb, generation)

    # -- feedback path -------------------------------------------------------

    def receive(self, packet: Packet) -> None:
        """Handle an ACK carrying a (possibly stale) feedback label."""
        if packet.is_ack:
            self.on_label(packet.feedback, self.sim.now)

    def stop(self) -> None:
        """Terminate the flow (no further packets are emitted)."""
        self._stopped = True
        self.finish()

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
        self.rejoin(self.sim.now, rate_bps)
        self.sim.call_later(0.0, self._send_frame_cb)
