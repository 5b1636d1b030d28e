"""The live PELS sender: the wall-clock driver of the flow senders.

One datagram endpoint hosts every flow of the session.  What a sender
*does* per frame and per ACK — plan with the standard marking policy
(green base, yellow/red FGS split at the current gamma) sized by the
congestion controller's rate; admit each router epoch once and step
Eq. 8 and Eq. 4; ride out feedback starvation blind — is
:class:`~repro.core.flow.FlowSender`, the very object the simulator's
``PelsSource`` drives.  This module is what the wire adds:

* **the pacer** — :meth:`LiveServer.advance` is one synchronous step:
  each flow whose (golden-ratio phased) frame deadline has passed
  truncates the unsent tail (FGS semantics) and begins its next frame;
  elapsed time becomes byte credit at the flow's *instantaneous*
  controller rate, so a fresh ACK alters the pacing within one tick,
  mirroring ``PelsSource``'s adaptive gaps; credit is capped at a
  handful of packets, so a scheduler stall produces a small burst,
  never an unbounded one.  One timing wheel drives it: the flows sit
  in ``n = min(flows, pace_tick / 1 ms)`` slots (flow *i*, in
  admission order, in slot ``i mod n``) and one timer, re-armed with
  the clock's ``call_at`` (:mod:`repro.core.clock`), steps slot
  ``k mod n`` at the absolute clock time ``t0 + k * pace_tick / n``.
  Every flow is still stepped once per
  ``pace_tick``, but the driver polls its sockets between slices of the
  population instead of after all of it, so a datagram's one-way delay
  is the queue's, not the wait for the sender's own burst to end;
* **the ACK intake** — ACKs from the client arrive on the same endpoint
  (the reverse path bypasses the router).  The header is never fully
  decoded: validity, flow id and the ``(router_id, z, p)`` label are
  cached-``Struct`` peeks.  This is where hostile input is rejected: a
  label whose loss is not a finite number in [0, 1] — which no router
  can emit — is dropped and counted before the flow's freshness
  tracker sees it;
* per-flow destinations (each flow's shard), retire/retarget for the
  gateway's teardown and failover paths, and an optional CBR timer that
  keeps the Internet FIFO backlogged (best-effort color, its own flow
  id) so WRR grants the PELS aggregate exactly its configured share.
  Its wake phase is jittered by a seeded RNG so the cross traffic
  cannot phase-lock with the router's service tick.

The server owns no task: both timers are the clock's, so the same
object paces on the :class:`~repro.core.clock.SelectorClock` of a live
process and on a :class:`~repro.sim.engine.Simulator`.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from ..cc.base import RateController, make_controller
from ..core.clock import Clock
from ..core.flow import FRAME_PHASE, FlowSender, frame_start
from ..core.gamma import GammaController
from ..obs.trace import current_tracer
from ..sim.packet import Color, FeedbackLabel
from ..video.fgs import FgsConfig, PacketPlan
from .wire import (HEADER_SIZE, LivePacket, encode_packet, peek_flow_id,
                   peek_is_valid, peek_label, peek_ptype)

__all__ = ["LiveFlow", "LiveServer", "CROSS_TRAFFIC_FLOW_ID", "MIN_STEP"]

#: Flow id of the best-effort CBR cross traffic (kept far away from the
#: PELS flow ids, which count from 0).
CROSS_TRAFFIC_FLOW_ID = 10_000

#: Shortest step of the pacer wheel, seconds.  A platform floor, not a
#: tuning knob: ``selectors.EpollSelector.select`` rounds its timeout
#: *up* to whole milliseconds, so no driver can honour a shorter one.
MIN_STEP = 0.001


class LiveFlow(FlowSender):
    """One flow of a :class:`LiveServer`: the shared sender plus the
    fields only the wire needs."""

    def __init__(self, flow_id: int, controller: RateController,
                 gamma_controller: GammaController, fgs: FgsConfig,
                 **sender_kwargs) -> None:
        super().__init__(flow_id, controller, gamma_controller, fgs,
                         **sender_kwargs)
        #: Where this flow's data goes (its shard's router endpoint);
        #: ``None`` falls back to the server-wide ``dst_addr``.
        self.dst_addr: Optional[Tuple[str, int]] = None
        self.acks_received = 0
        #: Credit-pacer state: when the next frame begins, the plan
        #: being paced out and how far it got, byte credit and the time
        #: it was last topped up.
        self.deadline = 0.0
        self.plan: Optional[List[PacketPlan]] = None
        self.pos = 0
        self.credit = 0.0
        self.last = 0.0


class LiveServer:
    """All sending flows of a live session behind one UDP endpoint.

    A datagram protocol by shape (``connection_made``,
    ``datagram_received``, ``error_received``), as
    :class:`~repro.live.router.LiveRouter` is: its transport is a
    :class:`~repro.core.clock.DatagramEndpoint`, or anything with
    ``sendto(data, addr)``.

    Parameters mirror the simulator's ``PelsScenario`` controller /
    gamma blocks; ``controller_kwargs`` is passed verbatim to
    :func:`repro.cc.base.make_controller`.

    ``flow_ids`` overrides the default ``range(n_flows)`` identities —
    the gateway allocates global flow ids, so a load generator builds
    its server around the admitted set.

    ``slots`` is the pacer wheel of the module docstring; ``advance(now,
    slot)`` steps one of them, ``advance(now)`` all of them.

    ``feedback_timeout`` (seconds, 0 = off) arms the starvation
    watchdog (see :mod:`repro.core.flow`): a flow whose feedback has
    been silent that long — its shard died, a blackhole swallowed its
    data — decays its rate by ``blind_backoff`` per frame, riding out
    the gap conservatively until the first label from a replacement
    shard resynchronizes it (the tracker adopts a fresh ``router_id``'s
    epoch clock immediately).
    """

    def __init__(self, clock: Clock, n_flows: int,
                 controller_name: str = "mkc",
                 controller_kwargs: Optional[dict] = None,
                 gamma_kwargs: Optional[dict] = None,
                 fgs: Optional[FgsConfig] = None,
                 cbr_rate_bps: float = 0.0,
                 pace_tick: float = 0.005,
                 flow_ids: Optional[Sequence[int]] = None,
                 seed: Optional[int] = None,
                 feedback_timeout: float = 0.0,
                 blind_backoff: float = 0.85) -> None:
        if flow_ids is None:
            flow_ids = range(n_flows)
        if len(flow_ids) < 1:
            raise ValueError("need at least one live flow")
        if pace_tick <= 0:
            raise ValueError("pace tick must be positive")
        self.clock = clock
        self.fgs = fgs or FgsConfig(frame_packets=256)
        self.pace_tick = pace_tick
        self.cbr_rate_bps = cbr_rate_bps
        self._rng = random.Random(seed)
        trace = current_tracer()
        self.flows: Dict[int, LiveFlow] = {}
        n_slots = max(1, min(len(flow_ids), int(pace_tick / MIN_STEP)))
        #: The pacer wheel: a slot is what one timer wake steps.
        self.slots: List[List[LiveFlow]] = [[] for _ in range(n_slots)]
        for index, flow_id in enumerate(flow_ids):
            flow = self.flows[flow_id] = LiveFlow(
                flow_id,
                make_controller(controller_name, **(controller_kwargs or {})),
                GammaController(**(gamma_kwargs or {})),
                self.fgs, feedback_timeout=feedback_timeout or None,
                blind_backoff=blind_backoff, trace=trace)
            self.slots[index % n_slots].append(flow)
        self.dst_addr: Optional[Tuple[str, int]] = None
        self.transport = None
        self.cross_packets_sent = 0
        #: ACKs dropped at the socket for carrying a label no router
        #: can emit (loss not a finite number in [0, 1]).
        self.malformed_acks = 0
        self._phased = False
        #: Between ``start()`` and ``stop()``; a timer still armed at
        #: ``stop()`` fires into a no-op.
        self._running = False

    # -- datagram protocol -------------------------------------------------

    def connection_made(self, transport) -> None:
        self.transport = transport

    def error_received(self, exc) -> None:
        pass

    def datagram_received(self, data: bytes, addr) -> None:
        """Feedback path: ACKs echoing the freshest router label.

        Hot at gateway scale (one ACK per delivered data packet), so
        the header is never fully decoded: validity, type, flow id and
        the label are all cached-``Struct`` peeks.
        """
        if len(data) < HEADER_SIZE or peek_ptype(data) != 1 \
                or not peek_is_valid(data):
            return
        flow = self.flows.get(peek_flow_id(data))
        if flow is None:
            return
        flow.acks_received += 1
        router_id, epoch, loss = peek_label(data)
        if router_id == 0:
            return  # no router has stamped this packet's path yet
        if not 0.0 <= loss <= 1.0:
            # NaN and the infinities fail the comparison too.  Rejected
            # here, not in the tracker: a forged label must not advance
            # the flow's epoch clock either.
            self.malformed_acks += 1
            return
        now = self.clock.now
        if flow.on_label(FeedbackLabel(router_id, epoch, loss),
                         now) is not None:
            # Live series are per accepted sample (the simulator's are
            # per frame): wall-clock reports average over few frames.
            flow.rate_series.record(now, flow.controller.rate_bps)
            flow.gamma_series.record(now, flow.gamma_controller.gamma)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Arm the pacer wheel's one timer (plus cross traffic)."""
        if self._running:
            raise RuntimeError("server already started")
        self._running = True
        now = self.clock.now
        self.clock.call_at(now, self._turn, 0, now)
        if self.cbr_rate_bps > 0:
            self._cross_traffic(0.0, now)

    def stop(self) -> None:
        """Stop the timers; log every in-flight frame (idempotent)."""
        self._running = False
        for flow in self.flows.values():
            flow.finish()

    def stream(self, duration: float, drain: float) -> None:
        """A session's phases on the server's clock: send for
        ``duration``, :meth:`stop`, then turn ``drain`` seconds more so
        queued datagrams and the last ACKs land."""
        self.clock.run(until=self.clock.now + duration)
        self.stop()
        self.clock.run(until=self.clock.now + drain)

    # -- transmit path -----------------------------------------------------

    def _turn(self, slot: int, due: float) -> None:
        """One wheel step, due at clock time ``due``: advance the slot,
        re-arm for the next one at its absolute deadline ``due + step``
        — so the period is ``pace_tick`` whatever the step costs.  Late
        by more than a step (a stalled loop), the wheel re-anchors at
        now: one step, never a burst of the missed ones."""
        if not self._running:
            return
        step = self.pace_tick / len(self.slots)
        now = self.clock.now
        self.advance(now, slot)
        due += step
        if due < now:
            due = now + step
        self.clock.call_at(due, self._turn, (slot + 1) % len(self.slots), due)

    def advance(self, now: float, slot: Optional[int] = None) -> None:
        """Step every active flow (of wheel ``slot``, if given) to ``now``.

        The whole pacer, synchronously: frame boundaries, credit,
        emission.  The first call phases the frame clocks from its
        ``now``.
        """
        size = self.fgs.packet_size
        interval = self.fgs.frame_interval
        if not self._phased:
            self._phased = True
            for flow in self.flows.values():
                flow.start_time = flow.deadline = \
                    now + frame_start(flow.flow_id, self.fgs, FRAME_PHASE)
        clock = self.clock
        transport = self.transport
        for flow in (self.slots[slot] if slot is not None
                     else [f for members in self.slots for f in members]):
            if now >= flow.deadline:
                # Frame boundary: the unsent tail is truncated (FGS
                # semantics) and the next frame planned.
                flow.plan = flow.begin_frame(now)
                flow.pos = 0
                # Keep the frame cadence anchored to the phase offset;
                # after a long stall, re-anchor at now instead of
                # bursting catch-up frames back to back.
                flow.deadline += interval
                if flow.deadline <= now:
                    flow.deadline = now + interval
                credit = float(size)  # first packet goes now
            elif flow.plan is None:
                continue  # still inside the initial phase offset
            else:
                credit = min(8.0 * size,
                             flow.credit + (now - flow.last) *
                             flow.controller.rate_bps / 8)
            flow.last = now
            plan = flow.plan
            pos = flow.pos
            dst = flow.dst_addr or self.dst_addr
            while pos < len(plan) and credit >= plan[pos].size:
                item = plan[pos]
                packet = LivePacket(flow_id=flow.flow_id,
                                    seq=flow.account(item), color=item.color,
                                    frame_id=flow.frame_id,
                                    index_in_frame=item.index_in_frame,
                                    sent_at=clock.now, size=item.size)
                if transport is not None and dst is not None:
                    transport.sendto(encode_packet(packet), dst)
                credit -= item.size
                pos += 1
            flow.pos = pos
            flow.credit = credit

    def _cross_traffic(self, credit: float, last: float) -> None:
        """Best-effort CBR keeping the Internet FIFO backlogged: emit
        what the credit earned since ``last`` covers, re-arm.

        The wake phase is jittered (seeded RNG) so the CBR emission
        cannot phase-lock with the router's service tick; the byte
        budget stays exactly ``cbr_rate_bps``.
        """
        if not self._running:
            return
        size = self.fgs.packet_size
        now = self.clock.now
        credit = min(8.0 * size,
                     credit + (now - last) * self.cbr_rate_bps / 8)
        while credit >= size:
            credit -= size
            packet = LivePacket(flow_id=CROSS_TRAFFIC_FLOW_ID,
                                seq=self.cross_packets_sent,
                                color=Color.BEST_EFFORT,
                                sent_at=now, size=size)
            self.cross_packets_sent += 1
            if self.transport is not None and self.dst_addr is not None:
                self.transport.sendto(encode_packet(packet), self.dst_addr)
        self.clock.call_later(self.pace_tick * self._rng.uniform(0.5, 1.5),
                              self._cross_traffic, credit, now)

    # -- gateway teardown / failover ---------------------------------------

    def retire_flow(self, flow_id: int) -> None:
        """Stop a flow's emission mid-run (gateway teardown path).

        The flow leaves its wheel slot, so a churned server steps only
        what is live.  The in-flight frame is logged; the flow object
        and its series stay queryable, so reports over a retired flow
        are partial, not missing.
        """
        flow = self.flows.get(flow_id)
        if flow is not None:
            flow.finish()
            for members in self.slots:
                if flow in members:
                    members.remove(flow)

    def retarget_flow(self, flow_id: int,
                      addr: Tuple[str, int]) -> bool:
        """Re-aim a flow's datagrams at a new address (failover path).

        Takes effect on the next emitted packet; in-flight datagrams to
        the old address are simply lost, which is the semantics of the
        shard they were heading to being dead.
        """
        flow = self.flows.get(flow_id)
        if flow is None:
            return False
        flow.dst_addr = tuple(addr)
        return True
