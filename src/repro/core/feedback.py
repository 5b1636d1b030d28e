"""Router-side feedback computation and source-side freshness tracking.

Implements Section 5.2:

* The router keeps a byte counter ``S`` over the PELS aggregate; every
  ``T`` time units it computes the arrival rate ``R = S/T`` and virtual
  loss ``p = (R - C)/R`` (Eq. 11), increments its epoch ``z`` and resets
  ``S``.
* Each passing packet is stamped with the ``(router_id, z, p)`` label;
  with multiple routers on a path, a router overrides the label only if
  its loss is larger (max-min: feedback comes from the most congested
  resource).
* Sources track ``(router_id, z)`` and react to a label at most once
  (freshness), which also suppresses out-of-order feedback caused by
  re-ordering across the priority queues.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from ..sim.engine import Process, Simulator
from ..sim.packet import Color, FeedbackLabel, Packet
from ..sim.stats import TimeSeries

__all__ = ["FeedbackComputer", "EpochLog", "RouterFeedback",
           "FeedbackTracker"]

_BEST_EFFORT = Color.BEST_EFFORT


class FeedbackComputer:
    """The pure Eq. 11 state machine, independent of any event loop.

    Holds everything a PELS router needs to publish feedback — the
    sliding byte-count window, the epoch counter ``z``, the current
    virtual loss ``p`` and the ``(router_id, z, p)`` label — but never
    schedules anything and never reads a clock.  The caller counts the
    PELS bytes of each interval and hands them to :meth:`close` (through
    :meth:`EpochLog.close_epoch`); in the simulator that caller is
    :class:`RouterFeedback` on the event heap, in :mod:`repro.live` it
    is ``LiveRouter.close_epoch`` on the wall clock.

    Wall-clock callers pass the *measured* interval length as
    ``elapsed`` so timer jitter (an asyncio sleep that overshoots T)
    cannot masquerade as an arrival-rate change: Eq. 11 then divides by
    the time that actually passed.  Simulator callers omit it and get
    the exact historical arithmetic.
    """

    __slots__ = ("capacity_bps", "interval", "window_intervals",
                 "router_id", "epoch", "loss", "rate_bps", "restarts",
                 "_window", "_spans", "label")

    def __init__(self, capacity_bps: float, interval: float = 0.030,
                 router_id: int = 1, window_intervals: int = 5) -> None:
        if capacity_bps <= 0:
            raise ValueError("capacity must be positive")
        if interval <= 0:
            raise ValueError("feedback interval must be positive")
        if window_intervals < 1:
            raise ValueError("window must cover at least one interval")
        self.capacity_bps = capacity_bps
        self.interval = interval
        self.window_intervals = window_intervals
        self.router_id = router_id
        self.epoch = 0
        self.loss = 0.0
        self.rate_bps = 0.0
        self.restarts = 0
        self._window: List[int] = []
        #: Measured interval lengths parallel to ``_window``; ``None``
        #: marks a nominal-T interval (simulator path).  Kept separate
        #: so the all-nominal case reproduces the historical
        #: ``len(window) * interval`` product bit for bit.
        self._spans: List[Optional[float]] = []
        self.label = FeedbackLabel(self.router_id, self.epoch, self.loss)

    def close(self, byte_count: int,
              elapsed: Optional[float] = None) -> FeedbackLabel:
        """Close one interval ``T``: Eq. 11 update of (R, p, z).

        ``byte_count`` is the PELS bytes that arrived during the
        interval; ``elapsed`` the measured interval length (wall-clock
        callers), or ``None`` for exactly ``interval``.  Returns the new
        label, shared by every packet stamped in the new epoch.
        """
        self._window.append(byte_count)
        self._spans.append(elapsed)
        if len(self._window) > self.window_intervals:
            self._window.pop(0)
            self._spans.pop(0)
        if any(span is not None for span in self._spans):
            span = sum(self.interval if s is None else s
                       for s in self._spans)
        else:
            span = len(self._window) * self.interval
        rate = sum(self._window) * 8 / span if span > 0 else 0.0
        self.rate_bps = rate
        self.loss = max(0.0, (rate - self.capacity_bps) / rate) \
            if rate > 0 else 0.0
        self.epoch += 1
        self.label = FeedbackLabel(self.router_id, self.epoch, self.loss)
        return self.label

    def restart(self, new_router_id: Optional[int] = None) -> None:
        """Crash/reboot: all feedback state returns to boot values.

        See :meth:`RouterFeedback.restart` for the epoch-freshness
        consequences the paper's ``(router_id, z)`` scheme exists to
        survive.
        """
        if new_router_id is not None:
            self.router_id = new_router_id
        self.epoch = 0
        self.loss = 0.0
        self.rate_bps = 0.0
        self._window.clear()
        self._spans.clear()
        self.label = FeedbackLabel(self.router_id, self.epoch, self.loss)
        self.restarts += 1


class EpochLog(FeedbackComputer):
    """Eq. 11 plus what every epoch leaves behind, once for both drivers.

    :meth:`close_epoch` is the whole close of an interval ``T``, in this
    order: Eq. 11, the virtual-loss and arrival-rate series, the
    tracer's ``epoch`` event, then ``epoch_hook`` — the seam the
    :class:`~repro.obs.monitor.SimulationMonitor` and the
    meta-controller attach to, so a hook always sees the epoch it is
    told about already logged.  Still clock-free: the driver counts the
    bytes where they arrive and passes them in with its ``now``.
    """

    def __init__(self, capacity_bps: float, interval: float = 0.030,
                 router_id: int = 1, window_intervals: int = 5,
                 trace=None) -> None:
        super().__init__(capacity_bps, interval, router_id, window_intervals)
        self.loss_series = TimeSeries("virtual-loss")
        self.rate_series = TimeSeries("pels-arrival-rate")
        self._trace = trace
        self.epoch_hook: Optional[Callable[["EpochLog"], None]] = None

    def close_epoch(self, byte_count: int, now: float,
                    elapsed: Optional[float] = None) -> FeedbackLabel:
        """Close the interval ending at ``now``; returns the new label."""
        label = self.close(byte_count, elapsed)
        self.loss_series.record(now, self.loss)
        self.rate_series.record(now, self.rate_bps)
        if self._trace is not None:
            self._trace.epoch(now, self.router_id, self.epoch,
                              self.rate_bps, self.loss)
        hook = self.epoch_hook
        if hook is not None:
            hook(self)
        return label


class RouterFeedback(EpochLog, Process):
    """The per-router PELS feedback computer (Eq. 11) on the event heap.

    Attach :meth:`observe` as a router packet hook; it counts PELS bytes
    and stamps the current label into every passing PELS packet.  All
    Eq. 11 state and the epoch log are the clock-free :class:`EpochLog`
    shared with the live stack; this process only supplies the
    event-heap cadence.

    Parameters
    ----------
    capacity_bps:
        The PELS share of the outgoing link (``C`` in Eq. 11) — e.g.
        2 mb/s when WRR grants PELS half of a 4 mb/s bottleneck.
    interval:
        ``T``, the feedback computation period (30 ms in Section 6.5).
    window_intervals:
        The arrival rate R is averaged over this many measurement
        intervals before Eq. 11 is applied.  Publishing the raw per-T
        value (window = 1) adds a Jensen bias: whole-packet counting
        noise passes through the max(0, (R-C)/R) nonlinearity and
        inflates the mean loss, which in turn breaks the p_R -> p_thr
        convergence of Lemma 4 when the true overload is only a few
        percent.  A short sliding window removes the bias while keeping
        the epoch cadence at T.
    """

    def __init__(self, sim: Simulator, capacity_bps: float,
                 interval: float = 0.030, router_id: Optional[int] = None,
                 window_intervals: int = 5, name: str = "") -> None:
        Process.__init__(self, sim, name or "router-feedback")
        # Allocated per-simulator so router ids in reports don't depend
        # on process history (see Simulator.next_id); starts at 1 so 0
        # never collides with a FeedbackTracker that has seen no label.
        # The tracer rides on the epoch close, adding no heap events.
        EpochLog.__init__(
            self, capacity_bps, interval,
            router_id if router_id is not None
            else sim.next_id("router-feedback", start=1),
            window_intervals, trace=sim.tracer)
        self._byte_counter = 0
        # One (immutable) label object per epoch, shared by every
        # packet stamped in that epoch and every ACK echoing it.
        self._label = self.label
        self._timer = self.every(interval, self._compute, start_delay=interval)

    def observe(self, packet: Packet) -> None:
        """Router packet hook: count PELS bytes and stamp the label."""
        if packet.is_ack or packet.color is _BEST_EFFORT:
            return
        self._byte_counter += packet.size
        packet.stamp_feedback(self._label)

    def _compute(self) -> None:
        """Close interval ``T``: Eq. 11 update of (R, p, z, S)."""
        self._label = self.close_epoch(self._byte_counter, self.sim.now)
        self._byte_counter = 0

    def restart(self, new_router_id: Optional[int] = None) -> None:
        """Simulate a router crash/reboot: all feedback state is lost.

        The byte counter, rate window, loss estimate and — crucially —
        the epoch counter ``z`` reset to their boot values, exactly the
        scenario the paper's ``(router_id, z)`` freshness scheme exists
        to survive: sources holding a large pre-crash epoch discard the
        reborn router's small-``z`` labels as stale until their own
        starvation handling re-synchronizes (see PelsSource).  Passing
        ``new_router_id`` models a route change to a different box
        instead; sources then adopt the new clock immediately.
        """
        super().restart(new_router_id)
        self._byte_counter = 0
        self._label = self.label

    def stop(self) -> None:
        self._timer.stop()


class FeedbackTracker:
    """Source-side freshness filter for feedback labels (Section 5.2).

    ``accept`` returns the loss value when the label is fresh (newer
    epoch from the current bottleneck, or a different router signalling
    a bottleneck shift), else ``None``.
    """

    def __init__(self) -> None:
        self.router_id: Optional[int] = None
        self.epoch = -1
        self.accepted = 0
        self.rejected = 0
        #: Rejections where the label's epoch was strictly *older* than
        #: the one already reacted to — genuinely stale feedback (ACK
        #: reordering, or a restarted router whose epoch counter was
        #: wiped), as opposed to same-epoch duplicates.
        self.stale_discarded = 0

    def accept(self, label: Optional[FeedbackLabel]) -> Optional[float]:
        if label is None:
            return None
        router_id, epoch, loss = label
        if router_id != self.router_id:
            # Bottleneck shifted: adopt the new router's clock.
            self.router_id = router_id
            self.epoch = epoch
            self.accepted += 1
            return loss
        if epoch > self.epoch:
            self.epoch = epoch
            self.accepted += 1
            return loss
        self.rejected += 1
        if epoch < self.epoch:
            self.stale_discarded += 1
        return None

    def reset(self) -> None:
        """Forget the tracked ``(router_id, epoch)`` clock.

        The feedback-starvation recovery path calls this: a router that
        rebooted re-counts epochs from zero, so its labels would stay
        "stale" for as long as the pre-crash epoch was large.  After a
        reset the next label — whatever its epoch — is accepted fresh.
        The discard/accept counters survive; they are the evidence the
        chaos experiments assert on.
        """
        self.router_id = None
        self.epoch = -1
