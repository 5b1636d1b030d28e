"""The session read-out: one view, one report.

What the paper evaluates is small — per-flow rate against the Lemma 6
point ``r* = C/N + alpha/beta``, gamma, per-color loss and delay,
utility — and every driver already owns the objects it is read from.
A session hands them over as a :class:`SessionView`: its
:class:`~repro.core.flow.FlowSender` s and
:class:`~repro.core.flow.FlowReceiver` s, its ports (each the
:class:`~repro.core.pels_queue.PelsQueueCore` plus that port's
:class:`~repro.core.feedback.EpochLog`), the Lemma 6 parameters and a
clock.  :func:`build_report`, the epoch observation and monitor
(:mod:`repro.obs.monitor`) and the meta-controller read that and
nothing else, so the single-hop simulator, the multi-hop simulator and
the live stack are read back by the same code; a report carries the
theoretical values alongside so it is self-interpreting.

One warm-up rule: ``warmup_fraction`` of the elapsed time is excluded
from every average — rates, gamma and virtual loss by series window,
per-color delays by :meth:`~repro.sim.stats.DelayProbe.mean_in` (the
whole-run mean where ``delay_series_stride=0`` kept no series),
physical red loss by the loss windows closed after it — and a flow's
utility skips the same fraction of *its* finalised frames.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import asdict, dataclass, field
from typing import (TYPE_CHECKING, Callable, Dict, Iterable, List,
                    NamedTuple, Optional, Sequence)

from ..cc.mkc import mkc_equilibrium_loss, mkc_stationary_rate
from ..obs.metrics import current_registry
from ..sim.engine import Simulator
from ..sim.packet import Color
from .clock import Clock
from .feedback import EpochLog
from .flow import FlowReceiver, FlowSender, frame_receptions
from .pels_queue import PelsQueueCore

if TYPE_CHECKING:
    from ..control.meta import MetaControllerConfig

__all__ = ["PortView", "SessionView", "FlowReport", "SessionReport",
           "attach_readout", "build_report"]


class PortView(NamedTuple):
    """One PELS output port: the two clock-free objects both drivers
    drive."""

    name: str
    #: ``fifos[c].stats`` and ``len(fifos[c])`` are the per-color
    #: arrivals, drops and occupancy; ``losses`` the windowed loss.
    core: PelsQueueCore
    #: Current ``p`` (``loss``), ``loss_series``, ``C``
    #: (``capacity_bps``) and the ``epoch_hook``.
    epochs: EpochLog


@dataclass(frozen=True)
class SessionView:
    """What a session hands over to be read back (see module docstring).

    ``senders`` and ``receivers`` are the driver's own collections (a
    live session's grow as flows appear), joined by ``flow_id``.
    """

    senders: Iterable[FlowSender]
    receivers: Iterable[FlowReceiver]
    #: Hop order; a single bottleneck is a one-element list.
    ports: Sequence[PortView]
    n_flows: int
    alpha_bps: float
    beta: float
    p_thr: float
    clock: Clock
    #: The event engine, where there is one (engine-health gauges).
    engine: Optional[Simulator] = None
    #: The WRR knob, where the session can renegotiate it at runtime.
    pels_share: float = 0.5
    set_pels_share: Optional[Callable[[float], None]] = None

    def capacity_bps(self) -> float:
        """``C`` of the tightest port: the one Lemma 6 is about."""
        return min(port.epochs.capacity_bps for port in self.ports)

    def lemma6_rate_bps(self) -> float:
        """The Lemma 6 equilibrium ``r* = C/N + alpha/beta``."""
        return mkc_stationary_rate(self.capacity_bps(), self.n_flows,
                                   self.alpha_bps, self.beta)

    def drops(self) -> Dict[str, int]:
        """Cumulative drops per queue, summed over the ports."""
        return {name: sum(port.core.fifos[index].stats.drops
                          for port in self.ports)
                for index, name in enumerate(
                    ("green", "yellow", "red", "internet"))}


def attach_readout(view: SessionView,
                   meta_config: Optional[MetaControllerConfig]) -> tuple:
    """Hang a session's optional readers on its epoch hook; returns
    ``(monitor, meta)``.

    With an active metrics registry a monitor snapshots queue/flow/
    engine health at every epoch close (no extra heap events, so traced
    and plain runs stay event-identical).  The opt-in meta-controller
    chains on *after* it, so snapshots capture each epoch's state
    before the parameters move.  Either is None when off (the default),
    and its module is imported only when it is on.
    """
    registry = current_registry()
    monitor = meta = None
    if registry is not None:
        from ..obs.monitor import SimulationMonitor
        monitor = SimulationMonitor(view, registry)
    if meta_config is not None:
        from ..control.meta import MetaController
        meta = MetaController(meta_config).attach(view)
    return monitor, meta


@dataclass
class FlowReport:
    """Steady-state view of one PELS flow."""

    flow_id: int
    mean_rate_bps: float
    gamma: float
    packets_sent: int
    frames_sent: int
    mean_utility: float
    base_intact_ratio: float
    delays_ms: Dict[str, float]
    #: Robustness counters (fault/chaos scenarios): labels discarded as
    #: genuinely stale (older epoch than already reacted to), frame
    #: intervals spent feedback-blind, and distinct blind episodes
    #: (each freezes gamma and starts the blind rate decay).
    stale_discarded: int = 0
    blind_intervals: int = 0
    rate_freezes: int = 0


@dataclass
class SessionReport:
    """Whole-session summary with theory columns."""

    n_flows: int
    duration_s: float
    pels_capacity_bps: float
    virtual_loss: float
    virtual_loss_theory: float
    rate_theory_bps: float
    red_loss: Optional[float]
    p_thr: float
    drops: Dict[str, int]
    flows: List[FlowReport] = field(default_factory=list)

    def to_dict(self) -> dict:
        """JSON-serializable form."""
        return asdict(self)

    def fairness(self) -> float:
        """min/max of the per-flow mean rates."""
        rates = [f.mean_rate_bps for f in self.flows]
        if not rates or max(rates) == 0:
            return float("nan")
        return min(rates) / max(rates)

    def render(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"PELS session: {self.n_flows} flows over "
            f"{self.pels_capacity_bps/1e6:.2f} mb/s for "
            f"{self.duration_s:.0f}s",
            f"  loss p  : {self.virtual_loss:.4f} "
            f"(theory {self.virtual_loss_theory:.4f})",
            f"  r*      : {self.rate_theory_bps/1e3:.1f} kb/s per flow",
        ]
        if self.red_loss is not None:
            lines.append(f"  red loss: {self.red_loss:.3f} "
                         f"(target {self.p_thr})")
        lines.append(f"  drops   : " + " ".join(
            f"{k}={v}" for k, v in self.drops.items()))
        for flow in self.flows:
            lines.append(
                f"  flow {flow.flow_id}: {flow.mean_rate_bps/1e3:8.1f} kb/s"
                f"  gamma={flow.gamma:.3f}  utility={flow.mean_utility:.3f}"
                f"  delays(ms) g/y/r="
                f"{flow.delays_ms.get('green', float('nan')):.0f}/"
                f"{flow.delays_ms.get('yellow', float('nan')):.0f}/"
                f"{flow.delays_ms.get('red', float('nan')):.0f}")
            # Robustness line only for runs that actually degraded, so
            # fault-free reports render exactly as before.
            if flow.blind_intervals or flow.rate_freezes:
                lines.append(
                    f"          stale={flow.stale_discarded} "
                    f"blind={flow.blind_intervals} "
                    f"freezes={flow.rate_freezes}")
        lines.append(f"  fairness: {self.fairness():.3f}")
        return "\n".join(lines)


def build_report(view: SessionView,
                 warmup_fraction: float = 0.5) -> SessionReport:
    """Summarize a finished (or paused, or still running) session.

    ``view`` is any session's — ``PelsSimulation.view``,
    ``MultiHopPelsSimulation.view``, ``LiveSessionResult.view``.  With
    several ports, virtual and red loss follow the most congested one,
    theory the tightest, and drops are summed.  A flow known to one
    endpoint only (rejected by admission, torn down mid-run) gets a
    partial row instead of raising.
    """
    if not 0 <= warmup_fraction < 1:
        raise ValueError("warmup fraction must be in [0, 1)")
    now = view.clock.now
    warmup = now * warmup_fraction
    nan = math.nan

    virtual_losses = [port.epochs.loss_series.mean(warmup, math.inf)
                      for port in view.ports]
    congested = virtual_losses.index(max(virtual_losses))
    capacity = view.capacity_bps()
    drops = view.drops()
    del drops["internet"]

    senders = {sender.flow_id: sender for sender in view.senders}
    receivers = {receiver.flow_id: receiver for receiver in view.receivers}
    flows: List[FlowReport] = []
    for flow_id in sorted(senders.keys() | receivers.keys()):
        sender = senders.get(flow_id)
        receiver = receivers.get(flow_id) or FlowReceiver(flow_id)
        delays = {}
        for color, probe in receiver.delay_probes.items():
            delay = probe.mean_in(warmup, now) if probe.series_stride \
                else probe.mean
            if not math.isnan(delay):  # something was measured
                delays[color.name.lower()] = delay * 1000
        if sender is None:
            flows.append(FlowReport(flow_id, nan, nan, 0, 0, nan, nan,
                                    delays))
            continue
        receptions = frame_receptions(sender, receiver)
        receptions = [r for r in
                      receptions[int(len(receptions) * warmup_fraction):]
                      if r.enhancement_sent]
        flows.append(FlowReport(
            flow_id=flow_id,
            mean_rate_bps=sender.rate_series.mean(warmup, now),
            gamma=sender.gamma_series.mean(warmup, now),
            packets_sent=sender.packets_sent,
            frames_sent=sender.frames_sent,
            mean_utility=statistics.mean(r.utility() for r in receptions)
            if receptions else nan,
            base_intact_ratio=statistics.mean(
                1.0 if r.base_intact else 0.0 for r in receptions)
            if receptions else nan,
            delays_ms=delays,
            stale_discarded=sender.tracker.stale_discarded,
            blind_intervals=sender.blind_intervals,
            rate_freezes=sender.rate_freezes,
        ))

    return SessionReport(
        n_flows=view.n_flows,
        duration_s=now,
        pels_capacity_bps=capacity,
        virtual_loss=virtual_losses[congested],
        virtual_loss_theory=mkc_equilibrium_loss(
            capacity, view.n_flows, view.alpha_bps, view.beta),
        rate_theory_bps=view.lemma6_rate_bps(),
        red_loss=view.ports[congested].core.losses.loss_in(
            Color.RED, warmup, now),
        p_thr=view.p_thr,
        drops=drops,
        flows=flows,
    )
