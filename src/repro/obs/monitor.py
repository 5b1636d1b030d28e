"""Per-epoch session monitor feeding a :class:`MetricsRegistry`.

``SimulationMonitor`` attaches to a session's
:class:`~repro.core.report.SessionView` — single-hop or multi-hop
simulation, or a live loopback session — and snapshots the registry at
every ``T``-epoch boundary, piggybacked on the Eq. 11 epoch close
through ``EpochLog.epoch_hook``, so monitoring adds *zero* events to
the simulator's heap and cannot perturb event order.

Recorded per epoch:

* per-queue occupancy by color (green/yellow/red/internet packet counts)
* per-flow rate and Eq. 8 convergence error against the Lemma 6 oracle
  ``r* = C/N + alpha/beta``
* per-flow stale-discard counts (cumulative, from the freshness tracker)
* where the view carries an event engine: event-heap depth (plus a
  histogram of its distribution) and wall-clock seconds consumed per
  simulated second

Sessions attach a monitor automatically when a registry is active (see
``current_registry``); with metrics off the constructor is never called.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Tuple

from .metrics import MetricsRegistry

__all__ = ["SimulationMonitor", "EpochObservation", "observe_epoch"]


@dataclass(frozen=True)
class EpochObservation:
    """One epoch's view of the control plane, as the obs layer sees it.

    This is the interface between observation and adaptation: the
    :class:`SimulationMonitor` records these quantities as gauges, and
    the meta-controller (:mod:`repro.control.meta`) consumes the same
    structure to drive its PID loops — simulator and live stack alike.
    """

    t: float
    #: The paper-fixed Lemma 6 oracle ``r* = C/N + alpha0/beta0``.
    r_star: float
    rates_bps: Tuple[float, ...]
    mean_rate_bps: float
    #: Signed convergence error ``(mean_rate - r*) / r*`` — negative
    #: while flows are below the oracle (e.g. after a router restart).
    conv_error: float
    max_abs_conv_error: float
    #: Latest Eq. 11 virtual loss (max across hops).
    virtual_loss: float
    mean_gamma: float
    #: Mean distance of each flow's gamma from its Lemma 4 fixed point
    #: under the current loss — ~0 once the gamma loop has converged.
    gamma_innovation: float
    #: Cumulative drops per color, summed over hops.
    drops: Dict[str, int] = field(default_factory=dict)
    #: Whole-run mean end-to-end delay per color (seconds) at the first
    #: receiver, where measured.
    delays_s: Dict[str, float] = field(default_factory=dict)


def observe_epoch(view, r_star: float) -> EpochObservation:
    """One epoch's :class:`EpochObservation` of a session view."""
    rates = tuple(sender.rate_bps for sender in view.senders)
    mean_rate = sum(rates) / len(rates) if rates else 0.0
    conv = (mean_rate - r_star) / r_star if r_star else 0.0
    max_abs = max((abs(r - r_star) / r_star for r in rates),
                  default=0.0) if r_star else 0.0

    loss = max((port.epochs.loss for port in view.ports), default=0.0)
    gammas = [sender.gamma_controller for sender in view.senders]
    mean_gamma = sum(g.gamma for g in gammas) / len(gammas) if gammas else 0.0
    clamped_loss = max(0.0, loss)
    innovation = sum(abs(g.expected_fixed_point(clamped_loss) - g.gamma)
                     for g in gammas) / len(gammas) if gammas else 0.0

    # Whole-run delay means of the first receiver only: the WRR loop's
    # green-delay sample (and A4's output) is defined on it.
    first = next(iter(view.receivers), None)
    delays = {color.name.lower(): probe.mean
              for color, probe in first.delay_probes.items()
              if probe.count} if first is not None else {}

    return EpochObservation(
        t=view.clock.now, r_star=r_star, rates_bps=rates,
        mean_rate_bps=mean_rate, conv_error=conv,
        max_abs_conv_error=max_abs, virtual_loss=loss,
        mean_gamma=mean_gamma, gamma_innovation=innovation,
        drops=view.drops(), delays_s=delays)


class SimulationMonitor:
    """Snapshot queue/flow/engine health at every feedback epoch."""

    def __init__(self, view, registry: MetricsRegistry) -> None:
        self.view = view
        self.registry = registry
        self.epochs_observed = 0
        self.r_star = view.lemma6_rate_bps()

        self._wall_last = time.perf_counter()
        self._sim_last = view.clock.now

        # The first port's epoch log defines the epoch cadence; its hook
        # drives the snapshot (one attribute check per T, no new events).
        view.ports[0].epochs.epoch_hook = self._on_epoch

    def _on_epoch(self, epochs) -> None:
        registry = self.registry
        gauge = registry.gauge
        view = self.view

        for port in view.ports:
            for name, fifo in zip(("green", "yellow", "red", "internet"),
                                  port.core.fifos):
                gauge(f"queue.{port.name}.{name}").set(len(fifo))

        r_star = self.r_star
        for sender in view.senders:
            prefix = f"flow.{sender.flow_id}"
            rate = sender.rate_bps
            gauge(f"{prefix}.rate_bps").set(rate)
            gauge(f"{prefix}.conv_err").set(abs(rate - r_star) / r_star)
            gauge(f"{prefix}.stale_discarded").set(
                sender.tracker.stale_discarded)

        # Aggregate control-plane view: the same structure the
        # meta-controller consumes, recorded so tuned runs can be
        # audited epoch-by-epoch from the snapshot ring.
        obs = observe_epoch(view, r_star)
        gauge("control.conv_err").set(obs.conv_error)
        gauge("control.virtual_loss").set(obs.virtual_loss)
        gauge("control.mean_gamma").set(obs.mean_gamma)
        gauge("control.gamma_innovation").set(obs.gamma_innovation)
        for color, count in obs.drops.items():
            gauge(f"drops.{color}").set(count)
        for color, delay in obs.delays_s.items():
            gauge(f"delay.{color}_ms").set(delay * 1000)

        engine = view.engine
        if engine is not None:
            depth = engine.pending()
            gauge("engine.heap_depth").set(depth)
            registry.histogram("engine.heap_depth").observe(depth)

            wall = time.perf_counter()
            d_sim = obs.t - self._sim_last
            if d_sim > 0:
                ratio = (wall - self._wall_last) / d_sim
                gauge("engine.wall_per_sim_s").set(ratio)
                registry.histogram("engine.wall_per_sim_s",
                                   bounds=(0.001, 0.01, 0.1, 1.0, 10.0,
                                           100.0)).observe(ratio)
            self._wall_last = wall
            self._sim_last = obs.t

        self.epochs_observed += 1
        registry.snapshot(obs.t)
