"""L1 — the live stack vs Lemma 6 on simulated time (extension).

Every other artifact runs the simulator's own packet endpoints.  L1
runs the live stack's (:mod:`repro.live`: server, software router,
client — the objects ``pels live`` binds to UDP sockets) on a
:class:`~repro.sim.engine.Simulator` over pure-delay hops
(:class:`~repro.live.session.SimulatedSession`) and checks that it
lands on the paper's operating point
(:meth:`~repro.live.session.LiveSessionResult.score`):

* the per-flow mean rate (averaged across flows, over the final 40% of
  the run) hits the Lemma 6 oracle ``r* = C/N + alpha/beta`` within
  15%;
* the measured one-way delays preserve the strict-priority ordering
  green ≤ yellow ≤ red — a property of the port, so it is checked on
  the per-color means pooled across flows over the measurement window
  (one flow's handful of red samples is noise, not evidence);
* the green and yellow queues take zero drops (the red band absorbs
  all congestion), as in Fig. 7.

The hops know their round trip, so MKC references the rate from the
true sample age ``D`` (90 ms: the round trip plus the Eq. 11 window
lag).  A run is a pure function of its config and seed; the same
checks over real sockets on the wall clock are a ``--live`` test.
"""

from __future__ import annotations

from ..live.session import RATE_TOLERANCE, LiveConfig, SimulatedSession
from ..sim.packet import Color
from .common import ExperimentResult, check

__all__ = ["run"]


def run(fast: bool = False) -> ExperimentResult:
    # Eq. 8 ramps by alpha per D = 90 ms from 128 kb/s: 8 s leaves the
    # measurement window clear of the ramp.
    duration = 8.0 if fast else 10.0
    config = LiveConfig(n_flows=2, duration=duration, seed=1)
    session = SimulatedSession(config).run_to_end()
    score = session.score()
    report = score.report

    result = ExperimentResult(
        "L1", "Live PELS stack on simulated time vs Lemma 6")
    rows = [[flow.flow_id, flow.mean_rate_bps / 1e3, flow.gamma,
             flow.packets_sent]
            + [flow.delays_ms.get(c, float("nan"))
               for c in ("green", "yellow", "red")]
            for flow in report.flows]
    result.add_table(
        ["flow", "rate kb/s", "gamma", "pkts", "d_green ms", "d_yellow ms",
         "d_red ms"], rows,
        title=f"{config.n_flows} live flows, "
              f"{config.pels_capacity_bps()/1e6:.1f} mb/s PELS share, "
              f"{duration:.0f}s simulated")

    check(result, "live_mean_rate_bps", score.mean_rate_bps,
          report.rate_theory_bps, RATE_TOLERANCE)
    result.metrics["lemma6_rate_bps"] = report.rate_theory_bps
    for flow in report.flows:
        result.metrics[f"rate_f{flow.flow_id}_bps"] = flow.mean_rate_bps

    # Strict-priority evidence: green ≤ yellow ≤ red one-way delay at
    # the port (the per-flow columns above are for the reader).
    check(result, "delay_ordering_ok", float(score.delay_ordering_ok),
          1.0, 0.0)

    # The red band absorbs all congestion; green and yellow never drop.
    check(result, "protected_drops", float(score.protected_drops), 0.0, 0.0)
    result.metrics.update(
        green_drops=float(report.drops["green"]),
        yellow_drops=float(report.drops["yellow"]),
        red_drops=float(report.drops["red"]),
        red_arrivals=float(session.router.arrivals[Color.RED]),
        virtual_loss=report.virtual_loss,
        acks=float(sum(f.acks_received
                       for f in session.server.flows.values())),
        router_epochs=float(session.router.feedback.epoch))
    if report.red_loss is not None:
        result.metrics["red_loss"] = report.red_loss
    result.note(f"simulated run: {report.duration_s:.2f}s, "
                f"{session.router.feedback.epoch} feedback epochs, "
                f"seed {config.seed}")
    return result
