"""L1 — live loopback equilibrium vs Lemma 6 (wall-clock extension).

Every other artifact runs inside the discrete-event simulator, where
timers are perfectly punctual and feedback arrives exactly when
scheduled.  L1 executes the same control laws — Eq. 8 MKC, the Eq. 4
gamma controller, Eq. 11 virtual-loss feedback behind a tri-color
strict-priority queue — on one real-time driver's timers
(:class:`~repro.core.clock.SelectorClock`) over real loopback UDP
sockets (:mod:`repro.live`) and checks that the *wall-clock* stack
still lands on the paper's operating point:

* the per-flow mean rate (averaged across flows, over the final 40% of
  the run) hits the Lemma 6 oracle ``r* = C/N + alpha/beta`` within
  15%;
* the measured one-way delays preserve the strict-priority ordering
  green ≤ yellow ≤ red — a property of the port, so it is checked on
  the per-color means pooled across flows over the measurement window
  (one flow's handful of red samples is noise, not evidence);
* the green and yellow queues take zero drops (the red band absorbs
  all congestion), as in Fig. 7.

Unlike the simulator artifacts, L1 is **not** byte-deterministic: real
schedulers jitter individual packets.  The determinism suite therefore
pins other experiments; L1 asserts only steady-state bands, which is
precisely its point — if those bands only held under simulated time
the equations would be a modelling artifact.
"""

from __future__ import annotations

from ..core.report import build_report
from ..live.session import LiveConfig, LiveSessionResult, run_live_session
from ..sim.packet import Color
from .common import ExperimentResult, check

__all__ = ["run", "LIVE_WARMUP_FRACTION", "RATE_TOLERANCE"]

#: Fraction of the run excluded from steady-state averages.  Higher
#: than the simulator reports' 0.5: the live ramp from 128 kb/s eats
#: ~2 s of wall clock, and short (CI-sized) runs need the measurement
#: window clear of it.
LIVE_WARMUP_FRACTION = 0.6

#: Acceptance band around the Lemma 6 oracle for the live mean rate.
RATE_TOLERANCE = 0.15

#: Slack factor for the per-color delay ordering: means may sit within
#: measurement noise of each other on an unloaded queue.
DELAY_SLACK = 1.10


def pooled_delay_ordering_ok(session: LiveSessionResult) -> bool:
    """green ≤ yellow ≤ red on the count-weighted per-color mean delays
    of all flows together, after the warm-up (with ``DELAY_SLACK``)."""
    warmup = session.elapsed * LIVE_WARMUP_FRACTION
    means = []
    for color in (Color.GREEN, Color.YELLOW, Color.RED):
        samples = [delay for receiver in session.client.flows.values()
                   for _, delay in receiver.delay_probes[color].series
                   .window(warmup, session.elapsed)]
        if not samples:
            return False
        means.append(sum(samples) / len(samples))
    green, yellow, red = means
    return green <= yellow * DELAY_SLACK and yellow <= red * DELAY_SLACK


def run(fast: bool = False) -> ExperimentResult:
    duration = 5.0 if fast else 10.0
    config = LiveConfig(n_flows=2, duration=duration)
    session = run_live_session(config)
    report = build_report(session.view,
                          warmup_fraction=LIVE_WARMUP_FRACTION)

    result = ExperimentResult(
        "L1", "Live loopback PELS (wall clock, real UDP) vs Lemma 6")
    oracle = config.lemma6_rate_bps()
    rates = [flow.mean_rate_bps for flow in report.flows]
    mean_rate = sum(rates) / len(rates)

    rows = []
    for flow in report.flows:
        rows.append([flow.flow_id, flow.mean_rate_bps / 1e3,
                     flow.gamma, flow.packets_sent,
                     flow.delays_ms.get("green", float("nan")),
                     flow.delays_ms.get("yellow", float("nan")),
                     flow.delays_ms.get("red", float("nan"))])
    result.add_table(
        ["flow", "rate kb/s", "gamma", "pkts", "d_green ms", "d_yellow ms",
         "d_red ms"], rows,
        title=f"{config.n_flows} live flows, "
              f"{config.pels_capacity_bps()/1e6:.1f} mb/s PELS share, "
              f"{duration:.0f}s wall clock")

    check(result, "live_mean_rate_bps", mean_rate, oracle, RATE_TOLERANCE)
    result.metrics["lemma6_rate_bps"] = oracle
    for flow in report.flows:
        result.metrics[f"rate_f{flow.flow_id}_bps"] = flow.mean_rate_bps

    # Strict-priority evidence: green ≤ yellow ≤ red one-way delay at
    # the port (the per-flow columns above are for the reader).
    check(result, "delay_ordering_ok",
          float(pooled_delay_ordering_ok(session)), 1.0, 0.0)

    result.metrics["green_drops"] = float(report.drops["green"])
    result.metrics["yellow_drops"] = float(report.drops["yellow"])
    result.metrics["virtual_loss"] = report.virtual_loss
    result.metrics["acks"] = float(sum(
        f.acks_received for f in session.server.flows.values()))
    result.metrics["router_epochs"] = float(
        session.router.feedback.epoch)
    red_loss = report.red_loss
    if red_loss is not None:
        result.metrics["red_loss"] = red_loss
    if report.drops["green"] or report.drops["yellow"]:
        result.note(f"DIVERGES: protected queues dropped packets "
                    f"(green={report.drops['green']} "
                    f"yellow={report.drops['yellow']})")
    else:
        result.note("green/yellow queues loss-free; red band absorbed "
                    f"{report.drops['red']} drop(s) "
                    f"(arrivals: {session.router.arrivals[Color.RED]})")
    result.note(f"wall-clock run: {report.duration_s:.2f}s elapsed, "
                f"{session.router.feedback.epoch} feedback epochs, "
                "timings vary between runs (not byte-deterministic)")
    return result
