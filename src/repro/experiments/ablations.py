"""Ablation studies for the design choices DESIGN.md calls out.

A1 — sigma sweep: convergence speed vs stability of the gamma
     controller across its gain range (Lemma 2 boundary behaviour).
A2 — p_thr sweep: the utility/robustness trade-off of Section 4.3
     (optimistic p_thr -> 1 vs pessimistic p_thr -> p).
A3 — WRR weight sweep: PELS throughput share tracks its configured
     weight (administrative fairness knob of Section 4.1).
A4 — adaptive meta-control: PID-tuned vs paper-fixed parameters under
     router restart, flow churn and LRD cross traffic (extension; see
     experiments/meta_control.py).
A5 — controller comparison: MKC vs AIMD vs TFRC driving the same PELS
     machinery (smoothness argument of Section 5).
A6 — two-priority variant: removing the red probing band (QBSS-like)
     collapses utility — why PELS needs three colors.
A7 — robustness: ACK loss tolerance (epoch freshness) and live WRR
     share renegotiation (the Section 4.1 administrative knob).
A8 — red buffer sweep: red-survivor delay vs red-loss measurement
     granularity.
"""

from __future__ import annotations

import statistics

from ..core.gamma import iterate_gamma, pels_utility_lower_bound
from ..core.pels_queue import PelsQueueConfig
from ..core.session import PelsScenario, PelsSimulation
from ..sim.packet import Color
from .common import ExperimentResult
from .meta_control import run as run_meta_control

__all__ = ["run_sigma_sweep", "run_pthr_sweep", "run_wrr_sweep",
           "run_meta_control", "run_red_buffer_sweep",
           "run_controller_comparison", "run_two_priority",
           "run_robustness", "run", "ABLATIONS"]


def run_sigma_sweep(fast: bool = False) -> ExperimentResult:
    """A1: settle time and overshoot of Eq. (4) across sigma."""
    result = ExperimentResult("A1", "gamma gain (sigma) sweep")
    loss, p_thr, steps = 0.3, 0.75, 200
    target = loss / p_thr
    rows = []
    for sigma in (0.1, 0.25, 0.5, 1.0, 1.5, 1.9, 1.99):
        gammas = iterate_gamma(sigma, p_thr, [loss] * steps, gamma0=0.05)
        settle = next((k for k, g in enumerate(gammas)
                       if all(abs(x - target) <= 0.02 * target
                              for x in gammas[k:])), steps)
        overshoot = max(0.0, max(gammas) - target)
        rows.append((sigma, settle, round(overshoot, 4)))
        result.metrics[f"settle_sigma_{sigma}"] = settle
    result.add_table(["sigma", "settle steps (2%)", "overshoot"], rows,
                     title=f"target gamma* = {target:.3f}")
    result.note("Small sigma converges slowly but monotonically; sigma "
                "above 1 rings; near the Lemma 2 boundary (2.0) settling "
                "time diverges.")
    return result


def run_pthr_sweep(fast: bool = False) -> ExperimentResult:
    """A2: utility bound and measured red loss across p_thr."""
    result = ExperimentResult("A2", "red-loss target (p_thr) sweep")
    duration = 40.0 if fast else 80.0
    warmup = duration / 2
    rows = []
    for p_thr in (0.6, 0.75, 0.9):
        scenario = PelsScenario(n_flows=4, duration=duration, seed=17,
                                p_thr=p_thr)
        sim = PelsSimulation(scenario).run()
        p = sim.mean_virtual_loss(warmup)
        red_tail = [v for t, v in sim.red_loss_series() if t > warmup]
        red = statistics.mean(red_tail) if red_tail else float("nan")
        ydrops = sim.bottleneck_queue.yellow_queue.stats.drops
        bound = pels_utility_lower_bound(p, p_thr)
        rows.append((p_thr, round(p, 3), round(red, 3), ydrops,
                     round(bound, 4)))
        result.metrics[f"red_loss_pthr_{p_thr}"] = red
        result.metrics[f"yellow_drops_pthr_{p_thr}"] = ydrops
    result.add_table(["p_thr", "loss p", "red loss", "yellow drops",
                      "Eq.6 utility bound"], rows)
    result.note("Higher p_thr squeezes the probing band (higher utility "
                "bound) at the cost of a thinner yellow-protection "
                "cushion — the Section 4.3 trade-off.")
    return result


def run_wrr_sweep(fast: bool = False) -> ExperimentResult:
    """A3: the PELS aggregate receives its configured WRR share."""
    result = ExperimentResult("A3", "WRR weight sweep")
    duration = 30.0 if fast else 60.0
    rows = []
    for pels_weight in (0.25, 0.5, 0.75):
        queue = PelsQueueConfig(pels_weight=pels_weight,
                                internet_weight=1 - pels_weight)
        scenario = PelsScenario(n_flows=4, duration=duration, seed=23,
                                queue=queue)
        sim = PelsSimulation(scenario).run()
        # Delivered PELS goodput at the bottleneck.
        pels_bytes = sum(snk.bytes_received for snk in sim.sinks)
        share = (pels_bytes * 8 / duration) / scenario.topology.bottleneck_bps
        rows.append((pels_weight, round(share, 3)))
        result.metrics[f"share_w{pels_weight}"] = share
    result.add_table(["PELS WRR weight", "measured PELS share"], rows)
    result.note("Throughput share tracks the WRR weight, confirming the "
                "aggregate isolation Section 4.1 relies on.")
    return result


def run_red_buffer_sweep(fast: bool = False) -> ExperimentResult:
    """A8: red buffer size vs red delay (loss is buffer-independent)."""
    result = ExperimentResult("A8", "red buffer sweep")
    duration = 40.0 if fast else 80.0
    warmup = duration / 2
    rows = []
    for red_buffer in (3, 6, 16, 48):
        scenario = PelsScenario(n_flows=4, duration=duration, seed=29,
                                queue=PelsQueueConfig(red_buffer=red_buffer))
        sim = PelsSimulation(scenario).run()
        red_delay = sim.sinks[0].delay_probes[Color.RED].mean
        red_tail = [v for t, v in sim.red_loss_series() if t > warmup]
        red_loss = statistics.mean(red_tail) if red_tail else float("nan")
        rows.append((red_buffer, round(red_delay * 1000, 1),
                     round(red_loss, 3)))
        result.metrics[f"red_delay_b{red_buffer}"] = red_delay * 1000
        result.metrics[f"red_loss_b{red_buffer}"] = red_loss
    result.add_table(["red buffer (pkts)", "red delay (ms)", "red loss"],
                     rows)
    result.note("Red-survivor delay scales with the buffer while red "
                "loss stays pinned near p_thr: drops are governed by the "
                "gamma loop, not the buffer.")
    return result


def run_controller_comparison(fast: bool = False) -> ExperimentResult:
    """A5: rate smoothness of MKC vs AIMD vs TFRC under PELS."""
    result = ExperimentResult("A5", "congestion controller comparison")
    duration = 40.0 if fast else 80.0
    warmup = duration / 2
    rows = []
    for name in ("mkc", "aimd", "tfrc"):
        scenario = PelsScenario(n_flows=4, duration=duration, seed=31,
                                controller_name=name)
        sim = PelsSimulation(scenario).run()
        rates = [v for t, v in sim.sources[0].rate_series if t > warmup]
        mean_rate = statistics.mean(rates)
        cov = (statistics.pstdev(rates) / mean_rate) if mean_rate else 0.0
        util = sum(snk.bytes_received for snk in sim.sinks) * 8 / duration \
            / scenario.pels_capacity_bps()
        rows.append((name, round(mean_rate / 1e3, 1), round(cov, 4),
                     round(util, 3)))
        result.metrics[f"rate_cov_{name}"] = cov
        result.metrics[f"utilization_{name}"] = util
    result.add_table(["controller", "mean rate (kb/s)",
                      "rate CoV (smoothness)", "PELS utilization"], rows)
    result.note("MKC holds a stationary rate (lowest CoV); AIMD saws "
                "(highest), matching the paper's motivation for Kelly "
                "controls in Section 5.")
    return result


def run_two_priority(fast: bool = False) -> ExperimentResult:
    """A6: tri-color PELS vs a QBSS-like two-priority variant.

    The related-work section notes Internet-2's QBSS supports only two
    priorities.  Removing the red probing band (all enhancement marked
    yellow) recreates a best-effort FIFO inside the enhancement queue:
    congestion loss lands on protected packets and the consecutive-
    prefix utility collapses — quantifying why PELS needs three colors.
    """
    from ..core.colors import NoRedMarkingPolicy

    result = ExperimentResult("A6", "two-priority (no probing band) "
                                    "ablation")
    duration = 40.0 if fast else 80.0
    rows = []
    for label, factory in (("tri-color PELS", None),
                           ("two-priority (no red)", NoRedMarkingPolicy)):
        scenario = PelsScenario(n_flows=4, duration=duration, seed=37,
                                marking_policy_factory=factory)
        sim = PelsSimulation(scenario).run()
        receptions = sim.frame_receptions(0)[10:]
        utilities = [r.utility() for r in receptions if r.enhancement_sent]
        useful = statistics.mean(r.useful_enhancement for r in receptions)
        ydrops = sim.bottleneck_queue.yellow_queue.stats.drops
        utility = statistics.mean(utilities)
        rows.append((label, round(utility, 3), round(useful, 1), ydrops))
        key = "tri" if factory is None else "two"
        result.metrics[f"utility_{key}"] = utility
        result.metrics[f"useful_{key}"] = useful
        result.metrics[f"yellow_drops_{key}"] = ydrops
    result.add_table(["marking", "mean utility", "useful FGS pkts/frame",
                      "yellow drops"], rows)
    result.note("Without the red band, loss spills into protected "
                "enhancement packets and utility collapses toward the "
                "best-effort value — the three-color design is load-"
                "bearing, not cosmetic.")
    return result


def run_robustness(fast: bool = False) -> ExperimentResult:
    """A7: robustness — ACK loss and runtime WRR renegotiation.

    Two properties the paper's design implies but does not test:
    (a) epoch freshness makes the control loop insensitive to reverse-
    path ACK loss (any surviving ACK of an epoch carries the identical
    label); (b) the WRR weights are an administrative knob (Section
    4.1), so the system must re-converge when the PELS share changes
    under live traffic.
    """
    result = ExperimentResult("A7", "robustness: ACK loss and live WRR "
                                    "renegotiation")
    duration = 30.0 if fast else 60.0

    rows = []
    for ack_loss in (0.0, 0.3, 0.6):
        scenario = PelsScenario(n_flows=2, duration=duration, seed=41,
                                ack_loss_rate=ack_loss)
        sim = PelsSimulation(scenario).run()
        rate = sim.sources[0].rate_series.mean(duration * 0.6, duration)
        rows.append((f"{ack_loss:.0%}", round(rate / 1e3, 1),
                     sim.sinks[0].acks_dropped))
        result.metrics[f"rate_ackloss_{ack_loss}"] = rate
    result.add_table(["ACK loss", "flow rate (kb/s)", "ACKs dropped"],
                     rows, title="ACK-loss tolerance (r* = 1040 kb/s)")

    renegotiated = PelsSimulation(PelsScenario(n_flows=2,
                                               duration=2 * duration,
                                               seed=41))
    renegotiated.run(until=duration)
    rate_before = renegotiated.sources[0].rate_series.mean(
        duration * 0.6, duration)
    renegotiated.reconfigure_pels_share(0.25)
    renegotiated.run(until=2 * duration)
    rate_after = renegotiated.sources[0].rate_series.mean(
        2 * duration - duration * 0.4, 2 * duration)
    result.add_table(
        ["phase", "PELS share", "flow rate (kb/s)", "expected (kb/s)"],
        [("before", "50%", round(rate_before / 1e3, 1), 1040.0),
         ("after", "25%", round(rate_after / 1e3, 1), 540.0)],
        title="Live WRR renegotiation at mid-run")
    result.metrics["rate_before_renegotiation"] = rate_before
    result.metrics["rate_after_renegotiation"] = rate_after
    result.note("Rates stay at the Lemma 6 point under 60% ACK loss and "
                "re-converge within seconds of an administrative share "
                "change — no control-loop fragility.")
    return result


#: Ablation id -> runner, in report order.  The experiment runner keys
#: off this registry so ``--only A3`` executes just that sweep instead
#: of the whole set.
ABLATIONS = {
    "A1": run_sigma_sweep,
    "A2": run_pthr_sweep,
    "A3": run_wrr_sweep,
    "A4": run_meta_control,
    "A5": run_controller_comparison,
    "A6": run_two_priority,
    "A7": run_robustness,
    "A8": run_red_buffer_sweep,
}


def run(fast: bool = False) -> list:
    """Run all ablations; returns the list of results."""
    return [fn(fast=fast) for fn in ABLATIONS.values()]


if __name__ == "__main__":  # pragma: no cover
    for r in run():
        print(r.render())
        print()
