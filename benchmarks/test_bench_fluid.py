"""Fluid engine vs packet engine: the scaling claim, measured.

Three acceptance bars ride here, each a ratio or a budget, so each holds
on any host.  Every test times both sides of its ratio itself, so any
one of them runs alone and in any order:

* on a matched 100-flow scenario the fluid engine must be at least
  100x faster than the packet simulator (the scenarios are twins by
  construction, so both integrators time the same control problem);
* the batched segment engine must be at least 50x faster than the
  preserved per-class reference engine on its own numpy backend at
  N=10,000 (same host, same scenario);
* the batched engine must carry a 10^6-flow multi-bottleneck grid to
  equilibrium in single-digit seconds.
"""

from __future__ import annotations

import time

import pytest

from repro.core.session import PelsScenario, PelsSimulation
from repro.fluid import (FluidEngine, FluidScenario, ReferenceFluidEngine,
                         fat_tree_scenario, fluid_twin_of_session)
from repro.sim.topology import BarbellConfig

#: Matched N=100 scenario: a 40 mb/s bottleneck whose CBR cross traffic
#: keeps the PELS share busy, so the packet engine carries a realistic
#: event load (~10^6 events) while Lemma 6 keeps r* in-band.
N_FLOWS = 100
DURATION = 20.0


def _timed(run):
    """``(result, wall seconds)`` of one call, construction included."""
    started = time.perf_counter()
    result = run()
    return result, time.perf_counter() - started


def test_bench_fluid_n100_speedup():
    """Packet run and its fluid twin; asserts the >=100x advantage."""
    scenario = PelsScenario(
        n_flows=N_FLOWS, duration=DURATION, seed=5,
        topology=BarbellConfig(bottleneck_bps=40_000_000.0),
        cross_traffic="cbr", cbr_rate_bps=25_000_000.0)
    twin = fluid_twin_of_session(scenario)
    sim, packet = _timed(lambda: PelsSimulation(scenario).run())
    assert sim.sim.now >= DURATION
    result = FluidEngine(twin, backend="list").run()
    assert result.lemma6_error() < 0.02
    speedup = packet / result.wall_time
    assert speedup >= 100.0, (
        f"fluid engine only {speedup:.0f}x faster than packet engine "
        f"(packet {packet:.2f}s vs fluid {result.wall_time:.4f}s)")


def test_bench_fluid_n10000_batched_numpy_speedup():
    """N=10,000 over a 120 s three-hop chain, reference vs batched on
    numpy; asserts the >=50x advantage.

    The reference integrates every epoch per flow class; the batched
    engine collapses the homogeneous population to one segment and
    fast-forwards the equilibrium plateau.  Engine construction counts
    for both sides.
    """
    pytest.importorskip("numpy")
    scenario = FluidScenario(n_flows=10_000, duration=120.0,
                             capacities_bps=(2.5e9, 2e9, 2.5e9),
                             record_flows=False)
    reference, reference_s = _timed(
        lambda: ReferenceFluidEngine(scenario, backend="numpy").run())
    batched, batched_s = _timed(
        lambda: FluidEngine(scenario, backend="numpy").run())
    assert reference.lemma6_error() < 0.02
    assert batched.lemma6_error() < 0.02
    speedup = reference_s / batched_s
    assert speedup >= 50.0, (
        f"batched engine only {speedup:.0f}x faster than the reference "
        f"numpy backend (reference {reference_s:.2f}s vs batched "
        f"{batched_s:.4f}s)")


def test_bench_fluid_n1000000_numpy():
    """The S2 headline: 10^6 flows x 156 routers in single-digit
    seconds (equilibrium + transient stats)."""
    pytest.importorskip("numpy")
    scenario = fat_tree_scenario(edge_routers=120, agg_routers=30,
                                 core_routers=6, flows_per_edge=8_334,
                                 duration=12.0)
    assert scenario.n_flows >= 1_000_000

    result = FluidEngine(scenario, backend="numpy").run()
    assert result.wall_time <= 10.0, (
        f"10^6-flow grid took {result.wall_time:.2f}s (budget 10s)")
    assert result.tail_mean_rate() > 0
    assert result.convergence_time() is not None
