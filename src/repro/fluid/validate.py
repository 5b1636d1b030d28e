"""Bridges between packet scenarios and their fluid twins.

Cross-validation needs the two engines to integrate the *same* control
problem: identical controller gains, feedback cadence and windowing,
capacities seen through the PELS WRR share, rate clamps (including the
FGS coding ceiling ``R_max``) and per-flow delays.  Packet and fluid
scenarios inherit one :class:`repro.core.params.ControlParams`; these
builders hand the packet scenario's record (clamped at ``R_max``, as
the packet assembly clamps it) to the twin whole and add only what
genuinely differs: capacities through the WRR share and the RTT, start
and interferer geometry.

The fluid model abstracts away what the packet simulator resolves
packet by packet: cross traffic exists only as the WRR share it leaves
to PELS, queues never physically drop (Eq. 11's loss is virtual), and
sub-epoch timing (frame clocks, packetization) vanishes.  Equilibria
match (Lemma 6 has no packet-level term); transients agree to within
the epoch quantization.

The twins run unchanged on the batched segment engine: per-flow
``extra_delay`` / ``start_times`` become segments via
``FluidScenario.segment_specs()``, so validation exercises the same
collapse path the capacity-planning topologies use.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .scenario import FluidScenario

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.multihop import MultiHopScenario
    from ..core.session import PelsScenario

__all__ = ["fluid_twin_of_session", "fluid_twin_of_multihop"]


def fluid_twin_of_session(scenario: "PelsScenario") -> FluidScenario:
    """Fluid twin of a bar-bell :class:`PelsScenario` (single hop)."""
    if scenario.controller_name != "mkc":
        raise ValueError(
            f"no fluid twin for controller {scenario.controller_name!r}: "
            "the fluid engine integrates MKC (Eq. 8) only")
    top = scenario.topology
    start_times = None if scenario.start_times is None \
        else list(scenario.start_times)
    return FluidScenario(
        **vars(scenario.control(scenario.fgs.max_rate_bps)),
        n_flows=scenario.n_flows,
        duration=scenario.duration,
        capacities_bps=(scenario.pels_capacity_bps(),),
        rtt_s=2 * (2 * top.access_delay + top.bottleneck_delay),
        source_router_delay_s=top.access_delay,
        extra_delay=dict(top.extra_access_delay),
        start_times=start_times,
        sample_interval=scenario.sample_interval,
    )


def fluid_twin_of_multihop(scenario: "MultiHopScenario") -> FluidScenario:
    """Fluid twin of a chain :class:`MultiHopScenario` (per-hop AQM)."""
    from ..sim.chain import ChainConfig
    chain = ChainConfig(hop_bps=tuple(scenario.hop_bps))
    return FluidScenario(
        **vars(scenario.control(scenario.fgs.max_rate_bps)),
        n_flows=scenario.n_flows,
        duration=scenario.duration,
        capacities_bps=tuple(scenario.pels_capacity_of(i)
                             for i in range(chain.n_hops)),
        rtt_s=chain.rtt(),
        source_router_delay_s=chain.access_delay,
        interferers=tuple(scenario.pels_interferers),
    )
