"""Cross-validation: the fluid engine against the packet simulator.

The two engines integrate the same control problem (identical gains,
cadence, windowing, capacities and delays — enforced by the twin
builders), so on shared scenarios both must land on Lemma 6's
stationary point and agree with each other.  Three scenarios from the
ISSUE's acceptance criteria: a single bottleneck, heterogeneous
feedback delays, and a multi-hop chain with a bottleneck shift.
"""

from __future__ import annotations

import dataclasses
import inspect

import pytest

from repro.cc.mkc import MkcController
from repro.core.gamma import GammaController
from repro.core.multihop import MultiHopPelsSimulation, MultiHopScenario
from repro.core.params import ControlParams
from repro.core.session import PelsScenario, PelsSimulation
from repro.experiments.multihop import shifted_equilibrium_rate
from repro.fluid import (FluidEngine, FluidScenario, fluid_twin_of_multihop,
                         fluid_twin_of_session)


def packet_tail_rate(sim, warmup: float, until: float) -> float:
    rates = [src.rate_series.mean(warmup, until) for src in sim.sources]
    return sum(rates) / len(rates)


class TestSingleHop:
    """Default bar-bell, 4 flows (reuses the session-scoped run)."""

    @pytest.fixture(scope="class")
    def fluid(self, converged_four_flow):
        twin = fluid_twin_of_session(converged_four_flow.scenario)
        return FluidEngine(twin, backend="list").run()

    def test_fluid_hits_lemma6(self, fluid):
        assert fluid.lemma6_error() < 0.02

    def test_packet_and_fluid_agree(self, converged_four_flow, fluid):
        duration = converged_four_flow.scenario.duration
        packet = packet_tail_rate(converged_four_flow, 0.8 * duration,
                                  duration)
        assert packet == pytest.approx(fluid.tail_mean_rate(), rel=0.05)

    def test_gammas_p_thr_consistent(self, converged_four_flow, fluid):
        expected = fluid.scenario.expected_gamma()
        assert fluid.tail_gamma() == pytest.approx(expected, rel=0.02)
        packet_gammas = [src.gamma_controller.gamma
                         for src in converged_four_flow.sources]
        packet_mean = sum(packet_gammas) / len(packet_gammas)
        # The packet gamma runs on measured (noisy) loss; consistency
        # with p*/p_thr is coarser than the fluid fixed point.
        assert packet_mean == pytest.approx(expected, rel=0.35)


@pytest.mark.slow
class TestHeterogeneousDelays:
    """X2's setup: +0/+50/+150 ms of one-way access delay."""

    @pytest.fixture(scope="class")
    def packet_sim(self):
        from repro.sim.topology import BarbellConfig
        scenario = PelsScenario(
            n_flows=3, duration=60.0, seed=19,
            topology=BarbellConfig(
                extra_access_delay={0: 0.0, 1: 0.050, 2: 0.150}))
        return PelsSimulation(scenario).run()

    @pytest.fixture(scope="class")
    def fluid(self, packet_sim):
        twin = fluid_twin_of_session(packet_sim.scenario)
        assert twin.extra_delay == {0: 0.0, 1: 0.050, 2: 0.150}
        return FluidEngine(twin, backend="list").run()

    def test_fluid_hits_lemma6(self, fluid):
        assert fluid.lemma6_error() < 0.02

    def test_fluid_is_rtt_fair(self, fluid):
        assert min(fluid.final_rates) / max(fluid.final_rates) > 0.99

    def test_packet_and_fluid_agree(self, packet_sim, fluid):
        duration = packet_sim.scenario.duration
        packet = packet_tail_rate(packet_sim, 0.8 * duration, duration)
        assert packet == pytest.approx(fluid.tail_mean_rate(), rel=0.05)


@pytest.mark.slow
class TestMultiHopChain:
    """Two hops; a PELS-colored interferer shifts the bottleneck."""

    INTERFERER = (1, 45.0, 90.0, 2_400_000.0)

    @pytest.fixture(scope="class")
    def packet_sim(self):
        scenario = MultiHopScenario(
            n_flows=2, duration=90.0, seed=3, hop_bps=(4e6, 6e6),
            pels_interferers=(self.INTERFERER,))
        return MultiHopPelsSimulation(scenario).run()

    @pytest.fixture(scope="class")
    def fluid(self, packet_sim):
        twin = fluid_twin_of_multihop(packet_sim.scenario)
        assert twin.capacities_bps == tuple(
            packet_sim.scenario.pels_capacity_of(i) for i in range(2))
        return FluidEngine(twin, backend="list").run()

    def test_pre_shift_hits_lemma6(self, fluid):
        pre = [v for t, v in zip(fluid.times, fluid.mean_rate_bps)
               if 30 <= t <= 43]
        expected = fluid.scenario.lemma6_rate_bps()
        assert sum(pre) / len(pre) == pytest.approx(expected, rel=0.02)

    def test_post_shift_matches_quadratic(self, fluid):
        post = [v for t, v in zip(fluid.times, fluid.mean_rate_bps)
                if t >= 80]
        s = fluid.scenario
        expected = shifted_equilibrium_rate(
            s.capacities_bps[1], self.INTERFERER[3], s.n_flows,
            s.alpha_bps, s.beta)
        assert sum(post) / len(post) == pytest.approx(expected, rel=0.02)

    def test_bottleneck_index_flips(self, fluid):
        pre = [b for t, b in zip(fluid.times, fluid.bottleneck)
               if 30 <= t <= 43]
        assert set(pre) == {0}
        assert fluid.bottleneck[-1] == 1

    def test_packet_and_fluid_agree_post_shift(self, packet_sim, fluid):
        packet = packet_tail_rate(packet_sim, 80.0, 90.0)
        post = [v for t, v in zip(fluid.times, fluid.mean_rate_bps)
                if t >= 80]
        assert packet == pytest.approx(sum(post) / len(post), rel=0.10)


class TestTwinBuilders:
    def test_session_twin_copies_control_surface(self):
        scenario = PelsScenario(n_flows=4, duration=30.0)
        twin = fluid_twin_of_session(scenario)
        assert twin.n_flows == 4
        assert twin.capacities_bps == (scenario.pels_capacity_bps(),)
        assert twin.rtt_s == pytest.approx(scenario.topology.rtt())
        # Every control field off its default, so a twin that fell back
        # to a default instead of deriving the field cannot pass.
        off = {f.name: type(f.default)(f.default * 0.8)
               for f in dataclasses.fields(ControlParams)}
        for build, twin_of in ((PelsScenario, fluid_twin_of_session),
                               (MultiHopScenario, fluid_twin_of_multihop)):
            for max_rate_bps in (900_000.0, 50_000_000.0):
                scenario = build(**{**off, "max_rate_bps": max_rate_bps})
                twin = twin_of(scenario)
                # Clamped at the FGS coding ceiling, like the packet
                # assembly clamps its controllers.
                scenario.max_rate_bps = min(max_rate_bps,
                                            scenario.fgs.max_rate_bps)
                for name in off:
                    assert getattr(twin, name) == getattr(scenario, name), \
                        (build.__name__, name)

    def test_defaults_match_the_controllers(self):
        """The record and the two controller signatures are the only
        places a control default lives; they may not drift.  (MKC's own
        ``max_rate_bps`` is "unbounded", the record's a scenario clamp.)"""
        record = dataclasses.asdict(ControlParams())
        del record["max_rate_bps"]
        shared = [p for cls in (MkcController, GammaController)
                  for p in inspect.signature(cls).parameters.values()
                  if p.name in record]
        assert len(shared) == 8
        for p in shared:
            assert p.default == record[p.name], p.name

    def test_session_twin_rejects_other_controllers(self):
        with pytest.raises(ValueError, match="aimd"):
            fluid_twin_of_session(PelsScenario(controller_name="aimd"))

    def test_multihop_twin_copies_hops_and_interferers(self):
        scenario = MultiHopScenario(
            n_flows=3, hop_bps=(4e6, 6e6, 5e6),
            pels_interferers=((1, 10.0, 20.0, 1e6),))
        twin = fluid_twin_of_multihop(scenario)
        assert len(twin.capacities_bps) == 3
        assert twin.capacities_bps[0] == scenario.pels_capacity_of(0)
        assert twin.interferers == ((1, 10.0, 20.0, 1e6),)

    @pytest.mark.parametrize("interferer, message", [
        ((-1, 0.0, 1.0, 1e6), "interferer router -1 out of range"),
        ((2, 0.0, 1.0, 1e6), "interferer router 2 out of range"),
        ((0, 2.0, 1.0, 1e6), "interferer stops before it starts"),
        ((0, 0.0, 1.0, 0.0), "interferer rate must be positive")])
    def test_both_engines_reject_the_same_interferers(self, interferer,
                                                       message):
        with pytest.raises(ValueError, match=message):
            MultiHopScenario(hop_bps=(4e6, 6e6),
                             pels_interferers=(interferer,))
        with pytest.raises(ValueError, match=message):
            FluidScenario(capacities_bps=(2e6, 3e6),
                          interferers=(interferer,))
