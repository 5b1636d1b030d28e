"""Batched segment engine vs the reference per-class integrator.

The PR contract: the batched :class:`FluidEngine` must reproduce the
preserved seed engine (:class:`ReferenceFluidEngine`) within 0.1%
relative on every cross-validation scenario family — single-hop,
heterogeneous delays, chain shifts under interferers — on both
backends, while the new multi-bottleneck machinery (explicit paths,
``flow_groups`` populations, topology generators, network equilibrium
oracle, equilibrium fast-forward) holds its own invariants.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.oracles import (check_network_equilibrium,
                                    network_equilibrium)
from repro.fluid import engine as engine_mod
from repro.fluid.engine import FluidEngine
from repro.fluid.reference import ReferenceFluidEngine
from repro.fluid.scenario import (FluidScenario, chain_grid_scenario,
                                  fat_tree_scenario)

#: The PR's parity budget: batched vs reference within 0.1% relative.
PARITY_RTOL = 1e-3

HAVE_NUMPY = engine_mod._numpy_or_none() is not None

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy missing")

BACKENDS = ["list", pytest.param("numpy", marks=needs_numpy)]


def _max_rel_err(a, b):
    return max(abs(x - y) / (abs(y) + 1e-9) for x, y in zip(a, b))


def _assert_parity(scenario, backend, rtol=PARITY_RTOL):
    ref = ReferenceFluidEngine(scenario, backend="list").run()
    new = FluidEngine(scenario, backend=backend).run()
    assert new.backend == backend
    assert new.times == ref.times
    assert _max_rel_err(new.mean_rate_bps, ref.mean_rate_bps) <= rtol
    assert _max_rel_err(new.gamma_mean, ref.gamma_mean) <= rtol
    for row_new, row_ref in zip(new.router_loss, ref.router_loss):
        assert all(abs(x - y) <= rtol for x, y in zip(row_new, row_ref))
    assert _max_rel_err(new.final_rates, ref.final_rates) <= rtol


class TestReferenceParity:
    """0.1% agreement on the existing cross-validation families."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_single_hop(self, backend):
        _assert_parity(FluidScenario(n_flows=4, duration=40.0,
                                     capacities_bps=(1.6e6,)), backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_hetero_delay(self, backend):
        _assert_parity(FluidScenario(
            n_flows=3, duration=60.0, capacities_bps=(1.2e6,),
            extra_delay={1: 0.050, 2: 0.150}), backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_chain_shift_interferer(self, backend):
        _assert_parity(FluidScenario(
            n_flows=4, duration=120.0, capacities_bps=(4e6, 2.4e6, 4e6),
            interferers=((2, 60.0, 120.0, 2.6e6),)), backend)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_staggered_starts(self, backend):
        _assert_parity(FluidScenario(
            n_flows=4, duration=40.0, capacities_bps=(1.6e6,),
            start_times=[0.0, 2.0, 5.0, 9.0]), backend)

    @pytest.mark.parametrize("seed", [7, 23, 91])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_seeded_random_scenarios(self, seed, backend):
        """Seeded property check across delay/start/interferer draws."""
        rng = random.Random(seed)
        for _ in range(3):
            n = rng.randint(2, 8)
            scenario = FluidScenario(
                n_flows=n, duration=rng.uniform(25.0, 45.0),
                capacities_bps=tuple(
                    rng.uniform(0.4e6, 1.2e6) * n
                    for _ in range(rng.randint(1, 3))),
                extra_delay={i: rng.uniform(0.0, 0.12)
                             for i in range(n) if rng.random() < 0.5},
                start_times=[rng.uniform(0.0, 4.0) for _ in range(n)],
                record_flows=False)
            _assert_parity(scenario, backend)

    @needs_numpy
    def test_numpy_kernel_many_segments(self):
        """>= _NUMPY_MIN_SEGMENTS distinct delay classes drives the
        vectorized kernel; parity must still hold vs the reference."""
        n = 80
        # Distinct start epochs (0.09 s > 3 epochs apart) keep all 80
        # flows in distinct segments after epoch quantization.
        scenario = FluidScenario(
            n_flows=n, duration=30.0, capacities_bps=(200e6,),
            extra_delay={i: 0.04 * (i % 4) for i in range(n)},
            start_times=[0.09 * i for i in range(n)],
            record_flows=False)
        engine = FluidEngine(scenario, backend="numpy")
        assert engine.n_segments >= engine_mod._NUMPY_MIN_SEGMENTS
        _assert_parity(scenario, "numpy")

    @needs_numpy
    def test_scalar_and_numpy_backend_identical_below_threshold(self):
        """Below the segment threshold both backends run the list rows
        and must agree bit for bit."""
        scenario = FluidScenario(n_flows=5, duration=30.0,
                                 capacities_bps=(1e6,),
                                 extra_delay={1: 0.03, 3: 0.09})
        a = FluidEngine(scenario, backend="list").run()
        b = FluidEngine(scenario, backend="numpy").run()
        assert b.backend == "numpy"
        assert a.mean_rate_bps == b.mean_rate_bps
        assert a.router_loss == b.router_loss


class TestFastForward:
    def test_fast_forward_matches_full_integration(self):
        scenario = FluidScenario(n_flows=6, duration=90.0,
                                 capacities_bps=(2.4e6,),
                                 extra_delay={2: 0.06})
        full = FluidEngine(scenario, backend="list",
                           fast_forward=False).run()
        ff = FluidEngine(scenario, backend="list").run()
        assert ff.times == full.times
        assert _max_rel_err(ff.mean_rate_bps, full.mean_rate_bps) <= 1e-9
        assert _max_rel_err(ff.final_rates, full.final_rates) <= 1e-9

    def test_fast_forward_respects_interferer_boundaries(self):
        scenario = FluidScenario(
            n_flows=4, duration=120.0, capacities_bps=(4e6, 2.4e6, 4e6),
            interferers=((2, 60.0, 120.0, 2.6e6),))
        ff = FluidEngine(scenario, backend="list").run()
        full = FluidEngine(scenario, backend="list",
                           fast_forward=False).run()
        assert ff.bottleneck[-1] == full.bottleneck[-1] == 2
        assert _max_rel_err(ff.mean_rate_bps, full.mean_rate_bps) <= 1e-9


class TestBackendResolution:
    def test_numpy_probe_is_cached(self, monkeypatch):
        calls = []
        real_import = __import__

        def counting_import(name, *args, **kwargs):
            if name == "numpy":
                calls.append(name)
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(engine_mod, "_numpy_module",
                            engine_mod._UNPROBED)
        monkeypatch.setattr("builtins.__import__", counting_import)
        engine_mod._numpy_or_none()
        engine_mod._numpy_or_none()
        engine_mod._numpy_or_none()
        assert len(calls) == 1


class TestResultExtensions:
    def test_peak_rss_and_epochs_per_second(self):
        result = FluidEngine(FluidScenario(n_flows=2, duration=10.0),
                             backend="list").run()
        assert result.peak_rss_bytes is not None
        assert result.peak_rss_bytes > 0
        assert result.epochs_per_second() > 0

    def test_convergence_time_backward_scan_semantics(self):
        result = FluidEngine(FluidScenario(n_flows=4, duration=20.0),
                             backend="list").run()
        conv = result.convergence_time()
        assert conv is not None
        assert 0 < conv < 20.0
        # A target the tail never reaches: no convergence.
        assert result.convergence_time(target=1.0) is None


class TestGroupModeAndGenerators:
    def test_flow_groups_match_per_flow_expansion(self):
        """A flow_groups population must integrate exactly like the
        same population written out per flow."""
        paths = ((0, 1), (0, 2))
        grouped = FluidScenario(
            n_flows=6, duration=30.0, capacities_bps=(6e6, 1.2e6, 1.2e6),
            paths=paths,
            flow_groups=((3, 0.0, 0.0, 0), (2, 0.05, 1.0, 1),
                         (1, 0.0, 2.0, 1)))
        per_flow = FluidScenario(
            n_flows=6, duration=30.0, capacities_bps=(6e6, 1.2e6, 1.2e6),
            paths=paths, flow_path=[0, 0, 0, 1, 1, 1],
            extra_delay={3: 0.05, 4: 0.05},
            start_times=[0.0, 0.0, 0.0, 1.0, 1.0, 2.0],
            record_flows=False)
        a = FluidEngine(grouped, backend="list").run()
        b = FluidEngine(per_flow, backend="list").run()
        assert a.mean_rate_bps == b.mean_rate_bps
        assert a.router_loss == b.router_loss
        # Group mode has no flow identity: terminal state is per
        # segment, per-flow mode expands it back to flows.
        assert len(b.final_rates) == 6
        assert len(a.final_rates) == FluidEngine(grouped).n_segments

    def test_flow_groups_validation(self):
        with pytest.raises(ValueError, match="do not combine"):
            FluidScenario(n_flows=2, flow_groups=((2, 0.0, 0.0, 0),),
                          start_times=[0.0, 1.0])
        with pytest.raises(ValueError, match="no flow identity"):
            FluidScenario(n_flows=2, flow_groups=((2, 0.0, 0.0, 0),),
                          record_flows=True)
        with pytest.raises(ValueError, match="cover 3 flows but"):
            FluidScenario(n_flows=2, flow_groups=((3, 0.0, 0.0, 0),))

    def test_path_validation(self):
        with pytest.raises(ValueError, match="out of range"):
            FluidScenario(n_flows=2, capacities_bps=(1e6,),
                          paths=((0, 1),))
        with pytest.raises(ValueError, match="requires explicit paths"):
            FluidScenario(n_flows=2, flow_path=[0, 0])

    def test_generator_validation(self):
        with pytest.raises(ValueError, match="tiers must narrow"):
            fat_tree_scenario(edge_routers=2, agg_routers=4)
        with pytest.raises(ValueError, match="delay-tier x start-wave"):
            fat_tree_scenario(flows_per_edge=3)
        with pytest.raises(ValueError, match="delay tier"):
            chain_grid_scenario(flows_per_chain=1, delay_tiers=2)

    def test_reference_engine_rejects_multi_path(self):
        scenario = fat_tree_scenario(edge_routers=2, agg_routers=1,
                                     core_routers=1, flows_per_edge=8,
                                     duration=5.0)
        with pytest.raises(ValueError, match="single-path chain"):
            ReferenceFluidEngine(scenario)


class TestNetworkEquilibriumOracle:
    def test_chain_reduces_to_lemma6(self):
        scenario = FluidScenario(n_flows=4, duration=60.0,
                                 capacities_bps=(4e6, 2.4e6, 4e6))
        eq = network_equilibrium(scenario)
        assert eq.mean_rate_bps == pytest.approx(
            scenario.lemma6_rate_bps())
        assert eq.path_binding_router == (1,)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_fat_tree_equilibrium(self, backend):
        scenario = fat_tree_scenario()
        result = FluidEngine(scenario, backend=backend).run()
        verdict = check_network_equilibrium(scenario, result)
        assert verdict.ok, str(verdict)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_chain_grid_equilibrium(self, backend):
        scenario = chain_grid_scenario()
        result = FluidEngine(scenario, backend=backend).run()
        verdict = check_network_equilibrium(scenario, result)
        assert verdict.ok, str(verdict)

    def test_binding_routers_are_the_tight_tier(self):
        scenario = fat_tree_scenario(edge_routers=4, agg_routers=2,
                                     core_routers=1, flows_per_edge=16,
                                     duration=6.0)
        eq = network_equilibrium(scenario)
        # Every path binds at its edge router (indices 0..3).
        assert all(0 <= b < 4 for b in eq.path_binding_router)
        assert all(loss == 0.0 for loss in eq.router_loss[4:])
