"""Unit tests for the epoch-batched fluid engine (repro.fluid)."""

from __future__ import annotations

import pytest

from repro.cc.mkc import MkcController
from repro.core.gamma import GammaController
from repro.experiments.multihop import shifted_equilibrium_rate
from repro.fluid import FluidEngine, FluidScenario, resolve_backend
from repro.fluid import engine as engine_mod
from repro.fluid.engine import _numpy_or_none
from repro.fluid.scenario import fat_tree_scenario
from repro.obs import (disable_profiling, enable_profiling, profile_snapshot,
                       reset_profile)

HAVE_NUMPY = _numpy_or_none() is not None

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy missing")


class TestResolveBackend:
    def test_default_is_list(self):
        assert resolve_backend(None) == "list"

    def test_explicit_list(self):
        assert resolve_backend("list") == "list"

    def test_auto_matches_availability(self):
        assert resolve_backend("auto") == ("numpy" if HAVE_NUMPY else "list")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown fluid backend"):
            resolve_backend("cupy")

    def test_numpy_missing_raises(self, monkeypatch):
        import repro.fluid.engine as engine
        monkeypatch.setattr(engine, "_numpy_or_none", lambda: None)
        with pytest.raises(RuntimeError, match="numpy is not"):
            engine.resolve_backend("numpy")
        assert engine.resolve_backend("auto") == "list"


class TestScenarioValidation:
    def test_beta_bounds_enforced(self):
        with pytest.raises(ValueError, match="Lemma 5"):
            FluidScenario(beta=2.0)

    def test_sigma_bounds_enforced(self):
        with pytest.raises(ValueError, match="Lemma 2"):
            FluidScenario(sigma=2.5)

    @pytest.mark.parametrize("name, lemma, packet", [
        ("beta", "Lemma 5", MkcController),
        ("sigma", "Lemma 2", GammaController)])
    @pytest.mark.parametrize("value", [0.0, 2.0, -1.0, float("nan")])
    def test_packet_and_fluid_constructors_reject_alike(self, name, lemma,
                                                        packet, value):
        for build in (packet, FluidScenario):
            with pytest.raises(ValueError, match=lemma):
                build(**{name: value})

    def test_start_times_length_checked(self):
        with pytest.raises(ValueError, match="one entry per flow"):
            FluidScenario(n_flows=3, start_times=[0.0])

    def test_interferer_router_range_checked(self):
        with pytest.raises(ValueError, match="out of range"):
            FluidScenario(interferers=((1, 0.0, 10.0, 1e6),))

    def test_rate_band_checked(self):
        with pytest.raises(ValueError, match="min <= initial <= max"):
            FluidScenario(initial_rate_bps=1e9)

    def test_delay_split_covers_rtt(self):
        s = FluidScenario(extra_delay={1: 0.050})
        for flow in (0, 1):
            total = (s.forward_epochs(flow) + s.backward_epochs(flow)) \
                * s.feedback_interval
            assert total == pytest.approx(s.rtt_of(flow), abs=s.feedback_interval)
        assert s.ref_delay_epochs(1) > s.ref_delay_epochs(0)


class TestEquilibrium:
    def test_lemma6_single_hop(self):
        s = FluidScenario(n_flows=4, duration=60.0)
        r = FluidEngine(s, backend="list").run()
        assert r.lemma6_error() < 0.005
        assert r.tail_gamma() == pytest.approx(s.expected_gamma(), rel=0.02)

    def test_rates_equalize_across_delays(self):
        """Lemma 6 has no RTT term: heterogeneous-delay flows converge
        to the same stationary rate."""
        s = FluidScenario(n_flows=3, duration=90.0,
                          extra_delay={1: 0.050, 2: 0.150})
        r = FluidEngine(s, backend="list").run()
        assert r.lemma6_error() < 0.01
        assert min(r.final_rates) / max(r.final_rates) > 0.99

    def test_staggered_starts_settle(self):
        s = FluidScenario(n_flows=4, duration=90.0,
                          start_times=[0.0, 5.0, 10.0, 20.0])
        r = FluidEngine(s, backend="list").run()
        assert r.lemma6_error() < 0.005

    def test_interferer_shifts_bottleneck(self):
        s = FluidScenario(n_flows=4, duration=120.0,
                          capacities_bps=(4e6, 2.4e6, 4e6),
                          interferers=((2, 60.0, 120.0, 2.6e6),))
        r = FluidEngine(s, backend="list").run()
        pre = [b for t, b in zip(r.times, r.bottleneck) if 40 <= t <= 58]
        assert set(pre) == {1}
        assert r.bottleneck[-1] == 2
        post = [v for t, v in zip(r.times, r.mean_rate_bps) if t >= 110]
        expected = shifted_equilibrium_rate(4e6, 2.6e6, 4, s.alpha_bps,
                                            s.beta)
        assert sum(post) / len(post) == pytest.approx(expected, rel=0.005)

    def test_max_rate_clamp_binds_when_uncongested(self):
        s = FluidScenario(n_flows=2, duration=30.0,
                          capacities_bps=(50e6,), max_rate_bps=1e6)
        r = FluidEngine(s, backend="list").run()
        assert r.tail_mean_rate() == pytest.approx(1e6, rel=1e-6)


class TestDeterminismAndBackends:
    def test_runs_are_bit_identical(self):
        s = FluidScenario(n_flows=5, duration=20.0,
                          extra_delay={3: 0.060})
        a = FluidEngine(s, backend="list").run()
        b = FluidEngine(s, backend="list").run()
        assert a.mean_rate_bps == b.mean_rate_bps
        assert a.final_rates == b.final_rates
        assert a.final_gammas == b.final_gammas
        assert a.router_loss == b.router_loss

    @needs_numpy
    def test_backends_agree(self):
        s = FluidScenario(n_flows=7, duration=30.0,
                          capacities_bps=(3e6, 2e6),
                          extra_delay={2: 0.050, 5: 0.120},
                          start_times=[0.0, 0.0, 2.0, 0.0, 5.0, 0.0, 0.0])
        a = FluidEngine(s, backend="list").run()
        b = FluidEngine(s, backend="numpy").run()
        assert b.backend == "numpy"
        for va, vb in zip(a.mean_rate_bps, b.mean_rate_bps):
            assert vb == pytest.approx(va, rel=1e-9)
        for va, vb in zip(a.final_rates, b.final_rates):
            assert vb == pytest.approx(va, rel=1e-9)
        assert a.bottleneck == b.bottleneck


class TestResultApi:
    @pytest.fixture(scope="class")
    def result(self):
        return FluidEngine(FluidScenario(n_flows=4, duration=40.0),
                           backend="list").run()

    def test_convergence_time_reported(self, result):
        conv = result.convergence_time(
            target=result.scenario.lemma6_rate_bps())
        assert conv is not None
        assert 0 < conv < 20.0

    def test_convergence_none_when_never_settling(self, result):
        assert result.convergence_time(target=1.0) is None

    def test_tail_frac_validated(self, result):
        with pytest.raises(ValueError):
            result.tail_mean_rate(frac=0.0)
        with pytest.raises(ValueError):
            result.tail_gamma(frac=1.5)

    def test_series_keys(self, result):
        series = result.series()
        assert set(series) == {"mean_rate_bps", "gamma_mean",
                               "router0_loss"}
        times, values = series["router0_loss"]
        assert len(times) == len(values) == len(result.times)

    def test_flow_recording_follows_scenario(self):
        small = FluidEngine(FluidScenario(n_flows=2, duration=5.0),
                            backend="list").run()
        assert small.flow_rates is not None
        assert len(small.flow_rates) == 2
        off = FluidEngine(FluidScenario(n_flows=2, duration=5.0,
                                        record_flows=False),
                          backend="list").run()
        assert off.flow_rates is None

    def test_wall_time_populated(self, result):
        assert result.wall_time > 0
        assert result.epochs_per_second() > 0
        assert result.wall_per_sim_second() > 0


class TestProfileSections:
    """``--profile`` reads four per-epoch sections off the fluid engine."""

    def teardown_method(self):
        disable_profiling()
        reset_profile()

    @pytest.mark.parametrize(
        "backend", ["list", pytest.param("numpy", marks=needs_numpy)])
    def test_each_section_timed_once_per_epoch(self, backend):
        # 72 segments: enough for the numpy rows to engage.
        engine = FluidEngine(fat_tree_scenario(duration=3.0, start_waves=3),
                             backend=backend, fast_forward=False)
        assert engine.n_segments >= engine_mod._NUMPY_MIN_SEGMENTS
        reset_profile()
        enable_profiling()
        result = engine.run()
        disable_profiling()
        sections = profile_snapshot()
        assert set(sections) == {"FluidEngine.controller",
                                 "FluidEngine.filter", "FluidEngine.router",
                                 "FluidEngine.sampling"}
        assert [count for count, _ in sections.values()] \
            == [result.n_epochs] * 4
