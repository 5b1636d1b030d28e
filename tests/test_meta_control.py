"""Meta-control layer: PID, tuning seam, backend, oracle conformance.

The property tests are *oracle-pinned*: every random sequence of
adjustments must leave the tuned control plane inside the paper's
stability envelopes (Lemma 2/3 for sigma, Lemma 5 for beta, Lemma 4's
threshold range), as verified by
:func:`repro.analysis.oracles.check_tuned_stability`.  The seam is what
makes that a theorem rather than a hope — ``apply_params`` clamps to
the declared ``TunableParam`` ranges no matter what the tuner asks for.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.oracles import check_tuned_stability
from repro.cc.base import (RateController, TunableParam, make_controller,
                           temporary_controller)
from repro.cc.mkc import ALPHA_SAFE_RANGE, BETA_SAFE_RANGE, MkcController
from repro.control import (MemoryBackend, MetaController,
                           MetaControllerConfig, PIDController)
from repro.control.backend import HISTORY_LIMIT
from repro.core.gamma import (P_THR_SAFE_RANGE, SIGMA_SAFE_RANGE,
                              GammaController)
from repro.core.pels_queue import PELS_SHARE_SAFE_RANGE, PelsQueueConfig
from repro.core.session import PelsScenario, PelsSimulation
from repro.obs.monitor import EpochObservation
from repro.sim.engine import Simulator
from repro.sim.traffic import ParetoBurstSource


# ---------------------------------------------------------------------------
# PIDController
# ---------------------------------------------------------------------------

class TestPidBasics:
    def test_first_call_primes_and_returns_none(self):
        pid = PIDController(kp=1.0)
        assert pid.update(0.5, now=0.0) is None
        assert pid.updates == 0

    def test_output_sign_follows_error_sign(self):
        pid = PIDController(kp=2.0)
        pid.update(0.0, now=0.0)
        assert pid.update(-0.25, now=1.0) == pytest.approx(0.5)
        assert pid.update(0.25, now=2.0) == pytest.approx(-0.5)

    @given(measurement=st.floats(-10.0, 10.0, allow_nan=False))
    @settings(max_examples=50)
    def test_p_only_output_is_proportional(self, measurement):
        pid = PIDController(kp=3.0, setpoint=1.0)
        pid.update(1.0, now=0.0)
        out = pid.update(measurement, now=1.0)
        assert out == pytest.approx(
            min(math.inf, 3.0 * (1.0 - measurement)))

    @given(measurements=st.lists(st.floats(-100.0, 100.0,
                                           allow_nan=False),
                                 min_size=2, max_size=40))
    @settings(max_examples=50)
    def test_output_always_within_clamps(self, measurements):
        pid = PIDController(kp=5.0, ki=1.0, kd=0.5,
                            output_min=-1.0, output_max=2.0)
        for i, m in enumerate(measurements):
            out = pid.update(m, now=float(i))
            if out is not None:
                assert -1.0 <= out <= 2.0

    def test_derivative_term_responds_to_error_slope(self):
        pid = PIDController(kp=0.0, kd=1.0)
        pid.update(0.0, now=0.0)
        # error goes 0 -> -1 over 1s: derivative contributes -1.
        assert pid.update(1.0, now=1.0) == pytest.approx(-1.0)

    def test_updates_counter_counts_applied_updates_only(self):
        pid = PIDController(kp=1.0, update_interval=1.0)
        pid.update(0.1, now=0.0)      # prime
        pid.update(0.1, now=0.5)      # gated
        pid.update(0.1, now=1.5)      # applied
        assert pid.updates == 1

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            PIDController(kp=1.0, output_min=1.0, output_max=1.0)
        with pytest.raises(ValueError):
            PIDController(kp=1.0, update_interval=-0.1)
        with pytest.raises(ValueError):
            PIDController(kp=1.0, integral_limit=0.0)
        with pytest.raises(ValueError):
            PIDController(kp=1.0, integral_leak=-1.0)


class TestPidGating:
    def test_calls_before_interval_are_gated(self):
        pid = PIDController(kp=1.0, update_interval=0.24)
        pid.update(0.5, now=0.0)
        assert pid.update(0.5, now=0.1) is None
        assert pid.update(0.5, now=0.23) is None
        assert pid.update(0.5, now=0.25) is not None

    def test_gated_calls_do_not_advance_the_clock(self):
        # Gated calls must not reset the reference time, or a fast
        # caller could starve the loop forever.
        pid = PIDController(kp=1.0, update_interval=1.0)
        pid.update(0.5, now=0.0)
        for t in (0.3, 0.6, 0.9):
            assert pid.update(0.5, now=t) is None
        assert pid.update(0.5, now=1.0) is not None

    def test_non_positive_dt_is_gated(self):
        pid = PIDController(kp=1.0)
        pid.update(0.5, now=5.0)
        assert pid.update(0.5, now=5.0) is None
        assert pid.update(0.5, now=4.0) is None


class TestPidAntiWindup:
    def test_integral_frozen_while_saturated(self):
        pid = PIDController(kp=0.0, ki=1.0, output_min=-1.0,
                            output_max=1.0, integral_limit=100.0)
        pid.update(-10.0, now=0.0)
        for t in range(1, 10):
            out = pid.update(-10.0, now=float(t))
            assert out == 1.0
        # One accumulation reaches the clamp; further pushing error
        # must not integrate past it.
        assert pid.integral <= 10.0 + 1e-9

    def test_opposing_error_unwinds_saturation(self):
        pid = PIDController(kp=0.0, ki=1.0, output_min=-1.0,
                            output_max=1.0, integral_limit=100.0)
        pid.update(-5.0, now=0.0)
        pid.update(-5.0, now=1.0)
        frozen = pid.integral
        pid.update(5.0, now=2.0)      # opposite sign integrates
        assert pid.integral < frozen

    def test_integral_limit_bounds_accumulation(self):
        pid = PIDController(kp=0.0, ki=10.0, integral_limit=0.5)
        pid.update(-1.0, now=0.0)
        for t in range(1, 6):
            pid.update(-1.0, now=float(t))
        assert abs(pid.integral) <= 0.5

    def test_integral_leak_decays_without_error(self):
        pid = PIDController(kp=0.0, ki=1.0, integral_leak=1.0)
        pid.update(-1.0, now=0.0)
        pid.update(-1.0, now=1.0)
        wound = pid.integral
        assert wound > 0
        for t in range(2, 8):
            pid.update(0.0, now=float(t))
        assert pid.integral < wound * 0.05

    def test_leaky_integral_reaches_bounded_equilibrium(self):
        # Under sustained error e the leaky integral converges to
        # ~ki*e*tau instead of growing without bound.
        pid = PIDController(kp=0.0, ki=0.5, integral_leak=2.0)
        pid.update(-1.0, now=0.0)
        for t in range(1, 60):
            pid.update(-1.0, now=float(t))
        # discrete-time fixed point: I = I*exp(-1/2) + 0.5  =>  ~1.27
        expected = 0.5 / (1 - math.exp(-0.5))
        assert pid.integral == pytest.approx(expected, rel=1e-3)


class TestPidReset:
    def test_reset_clears_state_and_reprimes(self):
        pid = PIDController(kp=1.0, ki=1.0)
        pid.update(-1.0, now=0.0)
        pid.update(-1.0, now=1.0)
        assert pid.integral != 0.0
        pid.reset()
        assert pid.integral == 0.0
        assert pid.output == 0.0
        assert pid.update(-1.0, now=2.0) is None  # primes again


# ---------------------------------------------------------------------------
# Tuning seam (Tunable / TunableParam)
# ---------------------------------------------------------------------------

class TestTuningSeam:
    def test_mkc_declares_alpha_and_beta(self):
        params = MkcController().tunable_params()
        assert set(params) == {"alpha_bps", "beta"}
        assert params["alpha_bps"].lo == ALPHA_SAFE_RANGE[0]
        assert params["beta"].hi == BETA_SAFE_RANGE[1]

    def test_apply_params_clamps_to_safe_range(self):
        ctl = MkcController()
        applied = ctl.apply_params(alpha_bps=10 * ALPHA_SAFE_RANGE[1],
                                   beta=5.0)
        assert applied["alpha_bps"] == ALPHA_SAFE_RANGE[1]
        assert applied["beta"] == BETA_SAFE_RANGE[1]
        assert ctl.alpha_bps == ALPHA_SAFE_RANGE[1]
        assert ctl.beta == BETA_SAFE_RANGE[1]

    def test_apply_params_clamps_from_below(self):
        ctl = MkcController()
        applied = ctl.apply_params(alpha_bps=0.0, beta=-3.0)
        assert applied["alpha_bps"] == ALPHA_SAFE_RANGE[0]
        assert applied["beta"] == BETA_SAFE_RANGE[0]

    def test_apply_params_rejects_unknown_knob(self):
        with pytest.raises(ValueError, match="no tunable"):
            MkcController().apply_params(gamma=0.5)

    def test_gamma_controller_seam(self):
        g = GammaController()
        applied = g.apply_params(sigma=99.0, p_thr=0.0)
        assert applied["sigma"] == SIGMA_SAFE_RANGE[1]
        assert applied["p_thr"] == P_THR_SAFE_RANGE[0]

    def test_pels_share_moves_both_wrr_weights(self):
        cfg = PelsQueueConfig()
        cfg.apply_params(pels_share=0.7)
        assert cfg.pels_share() == pytest.approx(0.7)
        assert cfg.pels_weight + cfg.internet_weight == pytest.approx(1.0)

    def test_pels_share_clamped(self):
        cfg = PelsQueueConfig()
        applied = cfg.apply_params(pels_share=0.99)
        assert applied["pels_share"] == PELS_SHARE_SAFE_RANGE[1]

    def test_tunable_param_clamp(self):
        p = TunableParam("x", 1.0, 2.0)
        assert p.clamp(0.0) == 1.0
        assert p.clamp(3.0) == 2.0
        assert p.clamp(1.5) == 1.5

    def test_temporary_controller_registers_and_cleans_up(self):
        class Stub(RateController):
            def on_feedback(self, loss, now):
                return self.rate_bps

        with temporary_controller("stub-meta-test", Stub):
            assert isinstance(make_controller("stub-meta-test"), Stub)
        with pytest.raises(KeyError, match="unknown controller"):
            make_controller("stub-meta-test")

    def test_temporary_controller_rejects_duplicates(self):
        with pytest.raises(ValueError):
            with temporary_controller("mkc", MkcController):
                pass  # pragma: no cover


# ---------------------------------------------------------------------------
# Oracle: check_tuned_stability
# ---------------------------------------------------------------------------

class TestTunedStabilityOracle:
    def test_defaults_conform(self):
        verdict = check_tuned_stability(controller=MkcController(),
                                        gamma=GammaController(),
                                        queue_config=PelsQueueConfig())
        assert verdict.ok
        assert verdict.measured == 0.0

    def test_detects_out_of_envelope_beta(self):
        ctl = MkcController()
        ctl.beta = 2.5  # bypass the seam deliberately
        verdict = check_tuned_stability(controller=ctl)
        assert not verdict.ok
        assert verdict.measured > 0
        assert "beta" in verdict.detail

    def test_detects_out_of_envelope_sigma(self):
        g = GammaController()
        g.sigma = 2.5
        verdict = check_tuned_stability(gamma=g)
        assert not verdict.ok
        assert "sigma" in verdict.detail

    @given(requests=st.lists(
        st.tuples(st.floats(-1e6, 1e6, allow_nan=False),
                  st.floats(-10.0, 10.0, allow_nan=False),
                  st.floats(-10.0, 10.0, allow_nan=False)),
        min_size=20, max_size=60))
    @settings(max_examples=25, deadline=None)
    def test_no_adjustment_sequence_escapes_the_envelope(self, requests):
        """Oracle-pinned: arbitrary tuner requests through the seam
        keep Lemma 2/3 and Lemma 5 satisfied after *every* step."""
        ctl = MkcController()
        g = GammaController()
        cfg = PelsQueueConfig()
        for alpha, beta, sigma in requests:
            ctl.apply_params(alpha_bps=alpha, beta=beta)
            g.apply_params(sigma=sigma)
            cfg.apply_params(pels_share=sigma / 10.0)
            verdict = check_tuned_stability(controller=ctl, gamma=g,
                                            queue_config=cfg)
            assert verdict.ok, str(verdict)


# ---------------------------------------------------------------------------
# MemoryBackend
# ---------------------------------------------------------------------------

class TestMemoryBackend:
    def test_record_history_latest(self):
        b = MemoryBackend()
        b.record(1.0, "rate", {"alpha_bps_0": 1.0})
        b.record(2.0, "gamma", {"sigma_0": 0.4})
        b.record(3.0, "rate", {"alpha_bps_0": 2.0})
        assert len(b) == 3
        assert [t for t, _, _ in b.history("rate")] == [1.0, 3.0]
        assert b.latest("rate") == {"alpha_bps_0": 2.0}
        assert b.latest("wrr") is None

    def test_clear(self):
        b = MemoryBackend()
        b.record(1.0, "rate", {"x": 1.0})
        b.clear()
        assert len(b) == 0
        assert b.latest("rate") is None

    def test_history_returns_copies(self):
        b = MemoryBackend()
        b.record(1.0, "rate", {"x": 1.0})
        b.history()[0][2]["x"] = 99.0
        assert b.latest("rate") == {"x": 1.0}

    def test_record_and_prune(self):
        # A --tune'd live run records for as long as it lives: the log
        # keeps the newest HISTORY_LIMIT entries, latest() stays exact
        # even for a loop whose every entry was pruned.
        b = MemoryBackend()
        b.record(0.0, "wrr", {"pels_share": 0.4})
        for i in range(1, HISTORY_LIMIT + 10):
            b.record(float(i), "rate", {"alpha_bps_0": float(i)})
        assert len(b) == len(b.history()) == HISTORY_LIMIT
        assert b.history()[0][0] == 10.0  # the oldest ten are gone
        assert b.history("wrr") == []
        assert b.latest("wrr") == {"pels_share": 0.4}
        assert b.latest("rate") == {"alpha_bps_0": HISTORY_LIMIT + 9.0}


# ---------------------------------------------------------------------------
# MetaController
# ---------------------------------------------------------------------------

def _obs(rates, r_star=1_000_000.0, t=0.0, loss=0.0, gammas=(0.1,)):
    mean = sum(rates) / len(rates)
    mean_gamma = sum(gammas) / len(gammas)
    return EpochObservation(
        t=t, r_star=r_star, rates_bps=tuple(rates), mean_rate_bps=mean,
        conv_error=(mean - r_star) / r_star,
        max_abs_conv_error=max(abs(r - r_star) / r_star for r in rates),
        virtual_loss=loss, mean_gamma=mean_gamma, gamma_innovation=0.0)


def _bound_meta(n_flows=2, config=None):
    meta = MetaController(config)
    controllers = [MkcController() for _ in range(n_flows)]
    gammas = [GammaController() for _ in range(n_flows)]
    meta.bind(controllers, gammas, r_star=1_000_000.0)
    return meta, controllers, gammas


class TestMetaController:
    def test_bind_rejects_bad_oracle(self):
        with pytest.raises(ValueError):
            MetaController().bind([], [], r_star=0.0)

    def test_bind_creates_one_rate_pid_per_flow(self):
        meta, controllers, _ = _bound_meta(n_flows=3)
        assert len(meta.rate_pids) == 3
        assert all(pid is not None for pid in meta.rate_pids)

    def test_first_step_primes_without_adjusting(self):
        meta, controllers, _ = _bound_meta()
        meta.step(_obs([500_000.0, 500_000.0]), now=0.0)
        assert meta.steps == 1
        assert meta.adjustments == 0
        assert controllers[0].alpha_bps == 20_000.0

    def test_low_rates_boost_alpha(self):
        meta, controllers, _ = _bound_meta()
        meta.step(_obs([500_000.0, 500_000.0], t=0.0), now=0.0)
        meta.step(_obs([500_000.0, 500_000.0], t=1.0), now=1.0)
        assert all(c.alpha_bps > 20_000.0 for c in controllers)
        assert meta.adjustments >= 1
        assert meta.backend.latest("rate") is not None

    def test_high_rates_trim_alpha(self):
        meta, controllers, _ = _bound_meta()
        meta.step(_obs([1_500_000.0, 1_500_000.0]), now=0.0)
        meta.step(_obs([1_500_000.0, 1_500_000.0]), now=1.0)
        assert all(c.alpha_bps < 20_000.0 for c in controllers)

    def test_per_flow_loops_steer_flows_independently(self):
        meta, controllers, _ = _bound_meta()
        rates = [500_000.0, 1_500_000.0]  # flow0 low, flow1 high
        meta.step(_obs(rates), now=0.0)
        meta.step(_obs(rates), now=1.0)
        assert controllers[0].alpha_bps > 20_000.0
        assert controllers[1].alpha_bps < 20_000.0

    def test_gating_throttles_adjustments(self):
        meta, controllers, _ = _bound_meta()
        for i in range(10):
            meta.step(_obs([500_000.0, 500_000.0]), now=i * 0.03)
        # 0.27s elapsed with a 0.24s interval: at most one adjustment
        # per loop (rate records one entry covering both flows).
        assert len(meta.backend.history("rate")) <= 1

    def test_reset_restores_baselines(self):
        meta, controllers, gammas = _bound_meta()
        meta.step(_obs([500_000.0, 500_000.0], loss=0.5), now=0.0)
        meta.step(_obs([500_000.0, 500_000.0], loss=0.5), now=1.0)
        assert controllers[0].alpha_bps != 20_000.0
        log_size = len(meta.backend)
        meta.reset()
        assert all(c.alpha_bps == 20_000.0 for c in controllers)
        assert all(g.sigma == 0.5 for g in gammas)
        # audit log survives a reset
        assert len(meta.backend) == log_size

    def test_disabled_loops_do_nothing(self):
        config = MetaControllerConfig(tune_rate=False, tune_gamma=False)
        meta, controllers, gammas = _bound_meta(config=config)
        for i in range(5):
            meta.step(_obs([500_000.0, 500_000.0], loss=0.4),
                      now=float(i))
        assert meta.adjustments == 0
        assert controllers[0].alpha_bps == 20_000.0
        assert gammas[0].sigma == 0.5

    def test_rate_count_mismatch_falls_back_to_population_error(self):
        meta, controllers, _ = _bound_meta(n_flows=2)
        obs = _obs([500_000.0])  # one rate, two controllers
        meta.step(obs, now=0.0)
        meta.step(obs, now=1.0)
        # both flows still adjusted, driven by the population error
        assert all(c.alpha_bps > 20_000.0 for c in controllers)

    def test_seeded_random_walk_never_escapes_stability(self):
        """>=20 random observation steps: after every adjustment the
        tuned plane still satisfies the paper's stability lemmas."""
        rng = random.Random(1234)
        meta, controllers, gammas = _bound_meta()
        for i in range(25):
            rates = [rng.uniform(1e4, 3e6) for _ in range(2)]
            loss = rng.uniform(-0.2, 0.9)
            meta.step(_obs(rates, loss=loss,
                           gammas=(rng.uniform(0.0, 1.0),)),
                      now=i * 0.5)
            for ctl, g in zip(controllers, gammas):
                verdict = check_tuned_stability(controller=ctl, gamma=g)
                assert verdict.ok, str(verdict)
        assert meta.adjustments > 0


class TestMetaControllerInSimulation:
    def test_untuned_scenario_has_no_meta(self):
        sim = PelsSimulation(PelsScenario(n_flows=2, duration=2.0,
                                          seed=3)).run()
        assert sim.meta is None

    def test_tuned_scenario_steps_every_epoch(self):
        scenario = PelsScenario(n_flows=2, duration=6.0, seed=3,
                                meta_controller=MetaControllerConfig())
        sim = PelsSimulation(scenario).run()
        assert sim.meta is not None
        assert sim.meta.steps > 100
        assert sim.meta.adjustments > 0
        # every applied parameter stayed inside the envelopes
        for src in sim.sources:
            verdict = check_tuned_stability(
                controller=src.controller, gamma=src.gamma_controller,
                queue_config=scenario.queue)
            assert verdict.ok, str(verdict)

    def test_tuned_run_is_deterministic(self):
        def fingerprint():
            scenario = PelsScenario(
                n_flows=2, duration=4.0, seed=5,
                meta_controller=MetaControllerConfig())
            sim = PelsSimulation(scenario).run()
            return (sim.sim.events_dispatched, sim.meta.adjustments,
                    sim.meta.backend.history(),
                    [list(src.rate_series) for src in sim.sources])

        assert fingerprint() == fingerprint()

    def test_meta_reset_restores_paper_parameters_mid_run(self):
        scenario = PelsScenario(n_flows=2, duration=4.0, seed=5,
                                meta_controller=MetaControllerConfig())
        sim = PelsSimulation(scenario).run()
        sim.meta.reset()
        for src in sim.sources:
            assert src.controller.alpha_bps == scenario.alpha_bps
            assert src.gamma_controller.sigma == scenario.sigma


# ---------------------------------------------------------------------------
# ParetoBurstSource (LRD cross traffic)
# ---------------------------------------------------------------------------

def _lrd_sim(duration=30.0, seed=9, **kwargs):
    from repro.sim.topology import build_barbell
    sim = Simulator(seed=seed)
    barbell = build_barbell(sim)
    src = ParetoBurstSource(sim, barbell.sources[0], barbell.sinks[0],
                            flow_id=77, **kwargs)
    sim.run(until=duration)
    return src


class TestParetoBurstSource:
    def test_rejects_non_heavy_tail_shape(self):
        from repro.sim.topology import build_barbell
        sim = Simulator(seed=1)
        barbell = build_barbell(sim)
        with pytest.raises(ValueError):
            ParetoBurstSource(sim, barbell.sources[0], barbell.sinks[0],
                              flow_id=1, shape=1.0)

    def test_alternates_bursts_and_sends_packets(self):
        src = _lrd_sim()
        assert src.bursts >= 2
        assert src.packets_sent > 0

    def test_long_run_mean_tracks_duty_cycle(self):
        src = _lrd_sim(duration=120.0, peak_rate_bps=4_000_000.0,
                       mean_burst_s=0.2, mean_idle_s=0.2)
        # heavy-tailed: generous tolerance, but the duty cycle should
        # show through at this horizon
        assert src.mean_rate_bps() == pytest.approx(2_000_000.0,
                                                    rel=0.45)

    def test_deterministic_under_seed(self):
        a = _lrd_sim(duration=20.0, seed=17)
        b = _lrd_sim(duration=20.0, seed=17)
        assert (a.packets_sent, a.bursts) == (b.packets_sent, b.bursts)

    def test_lrd_scenario_wires_cross_source(self):
        scenario = PelsScenario(n_flows=2, duration=2.0, seed=3,
                                cross_traffic="lrd")
        sim = PelsSimulation(scenario).run()
        assert sim.lrd_source is not None
        assert sim.lrd_source.packets_sent > 0
