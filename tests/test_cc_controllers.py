"""Unit tests for the congestion-control substrate (registry + controllers)."""

from __future__ import annotations

import pytest

from repro.cc.aimd import AimdController
from repro.cc.base import (RateController, available_controllers,
                           make_controller, register_controller)
from repro.cc.kelly import ClassicKellyController, KellyController
from repro.cc.mkc import (MkcController, mkc_equilibrium_loss,
                          mkc_stationary_rate)
from repro.cc.tfrc import TfrcController


class TestRegistry:
    def test_builtin_controllers_registered(self):
        names = available_controllers()
        for name in ("mkc", "kelly", "kelly-classic", "aimd", "tfrc"):
            assert name in names

    def test_make_controller(self):
        controller = make_controller("mkc", alpha_bps=1000.0)
        assert isinstance(controller, MkcController)
        assert controller.alpha_bps == 1000.0

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_controller("bogus")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_controller("mkc")(MkcController)

    def test_base_bounds_validation(self):
        with pytest.raises(ValueError):
            RateController(initial_rate_bps=0)
        with pytest.raises(ValueError):
            RateController(initial_rate_bps=100.0, min_rate_bps=200.0)

    def test_reset_clamps(self):
        c = MkcController(min_rate_bps=1000.0, max_rate_bps=2000.0,
                          initial_rate_bps=1500.0)
        c.reset(10.0)
        assert c.rate_bps == 1000.0


class TestMkc:
    def test_single_step_matches_eq8(self):
        c = MkcController(alpha_bps=20_000.0, beta=0.5, feedback_delay=0.0,
                          initial_rate_bps=1_000_000.0)
        c.on_feedback(0.1, now=1.0)
        # r + a - b r p = 1e6 + 2e4 - 0.5 * 1e6 * 0.1 = 970 000
        assert c.rate_bps == pytest.approx(970_000.0)

    def test_no_loss_grows_additively(self):
        c = MkcController(alpha_bps=20_000.0, beta=0.5, feedback_delay=0.0,
                          initial_rate_bps=100_000.0)
        c.on_feedback(0.0, now=1.0)
        assert c.rate_bps == pytest.approx(120_000.0)

    def test_converges_to_fixed_point(self):
        """Under constant loss p, r -> alpha / (beta p) (no oscillation)."""
        c = MkcController(alpha_bps=20_000.0, beta=0.5, feedback_delay=0.0,
                          initial_rate_bps=100_000.0, max_rate_bps=1e8)
        for k in range(500):
            c.on_feedback(0.05, now=float(k))
        assert c.rate_bps == pytest.approx(20_000.0 / (0.5 * 0.05), rel=1e-3)

    def test_monotone_approach_no_overshoot(self):
        """Lemma 6: MKC has no steady-state oscillation."""
        c = MkcController(alpha_bps=20_000.0, beta=0.5, feedback_delay=0.0,
                          initial_rate_bps=100_000.0, max_rate_bps=1e8)
        rates = []
        for k in range(200):
            rates.append(c.on_feedback(0.05, now=float(k)))
        fixed = 20_000.0 / (0.5 * 0.05)
        assert all(r2 >= r1 or r1 <= fixed * 1.001
                   for r1, r2 in zip(rates, rates[1:]))
        assert max(rates) <= fixed * 1.001

    def test_delayed_reference_uses_old_rate(self):
        """Eq. (8) steps from r(k-D), not the current rate."""
        c = MkcController(alpha_bps=10_000.0, beta=0.5, feedback_delay=1.0,
                          initial_rate_bps=100_000.0)
        c.on_feedback(0.0, now=0.0)   # references initial rate
        r1 = c.rate_bps               # 110 000
        c.on_feedback(0.0, now=0.5)   # still references the t<=-0.5 rate
        assert c.rate_bps == pytest.approx(r1)
        c.on_feedback(0.0, now=1.5)   # now references r(0.0) = 110 000
        assert c.rate_bps == pytest.approx(120_000.0)

    def test_delayed_convergence_stable(self):
        """Lemma 5: stability is delay-independent for 0 < beta < 2."""
        c = MkcController(alpha_bps=20_000.0, beta=1.9, feedback_delay=0.5,
                          initial_rate_bps=100_000.0, max_rate_bps=1e8)
        for k in range(4000):
            c.on_feedback(0.05, now=k * 0.03)
        assert c.rate_bps == pytest.approx(20_000.0 / (1.9 * 0.05), rel=0.02)

    def test_beta_stability_enforced(self):
        with pytest.raises(ValueError):
            MkcController(beta=2.5)
        MkcController(beta=2.5, enforce_stability=False)  # opt-out works

    @pytest.mark.parametrize("enforce", [True, False])
    @pytest.mark.parametrize("gain", ["alpha_bps", "beta"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
    def test_gains_must_be_positive_and_finite(self, enforce, gain, value):
        """The stability opt-out relaxes Lemma 5's upper bound only: a
        NaN, infinite or non-positive gain is refused either way."""
        with pytest.raises(ValueError):
            MkcController(enforce_stability=enforce, **{gain: value})

    @pytest.mark.parametrize("delay", [float("nan"), float("inf"), -0.01])
    def test_feedback_delay_must_be_finite_and_non_negative(self, delay):
        """A NaN age used to construct, and every step then found no
        history entry old enough and answered the same rate."""
        with pytest.raises(ValueError):
            MkcController(feedback_delay=delay)
        MkcController(feedback_delay=0.0)  # no lag is a real age

    def test_rate_clamped_to_bounds(self):
        c = MkcController(alpha_bps=20_000.0, beta=0.5, feedback_delay=0.0,
                          initial_rate_bps=100_000.0, max_rate_bps=110_000.0)
        c.on_feedback(0.0, now=0.0)
        assert c.rate_bps == 110_000.0
        c.on_feedback(1.0, now=1.0)
        assert c.rate_bps >= c.min_rate_bps

    def test_stationary_rate_lemma6(self):
        assert mkc_stationary_rate(2e6, 2, 20e3, 0.5) == pytest.approx(1.04e6)
        assert mkc_stationary_rate(2e6, 4, 20e3, 0.5) == pytest.approx(540e3)

    def test_equilibrium_loss(self):
        # 4 flows: 160k / 2.16M ~ 7.4%; 8 flows: 320k / 2.32M ~ 13.8%
        assert mkc_equilibrium_loss(2e6, 4, 20e3, 0.5) == pytest.approx(
            0.0741, abs=1e-3)
        assert mkc_equilibrium_loss(2e6, 8, 20e3, 0.5) == pytest.approx(
            0.1379, abs=1e-3)

    def test_equilibrium_consistency(self):
        """r* and p* satisfy the Eq. (8) fixed point a = b r* p*."""
        c, n, a, b = 2e6, 5, 20e3, 0.5
        r_star = mkc_stationary_rate(c, n, a, b)
        p_star = mkc_equilibrium_loss(c, n, a, b)
        assert a == pytest.approx(b * r_star * p_star, rel=1e-9)


class TestKelly:
    def test_moves_toward_stationary_point(self):
        c = KellyController(alpha_bps_per_s=100_000.0, beta_per_s=5.0,
                            initial_rate_bps=100_000.0, max_rate_bps=1e8)
        for k in range(1, 3000):
            c.on_feedback(0.05, now=k * 0.03)
        assert c.rate_bps == pytest.approx(c.stationary_rate(0.05), rel=0.05)

    def test_stationary_rate_no_loss_is_max(self):
        c = KellyController(max_rate_bps=5e6)
        assert c.stationary_rate(0.0) == 5e6

    def test_first_feedback_has_zero_dt(self):
        c = KellyController(initial_rate_bps=100_000.0)
        assert c.on_feedback(0.5, now=10.0) == 100_000.0

    def test_classic_kelly_fixed_point(self):
        c = ClassicKellyController(kappa=0.5, willingness_bps=20_000.0,
                                   initial_rate_bps=100_000.0,
                                   max_rate_bps=1e8)
        for k in range(800):
            c.on_feedback(0.05, now=float(k))
        assert c.rate_bps == pytest.approx(20_000.0 / 0.05, rel=1e-3)

    def test_gain_validation(self):
        with pytest.raises(ValueError):
            KellyController(alpha_bps_per_s=0)
        with pytest.raises(ValueError):
            ClassicKellyController(kappa=0)


class TestAimd:
    def test_additive_increase(self):
        c = AimdController(increase_bps=10_000.0, initial_rate_bps=100_000.0)
        c.on_feedback(0.0, now=0.0)
        assert c.rate_bps == 110_000.0

    def test_multiplicative_decrease(self):
        c = AimdController(decrease_factor=0.5, initial_rate_bps=100_000.0)
        c.on_feedback(0.2, now=0.0)
        assert c.rate_bps == 50_000.0
        assert c.backoffs == 1

    def test_sawtooth_oscillates(self):
        """AIMD never settles — the paper's complaint in Section 5."""
        c = AimdController(increase_bps=10_000.0, decrease_factor=0.5,
                           initial_rate_bps=100_000.0)
        rates = [c.on_feedback(0.1 if k % 5 == 4 else 0.0, now=float(k))
                 for k in range(100)]
        tail = rates[-20:]
        assert max(tail) / min(tail) > 1.2

    def test_loss_threshold(self):
        c = AimdController(loss_threshold=0.05, initial_rate_bps=100_000.0)
        c.on_feedback(0.04, now=0.0)
        assert c.backoffs == 0
        c.on_feedback(0.06, now=1.0)
        assert c.backoffs == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            AimdController(increase_bps=0)
        with pytest.raises(ValueError):
            AimdController(decrease_factor=1.5)


class TestTfrc:
    def test_rate_decreases_with_loss(self):
        c = TfrcController(initial_rate_bps=500_000.0, max_rate_bps=1e8)
        low = TfrcController(initial_rate_bps=500_000.0, max_rate_bps=1e8)
        for k in range(50):
            c.on_feedback(0.01, now=float(k))
            low.on_feedback(0.10, now=float(k))
        assert c.rate_bps > low.rate_bps

    def test_equation_value(self):
        c = TfrcController(packet_size_bytes=500, rtt=0.04,
                           loss_smoothing=1.0, max_rate_bps=1e9)
        c.on_feedback(0.04, now=0.0)
        # 1.22 * 4000 / (0.04 * 0.2) = 610 000
        assert c.rate_bps == pytest.approx(610_000.0, rel=1e-6)

    def test_no_loss_probes_upward(self):
        c = TfrcController(initial_rate_bps=100_000.0)
        c.on_feedback(0.0, now=0.0)
        assert c.rate_bps == pytest.approx(110_000.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TfrcController(rtt=0)
        with pytest.raises(ValueError):
            TfrcController(loss_smoothing=0)
