"""Unit + property tests for the gamma controller (Eqs. 4-5) and the
closed forms beside it (Lemmas 2-4, Eq. 6)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gamma import (GammaController, gamma_fixed_point,
                              is_stable_sigma, iterate_gamma,
                              iterate_gamma_delayed, pels_utility_lower_bound)


class TestIterateGamma:
    def test_converges_to_fixed_point(self):
        gammas = iterate_gamma(0.5, 0.75, [0.5] * 50, gamma0=0.5)
        assert gammas[-1] == pytest.approx(0.5 / 0.75, rel=1e-4)

    def test_fig5_unstable_sigma3(self):
        gammas = iterate_gamma(3.0, 0.75, [0.5] * 30, gamma0=0.5)
        target = 0.5 / 0.75
        deviations = [abs(g - target) for g in gammas]
        # Oscillates divergently: deviation doubles each step (pole -2).
        assert deviations[-1] > 100 * deviations[1]

    def test_tracks_changing_loss(self):
        losses = [0.1] * 60 + [0.3] * 60
        gammas = iterate_gamma(0.5, 0.75, losses, gamma0=0.05)
        assert gammas[60] == pytest.approx(0.1 / 0.75, rel=0.01)
        assert gammas[-1] == pytest.approx(0.3 / 0.75, rel=0.01)

    def test_first_entry_is_initial_condition(self):
        assert iterate_gamma(0.5, 0.75, [0.1], gamma0=0.42)[0] == 0.42

    @given(sigma=st.floats(0.05, 1.95), loss=st.floats(0.0, 0.7),
           gamma0=st.floats(0.0, 1.0))
    @settings(max_examples=100)
    def test_lemma2_convergence_property(self, sigma, loss, gamma0):
        gammas = iterate_gamma(sigma, 0.75, [loss] * 2000, gamma0=gamma0)
        assert gammas[-1] == pytest.approx(loss / 0.75, abs=1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            iterate_gamma(0.5, 0.0, [0.1])


class TestIterateGammaDelayed:
    def test_lemma3_stable_under_delay(self):
        for delay in (1, 3, 10):
            gammas = iterate_gamma_delayed(0.5, 0.75, [0.5] * 400,
                                           delay=delay, gamma0=0.05)
            assert gammas[-1] == pytest.approx(0.5 / 0.75, rel=0.01)

    def test_unstable_sigma_diverges_with_delay(self):
        gammas = iterate_gamma_delayed(3.0, 0.75, [0.5] * 60, delay=3,
                                       gamma0=0.5)
        assert abs(gammas[-1]) > 1e3

    def test_delay_slows_convergence(self):
        fast = iterate_gamma_delayed(0.5, 0.75, [0.5] * 30, delay=1,
                                     gamma0=0.05)
        slow = iterate_gamma_delayed(0.5, 0.75, [0.5] * 30, delay=5,
                                     gamma0=0.05)
        target = 0.5 / 0.75
        assert abs(fast[-1] - target) < abs(slow[-1] - target)

    def test_validation(self):
        with pytest.raises(ValueError):
            iterate_gamma_delayed(0.5, 0.75, [0.1], delay=0)


class TestGammaController:
    def test_converges_under_constant_loss(self):
        ctrl = GammaController(sigma=0.5, p_thr=0.75, gamma0=0.5)
        for _ in range(100):
            ctrl.update(0.3)
        assert ctrl.gamma == pytest.approx(0.4, rel=1e-3)

    def test_clamped_to_low_bound_when_idle(self):
        """Fig. 7: gamma drops to gamma_low = 0.05 with no loss."""
        ctrl = GammaController(gamma0=0.5, gamma_low=0.05)
        for _ in range(100):
            ctrl.update(0.0)
        assert ctrl.gamma == 0.05

    def test_clamped_to_high_bound(self):
        ctrl = GammaController(gamma0=0.5, gamma_high=0.95)
        for _ in range(100):
            ctrl.update(5.0)
        assert ctrl.gamma == 0.95

    def test_negative_loss_treated_as_zero(self):
        """Signed Eq. 11 feedback must not crash the controller."""
        ctrl = GammaController(gamma0=0.5)
        ctrl.update(-0.3)
        assert ctrl.gamma < 0.5

    def test_lemma2_enforced_at_construction(self):
        with pytest.raises(ValueError):
            GammaController(sigma=2.5)
        GammaController(sigma=2.5, enforce_stability=False, gamma0=0.5)

    @pytest.mark.parametrize("enforce", [True, False])
    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), 0.0, -1.0])
    def test_sigma_must_be_positive_and_finite(self, enforce, sigma):
        with pytest.raises(ValueError):
            GammaController(sigma=sigma, enforce_stability=enforce)

    def test_expected_fixed_point_clamps(self):
        ctrl = GammaController(gamma_low=0.05, gamma_high=0.95)
        assert ctrl.expected_fixed_point(0.0) == 0.05
        assert ctrl.expected_fixed_point(0.3) == pytest.approx(0.4)
        assert ctrl.expected_fixed_point(0.9) == 0.95

    def test_update_counter(self):
        ctrl = GammaController()
        for _ in range(7):
            ctrl.update(0.1)
        assert ctrl.updates == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            GammaController(p_thr=0.0)
        with pytest.raises(ValueError):
            GammaController(gamma_low=0.5, gamma_high=0.4)
        with pytest.raises(ValueError):
            GammaController(gamma0=0.99, gamma_high=0.95)

    @given(loss=st.floats(0.0, 1.0))
    @settings(max_examples=100)
    def test_gamma_always_in_operational_band(self, loss):
        ctrl = GammaController()
        for _ in range(20):
            ctrl.update(loss)
            assert 0.05 <= ctrl.gamma <= 0.95


class TestUtilityBound:
    def test_matches_eq6(self):
        assert pels_utility_lower_bound(0.1, 0.75) == pytest.approx(
            (1 - 0.1 / 0.75) / 0.9)

    def test_stable_sigma_helper(self):
        assert is_stable_sigma(1.0)
        assert not is_stable_sigma(2.0)

    def test_fixed_point_helper(self):
        assert gamma_fixed_point(0.15, 0.75) == pytest.approx(0.2)
        with pytest.raises(ValueError):
            gamma_fixed_point(-0.1, 0.75)


class TestClosedFormDomain:
    """One domain for every closed form: loss in [0, 1], p_thr in (0, 1]."""

    @pytest.mark.parametrize("loss", [1.5, float("nan")])
    def test_fixed_point_rejects_loss_outside_unit_interval(self, loss):
        with pytest.raises(ValueError):
            gamma_fixed_point(loss, 0.75)
