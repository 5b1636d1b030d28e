"""Unit + property tests for the closed-form models (Lemmas 1-4, Eqs. 1-6)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.best_effort import (best_effort_utility,
                                        expected_useful_packets,
                                        expected_useful_packets_pmf,
                                        optimal_useful_packets,
                                        optimal_utility,
                                        useful_packets_saturation)
from repro.core.gamma import (gamma_fixed_point, is_stable_sigma,
                              iterate_gamma_delayed, pels_utility_lower_bound,
                              useful_packets_pels)


class TestExpectedUsefulPackets:
    @pytest.mark.parametrize("loss,expected", [
        (0.0001, 99.49), (0.01, 62.76), (0.1, 8.99)])
    def test_table1_values(self, loss, expected):
        assert expected_useful_packets(loss, 100) == pytest.approx(
            expected, abs=0.01)

    def test_zero_loss_limit(self):
        assert expected_useful_packets(0.0, 100) == 100.0

    def test_total_loss(self):
        assert expected_useful_packets(1.0, 100) == 0.0

    def test_zero_frame(self):
        assert expected_useful_packets(0.1, 0) == 0.0

    def test_saturates_at_geometric_mean(self):
        assert expected_useful_packets(0.1, 10_000) == pytest.approx(
            useful_packets_saturation(0.1))

    @given(loss=st.floats(0.001, 0.999), h=st.integers(1, 500))
    @settings(max_examples=200)
    def test_bounds_property(self, loss, h):
        ey = expected_useful_packets(loss, h)
        assert 0 <= ey <= h * (1 - loss) + 1e-9  # never beats optimal
        assert ey <= useful_packets_saturation(loss) + 1e-9

    @given(h=st.integers(1, 200))
    def test_monotone_in_frame_size(self, h):
        assert expected_useful_packets(0.1, h + 1) >= \
            expected_useful_packets(0.1, h)

    def test_pmf_reduces_to_constant_case(self):
        assert expected_useful_packets_pmf(0.1, {100: 1.0}) == pytest.approx(
            expected_useful_packets(0.1, 100))

    def test_pmf_mixture(self):
        mixed = expected_useful_packets_pmf(0.1, {50: 0.5, 150: 0.5})
        pure = 0.5 * expected_useful_packets(0.1, 50) \
            + 0.5 * expected_useful_packets(0.1, 150)
        assert mixed == pytest.approx(pure)

    def test_pmf_zero_loss(self):
        assert expected_useful_packets_pmf(0.0, {10: 0.5, 20: 0.5}) == 15.0

    def test_pmf_validation(self):
        with pytest.raises(ValueError):
            expected_useful_packets_pmf(0.1, {})
        with pytest.raises(ValueError):
            expected_useful_packets_pmf(0.1, {10: 0.5})
        with pytest.raises(ValueError):
            expected_useful_packets_pmf(0.1, {0: 1.0})

    def test_loss_validation(self):
        with pytest.raises(ValueError):
            expected_useful_packets(1.5, 10)
        with pytest.raises(ValueError):
            expected_useful_packets(0.1, -1)


class TestUtility:
    def test_paper_example(self):
        """U = 0.1 for p = 0.1, H = 100 (Section 3.1)."""
        assert best_effort_utility(0.1, 100) == pytest.approx(0.1, abs=0.001)

    def test_tends_to_one_for_small_frames(self):
        assert best_effort_utility(0.1, 1) == pytest.approx(1.0)

    def test_decays_inverse_in_h(self):
        u100 = best_effort_utility(0.1, 100)
        u1000 = best_effort_utility(0.1, 1000)
        assert u1000 == pytest.approx(u100 / 10, rel=0.05)

    def test_optimal_is_one(self):
        assert optimal_utility() == 1.0

    def test_optimal_useful(self):
        assert optimal_useful_packets(0.1, 100) == pytest.approx(90.0)

    @given(loss=st.floats(0.001, 0.999), h=st.integers(1, 300))
    @settings(max_examples=200)
    def test_utility_in_unit_interval(self, loss, h):
        assert 0 < best_effort_utility(loss, h) <= 1 + 1e-9


class TestPelsModel:
    def test_gamma_star(self):
        assert gamma_fixed_point(0.5, 0.75) == pytest.approx(2 / 3)

    def test_eq6_paper_values(self):
        """U >= 0.96 at p=0.1 and >= 0.996 at p=0.01 (p_thr = 0.75)."""
        assert pels_utility_lower_bound(0.1, 0.75) >= 0.96
        assert pels_utility_lower_bound(0.01, 0.75) >= 0.996

    def test_eq6_degenerate_when_gamma_saturates(self):
        """gamma* >= 1: nothing is protected; 0, not a negative bound."""
        for loss in (0.75, 0.8, 0.9):
            assert pels_utility_lower_bound(loss, 0.75) == 0.0

    def test_useful_packets_pels_beats_best_effort(self):
        """The 'ten times more useful packets' claim at p=0.1, H=100."""
        pels = useful_packets_pels(0.1, 0.75, 100)
        be = expected_useful_packets(0.1, 100)
        assert pels / be > 9

    @given(loss=st.floats(0.0, 0.7), p_thr=st.floats(0.71, 1.0))
    @settings(max_examples=200)
    def test_eq6_bound_is_a_probability(self, loss, p_thr):
        u = pels_utility_lower_bound(loss, p_thr)
        assert 0 <= u <= 1 + 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            gamma_fixed_point(0.5, 0.0)
        with pytest.raises(ValueError):
            pels_utility_lower_bound(1.0, 0.75)
        with pytest.raises(ValueError):
            useful_packets_pels(0.1, 0.75, -1)


class TestStability:
    """Lemmas 2-3 against the Eq. (5) iteration F5 runs."""

    def test_lemma2_range(self):
        assert not is_stable_sigma(0.0)
        assert is_stable_sigma(0.5)
        assert is_stable_sigma(1.99)
        assert not is_stable_sigma(2.0)
        assert not is_stable_sigma(3.0)

    def test_lemma3_delay_independent(self):
        """The range holds under every delay, as the iteration shows."""
        for delay in (1, 2, 5, 20):
            for sigma in (1.5, 2.5):
                gammas = iterate_gamma_delayed(sigma, 0.75, [0.3] * 1000,
                                               delay=delay, gamma0=0.9)
                settled = abs(gammas[-1] - 0.4) < 1e-3
                assert settled == is_stable_sigma(sigma), (sigma, delay)

    def test_iterate_stable_converges(self):
        gammas = iterate_gamma_delayed(0.5, 0.75, [0.3] * 200, delay=3,
                                       gamma0=0.05)
        assert gammas[-1] == pytest.approx(0.4, abs=1e-6)

    def test_iterate_unstable_diverges(self):
        """sigma = 3 is outside (0, 2): the error doubles every D steps."""
        gammas = iterate_gamma_delayed(3.0, 0.75, [0.3] * 60, delay=2,
                                       gamma0=0.1)
        assert abs(gammas[-1]) > 1e6

    @given(sigma=st.floats(0.01, 1.99), delay=st.integers(1, 8))
    @settings(max_examples=50)
    def test_gamma_recursion_stable_across_delays_property(self, sigma, delay):
        """Numerical confirmation of Lemma 3 over the stable gain range."""
        gammas = iterate_gamma_delayed(sigma, 0.75, [0.3] * 3000,
                                       delay=delay, gamma0=0.9)
        assert abs(gammas[-1] - 0.3 / 0.75) < 0.05
