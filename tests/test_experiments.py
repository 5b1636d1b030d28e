"""Tests for the experiment harness: every artifact regenerates and its
headline numbers land in the paper's bands (fast-mode runs)."""

from __future__ import annotations

import pytest

from repro.experiments import (ablations, bursts_exp, closed_loop_be,
                               deadlines, fec_comparison, fig2, fig5, fig7,
                               fig8, fig9, fig10, heterogeneous, multihop,
                               rd_smoothing, table1)
from repro.experiments.common import ExperimentResult, check, format_table
from repro.experiments.runner import EXPERIMENTS, run_all


class TestCommon:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [10, 0.001]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all("|" in line for line in (lines[0], lines[2], lines[3]))

    def test_check_records_metric_and_note(self):
        result = ExperimentResult("X", "test")
        ok = check(result, "m", measured=1.0, expected=1.05, rel_tol=0.1)
        assert ok
        assert result.metrics["m"] == 1.0
        assert "OK" in result.notes[0]

    def test_check_flags_divergence(self):
        result = ExperimentResult("X", "test")
        assert not check(result, "m", measured=2.0, expected=1.0,
                         rel_tol=0.1)
        assert "DIVERGES" in result.notes[0]

    def test_render_contains_id_and_tables(self):
        result = ExperimentResult("X", "demo")
        result.add_table(["h"], [[1]])
        assert "X: demo" in result.render()


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self):
        return table1.run(fast=True)

    def test_three_rows(self, result):
        assert result.metrics["model_H100_p0.01"] == pytest.approx(62.76,
                                                                   abs=0.01)

    def test_simulation_matches_model(self, result):
        for loss in (0.0001, 0.01, 0.1):
            sim_v = result.metrics[f"sim_H100_p{loss}"]
            model_v = result.metrics[f"model_H100_p{loss}"]
            assert sim_v == pytest.approx(model_v, rel=0.05)

    def test_no_divergence(self, result):
        assert not any("DIVERGES" in n for n in result.notes)

    def test_full_monte_carlo_reaches_the_papers_rows(self):
        result = table1.run(fast=False)
        for _, loss, paper_sim, _ in table1.PAPER_ROWS:
            assert result.metrics[f"sim_H100_p{loss}"] == pytest.approx(
                paper_sim, rel=0.02)


class TestFig2:
    @pytest.fixture(scope="class")
    def result(self):
        return fig2.run(fast=True)

    def test_saturation_at_nine(self, result):
        assert result.metrics["saturation_level"] == pytest.approx(9.0,
                                                                   rel=0.01)

    def test_optimal_dominates_best_effort(self, result):
        be = result.series["best_effort_useful"]
        opt = result.series["optimal_useful"]
        assert all(o >= b - 1e-9 for o, b in zip(opt, be))

    def test_utility_monotone_decreasing(self, result):
        util = result.series["best_effort_utility"]
        assert all(a >= b for a, b in zip(util, util[1:]))

    def test_full_range_shape(self):
        """Best-effort saturates at (1-p)/p = 9 while optimal grows
        linearly (900 at H = 1000); utility at H = 100 is the paper's
        0.1."""
        result = fig2.run(fast=False)
        assert result.metrics["utility_at_100"] == pytest.approx(
            0.1, abs=0.002)
        assert result.series["optimal_useful"][-1] / \
            result.series["best_effort_useful"][-1] == pytest.approx(
                100.0, rel=0.05)


class TestFig5:
    @pytest.fixture(scope="class")
    def result(self):
        return fig5.run(fast=True)

    def test_stable_sigma_converges(self, result):
        assert result.metrics["fixed_point_sigma_0.5"] == pytest.approx(
            2 / 3, rel=0.02)

    def test_unstable_sigma_diverges(self, result):
        assert result.metrics["divergence_sigma_3.0"] > 100

    def test_full_run_fixed_points(self):
        """Every stable gain, and the delayed controller (Lemma 3),
        reaches the same fixed point."""
        result = fig5.run(fast=False)
        for sigma in (0.5, 1.5):
            assert result.metrics[f"fixed_point_sigma_{sigma}"] == \
                pytest.approx(2 / 3, rel=0.01)
        assert result.metrics["delayed_sigma_0.5_final"] == pytest.approx(
            2 / 3, rel=0.05)


@pytest.mark.slow
class TestFig7:
    @pytest.fixture(scope="class")
    def result(self):
        return fig7.run(fast=True)

    def test_loss_operating_points(self, result):
        assert result.metrics["virtual_loss_n4"] == pytest.approx(0.074,
                                                                  rel=0.12)
        assert result.metrics["virtual_loss_n8"] == pytest.approx(0.138,
                                                                  rel=0.12)

    def test_red_loss_pins_at_pthr(self, result):
        for n in (4, 8):
            assert result.metrics[f"red_loss_n{n}"] == pytest.approx(
                0.75, abs=0.1)

    def test_yellow_green_protected(self, result):
        for n in (4, 8):
            assert result.metrics[f"yellow_drops_n{n}"] == 0
            assert result.metrics[f"green_drops_n{n}"] == 0

    def test_gamma_tracks_loss_over_pthr(self, result):
        for n in (4, 8):
            assert result.metrics[f"gamma_n{n}"] == pytest.approx(
                result.metrics[f"virtual_loss_n{n}"] / 0.75, rel=0.15)


@pytest.mark.slow
class TestFig8And9:
    @pytest.fixture(scope="class")
    def f8(self):
        return fig8.run(fast=True)

    @pytest.fixture(scope="class")
    def f9(self):
        return fig9.run(fast=True)

    def test_green_below_yellow(self, f8):
        assert f8.metrics["green_delay_ms"] < f8.metrics["yellow_delay_ms"]
        assert f8.metrics["green_below_yellow"] == 1.0

    def test_green_queueing_is_milliseconds(self, f8):
        assert 0 < f8.metrics["green_queueing_ms"] < 20
        assert 0 < f8.metrics["yellow_queueing_ms"] < 60

    def test_red_delays_dominate(self, f9):
        assert f9.metrics["red_over_green"] > 5
        assert 50 < f9.metrics["red_delay_ms"] < 2000

    def test_mkc_convergence_and_fairness(self, f9):
        assert f9.metrics["rate_f1"] == pytest.approx(1.04e6, rel=0.12)
        assert f9.metrics["rate_f2"] == pytest.approx(1.04e6, rel=0.12)
        assert f9.metrics["fairness_ratio"] > 0.85

    def test_solo_flow_claims_capacity(self, f9):
        assert f9.metrics["solo_rate"] == pytest.approx(2.04e6, rel=0.12)


@pytest.mark.slow
class TestFig10:
    @pytest.fixture(scope="class")
    def result(self):
        return fig10.run(fast=True)

    def test_measured_loss_hits_targets(self, result):
        assert result.metrics["measured_loss_p10"] == pytest.approx(
            0.10, rel=0.15)
        assert result.metrics["measured_loss_p19"] == pytest.approx(
            0.19, rel=0.15)

    def test_improvement_ordering(self, result):
        """PELS >> best-effort > base at both loss levels (paper's
        central quality result), each near the paper's percentages."""
        for key, paper_be, paper_pels in (("p10", 24.0, 60.0),
                                          ("p19", 16.0, 55.0)):
            pels = result.metrics[f"pels_improvement_{key}"]
            be = result.metrics[f"be_improvement_{key}"]
            assert pels > 2 * be > 0
            assert pels == pytest.approx(paper_pels, rel=0.35)
            assert be == pytest.approx(paper_be, rel=0.45)

    def test_pels_multiple_of_best_effort(self, result):
        assert result.metrics["pels_over_be_p10"] > 2.0
        assert result.metrics["pels_over_be_p19"] > 3.0

    def test_network_induced_fluctuation(self, result):
        """Best-effort quality swings (paper: ~15 dB); PELS stays smooth."""
        for key in ("p10", "p19"):
            assert result.metrics[f"be_gain_fluctuation_{key}"] > \
                2 * result.metrics[f"pels_gain_fluctuation_{key}"]
            assert result.metrics[f"be_gain_fluctuation_{key}"] > 8

    def test_scenario_alpha_solves_for_target_loss(self):
        from repro.cc.mkc import mkc_equilibrium_loss
        scenario = fig10.loss_targeted_scenario(0.15, duration=10.0)
        implied = mkc_equilibrium_loss(scenario.pels_capacity_bps(), 2,
                                       scenario.alpha_bps, scenario.beta)
        assert implied == pytest.approx(0.15, rel=1e-9)

    def test_best_effort_receptions_protect_base(self):
        from repro.video.decoder import FrameReception
        src = [FrameReception(frame_id=0, green_sent=21,
                              enhancement_sent=100)]
        out = fig10.best_effort_receptions(src, loss=0.3, seed=1)
        assert out[0].base_intact
        assert 40 < out[0].received_enhancement_count < 95


@pytest.mark.slow
class TestAblations:
    def test_sigma_sweep_settling_monotone_then_ringing(self):
        result = ablations.run_sigma_sweep(fast=True)
        assert result.metrics["settle_sigma_0.1"] > \
            result.metrics["settle_sigma_0.5"]
        assert result.metrics["settle_sigma_1.99"] > \
            result.metrics["settle_sigma_1.0"]

    def test_red_loss_follows_pthr(self):
        result = ablations.run_pthr_sweep(fast=True)
        for p_thr in (0.6, 0.75, 0.9):
            assert result.metrics[f"red_loss_pthr_{p_thr}"] == \
                pytest.approx(p_thr, abs=0.13)

    def test_wrr_share_tracks_weight(self):
        result = ablations.run_wrr_sweep(fast=True)
        for w in (0.25, 0.5, 0.75):
            assert result.metrics[f"share_w{w}"] == pytest.approx(
                w, abs=0.08)

    def test_red_buffer_scales_delay_not_loss(self):
        result = ablations.run_red_buffer_sweep(fast=True)
        assert result.metrics["red_delay_b48"] > \
            3 * result.metrics["red_delay_b3"]
        assert result.metrics["red_loss_b48"] == pytest.approx(
            result.metrics["red_loss_b3"], abs=0.15)

    def test_mkc_smoothest_controller(self):
        result = ablations.run_controller_comparison(fast=True)
        assert result.metrics["rate_cov_mkc"] < 0.1
        assert result.metrics["rate_cov_aimd"] > 0.2
        assert result.metrics["rate_cov_mkc"] < result.metrics["rate_cov_tfrc"]
        assert result.metrics["utilization_mkc"] > \
            result.metrics["utilization_aimd"]

    def test_two_priorities_lose_the_yellow_protection(self):
        result = ablations.run_two_priority(fast=True)
        assert result.metrics["utility_tri"] > 0.85
        assert result.metrics["utility_two"] < 0.5
        assert result.metrics["yellow_drops_tri"] == 0
        assert result.metrics["yellow_drops_two"] > 0

    def test_rate_survives_ack_loss_and_renegotiation(self):
        result = ablations.run_robustness(fast=True)
        assert result.metrics["rate_ackloss_0.6"] == pytest.approx(
            result.metrics["rate_ackloss_0.0"], rel=0.05)
        # ...and the flows re-converge after the share drops to 25%.
        assert result.metrics["rate_after_renegotiation"] == pytest.approx(
            540e3, rel=0.10)


@pytest.mark.slow
class TestExtensions:
    def test_x1_bottleneck_shift(self):
        result = multihop.run(fast=True)
        assert result.metrics["phase1_router_is_hop0"] == 1.0
        assert result.metrics["phase2_router_is_hop1"] == 1.0
        assert result.metrics["phase1_rate"] == pytest.approx(1.04e6,
                                                              rel=0.10)
        assert result.metrics["phase2_rate"] == pytest.approx(2.66e5,
                                                              rel=0.20)
        assert result.metrics["hop1_final_loss"] > \
            result.metrics["hop0_final_loss"]

    def test_x2_heterogeneous_delays_stay_fair(self):
        result = heterogeneous.run(fast=True)
        assert result.metrics["rtt_fairness"] > 0.9
        for flow in range(3):
            assert result.metrics[f"rate_flow{flow}"] == pytest.approx(
                7.067e5, rel=0.10)
            assert result.metrics[f"rate_cov_flow{flow}"] < 0.1

    def test_x3_rd_smoothing_trades_little_mean_for_flatness(self):
        result = rd_smoothing.run(fast=True)
        assert result.metrics["smoothed_std"] < \
            0.3 * result.metrics["pels_std"]
        assert result.metrics["smoothed_mean"] > \
            result.metrics["pels_mean"] - 1.5

    def test_x4_lemma1_predicts_the_red_network(self):
        result = closed_loop_be.run(fast=True)
        assert result.metrics["useful_packets"] > 0
        assert result.metrics["base_intact_ratio"] == 1.0
        assert not any("DIVERGES" in n for n in result.notes)

    def test_x5_droptail_bursts_red_does_not(self):
        result = bursts_exp.run(fast=True)
        assert result.metrics["burst_ratio"] > 2.5
        assert not any("DIVERGES" in n for n in result.notes)

    def test_x6_deadlines(self):
        result = deadlines.run(fast=True)
        assert result.metrics["yellow_ontime_100ms"] == 1.0
        assert result.metrics["retx_rtt400_budget300"] == 0.0

    def test_x7_pels_beats_fec_at_equal_bandwidth(self):
        result = fec_comparison.run(fast=False)
        for key in ("p2", "p5", "p10", "p19"):
            assert result.metrics[f"pels_useful_{key}"] > \
                result.metrics[f"fec_useful_{key}"]
        assert not any("DIVERGES" in n for n in result.notes)


class TestRunner:
    def test_registry_covers_all_artifacts(self):
        paper = {"T1", "F2", "F5", "F7", "F8", "F9", "F10"}
        extensions = {f"X{i}" for i in range(1, 8)} | \
            {"S1", "S2", "R1", "L1", "L2", "L3", "SV1"}
        assert set(EXPERIMENTS) == paper | extensions

    def test_run_all_single_selection(self):
        results = run_all(fast=True, only="T1")
        assert len(results) == 1
        assert results[0].experiment_id == "T1"
