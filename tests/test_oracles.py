"""Property-based paper-oracle conformance suite.

Every property draws >= 20 randomized-but-valid configurations from a
seeded stdlib ``random.Random`` (no extra dependencies) and checks the
measured behaviour against the paper's closed forms via the verdict
helpers in :mod:`repro.analysis.oracles`:

* Lemma 6 — ``r* = C/N + alpha/beta`` (fluid runs and the packet sim)
* Lemma 4 — the implied red-queue loss ``p_R = p / gamma`` converges
  to ``p_thr`` (iterated Eq. 4 and congested fluid runs)
* Lemma 2-3 — Eq. 4 is stable iff ``0 < sigma < 2`` (both regimes,
  with and without feedback delay)
* Eq. 2/3 — useful-packet and utility closed forms vs brute force
* Eq. 6 — the PELS bound's identity, range and asymptotic dominance

A failing property prints the violating verdicts (with measured vs
expected numbers and the drawn configuration), not a bare assert.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.oracles import (check_eq2_identity, check_eq3_identity,
                                    check_eq6_bound, check_gamma_stability,
                                    check_lemma4_fixed_point,
                                    check_lemma4_fluid, check_lemma6_fluid,
                                    check_lemma6_rates, draw_fluid_scenario,
                                    draw_gamma_config, draw_loss_horizon,
                                    run_fluid, violations)
from repro.core.gamma import gamma_fixed_point

#: Drawn configurations per property (the issue floor is 20).
N_DRAWS = 20


def _assert_all_ok(verdicts) -> None:
    bad = violations(verdicts)
    assert not bad, "\n".join(str(v) for v in bad)


class TestDraws:
    """The draw helpers themselves produce valid, seeded configs."""

    def test_draws_are_seed_reproducible(self):
        a = [draw_gamma_config(random.Random(5), stable=True)
             for _ in range(N_DRAWS)]
        b = [draw_gamma_config(random.Random(5), stable=True)
             for _ in range(N_DRAWS)]
        assert a == b

    def test_congested_draw_puts_gamma_star_in_band(self):
        rng = random.Random(21)
        for _ in range(N_DRAWS):
            s = draw_fluid_scenario(rng, duration=10.0, congested=True)
            gamma_star = s.equilibrium_loss() / s.p_thr
            assert s.gamma_low < gamma_star < s.gamma_high

    def test_gamma_draw_respects_requested_regime(self):
        rng = random.Random(22)
        for _ in range(N_DRAWS):
            assert 0 < draw_gamma_config(rng, stable=True)["sigma"] < 2
            assert draw_gamma_config(rng, stable=False)["sigma"] >= 2


class TestLemma6:
    """r* = C/N + alpha/beta."""

    @pytest.mark.slow
    def test_fluid_equilibrium_matches_lemma6(self):
        rng = random.Random(601)
        verdicts = []
        for _ in range(N_DRAWS):
            scenario = draw_fluid_scenario(rng, duration=40.0)
            verdicts.append(check_lemma6_fluid(run_fluid(scenario)))
        _assert_all_ok(verdicts)

    def test_rates_check_flags_off_equilibrium_populations(self):
        rng = random.Random(602)
        for _ in range(N_DRAWS):
            s = draw_fluid_scenario(rng, duration=10.0)
            r_star = s.lemma6_rate_bps()
            good = check_lemma6_rates([r_star] * s.n_flows,
                                      s.capacities_bps[0], s.n_flows,
                                      s.alpha_bps, s.beta)
            bad = check_lemma6_rates([r_star * 1.5] * s.n_flows,
                                     s.capacities_bps[0], s.n_flows,
                                     s.alpha_bps, s.beta)
            assert good.ok, str(good)
            assert not bad.ok, str(bad)

    @pytest.mark.slow
    def test_packet_sim_converges_to_lemma6(self, converged_four_flow):
        # The packet sim carries header/feedback overheads the fluid
        # model abstracts away, hence the looser tolerance.
        sim = converged_four_flow
        s = sim.scenario
        verdict = check_lemma6_rates(
            sim.flow_rates_bps(), s.pels_capacity_bps(), s.n_flows,
            s.alpha_bps, s.beta, tol=0.15)
        assert verdict.ok, str(verdict)


class TestLemma4:
    """The implied red loss p / gamma converges to p_thr."""

    def test_fixed_point_reached_under_constant_loss(self):
        rng = random.Random(401)
        verdicts = []
        for _ in range(N_DRAWS):
            cfg = draw_gamma_config(rng, stable=True)
            verdicts.append(check_lemma4_fixed_point(
                cfg["sigma"], cfg["p_thr"], cfg["loss"],
                gamma0=cfg["gamma0"]))
        _assert_all_ok(verdicts)

    @pytest.mark.slow
    def test_congested_fluid_runs_drive_red_loss_to_p_thr(self):
        rng = random.Random(402)
        verdicts = []
        for _ in range(N_DRAWS):
            scenario = draw_fluid_scenario(rng, duration=40.0,
                                           congested=True)
            verdicts.append(check_lemma4_fluid(run_fluid(scenario)))
        _assert_all_ok(verdicts)


class TestLemma23Stability:
    """Eq. 4 converges iff 0 < sigma < 2."""

    def test_stable_sigmas_converge(self):
        rng = random.Random(231)
        verdicts = []
        for _ in range(N_DRAWS):
            cfg = draw_gamma_config(rng, stable=True)
            verdicts.append(check_gamma_stability(
                cfg["sigma"], cfg["p_thr"], cfg["loss"],
                gamma0=cfg["gamma0"]))
        _assert_all_ok(verdicts)

    def test_unstable_sigmas_do_not_contract(self):
        rng = random.Random(232)
        verdicts = []
        for _ in range(N_DRAWS):
            cfg = draw_gamma_config(rng, stable=False)
            verdicts.append(check_gamma_stability(
                cfg["sigma"], cfg["p_thr"], cfg["loss"],
                gamma0=cfg["gamma0"]))
        _assert_all_ok(verdicts)

    def test_delayed_iteration_matches_lemma3_when_well_inside_band(self):
        # Lemma 3's delay margin shrinks the stable band; sigma <= 0.5
        # stays stable for small delays, and sigma >= 2 never is.
        rng = random.Random(233)
        verdicts = []
        for _ in range(N_DRAWS):
            cfg = draw_gamma_config(rng, stable=True)
            sigma = min(cfg["sigma"], 0.5)
            delay = rng.randint(1, 3)
            verdicts.append(check_gamma_stability(
                sigma, cfg["p_thr"], cfg["loss"], gamma0=cfg["gamma0"],
                delay=delay, steps=600))
            unstable = draw_gamma_config(rng, stable=False)
            verdicts.append(check_gamma_stability(
                unstable["sigma"], unstable["p_thr"], unstable["loss"],
                gamma0=unstable["gamma0"], delay=delay))
        _assert_all_ok(verdicts)

    def test_fixed_point_is_gamma_star(self):
        rng = random.Random(234)
        for _ in range(N_DRAWS):
            cfg = draw_gamma_config(rng, stable=True)
            assert gamma_fixed_point(cfg["loss"], cfg["p_thr"]) == \
                pytest.approx(cfg["loss"] / cfg["p_thr"])


class TestClosedFormIdentities:
    """Eq. 2/3 closed forms vs brute force; Eq. 6 bound properties."""

    def test_eq2_matches_tail_sum(self):
        rng = random.Random(21_3)
        _assert_all_ok([check_eq2_identity(**draw_loss_horizon(rng))
                        for _ in range(N_DRAWS)])

    def test_eq3_matches_normalized_ey(self):
        rng = random.Random(31_3)
        _assert_all_ok([check_eq3_identity(**draw_loss_horizon(rng))
                        for _ in range(N_DRAWS)])

    def test_eq6_bound_identity_range_and_dominance(self):
        rng = random.Random(61_3)
        verdicts = []
        for _ in range(N_DRAWS):
            cfg = draw_gamma_config(rng, stable=True)
            verdicts.append(check_eq6_bound(cfg["loss"], cfg["p_thr"]))
        _assert_all_ok(verdicts)

    def test_eq6_bound_vanishes_at_threshold(self):
        rng = random.Random(62_3)
        for _ in range(N_DRAWS):
            p_thr = rng.uniform(0.3, 0.95)
            verdict = check_eq6_bound(p_thr, p_thr)
            assert verdict.ok, str(verdict)
            assert verdict.measured == pytest.approx(0.0, abs=1e-12)

    def test_eq6_bound_is_zero_above_threshold(self):
        """gamma* > 1: nothing is protected, the bound is 0, not negative."""
        rng = random.Random(63_3)
        for _ in range(N_DRAWS):
            p_thr = rng.uniform(0.3, 0.95)
            verdict = check_eq6_bound(rng.uniform(p_thr, 0.99), p_thr)
            assert verdict.ok, str(verdict)
            assert verdict.measured == 0.0


class TestVerdictDiagnostics:
    def test_violations_filters_failed_checks(self):
        good = check_eq2_identity(0.1, 10)
        bad = check_lemma6_rates([1.0], 2e6, 2, 20e3, 0.5)
        assert violations([good, bad]) == [bad]
        assert "VIOLATED" in str(bad)
        assert "OK" in str(good)
