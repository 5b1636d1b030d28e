"""Recovery behaviour under control-plane faults, in real simulations.

Drives the Section 5.2 staleness machinery end to end: a router restart
(epoch counter wiped) makes every flow discard the reborn router's
labels as stale, trip its feedback-starvation watchdog, re-adopt the
new epoch clock, and re-converge MKC to the Lemma 6 equilibrium.  A
restart onto a *new* router id is the bottleneck-shift case and must be
adopted immediately, with no blind episode at all.
"""

from __future__ import annotations

import pytest

from repro.cc.mkc import mkc_stationary_rate
from repro.core.report import build_report
from repro.core.session import PelsScenario, PelsSimulation
from repro.faults import Callback, FaultSchedule, RouterRestart

T_FAULT = 10.0
DURATION = 22.0


def _simulate(new_router_id=None, feedback_timeout=1.0):
    scenario = PelsScenario(n_flows=2, duration=DURATION, seed=4,
                            feedback_timeout=feedback_timeout)
    sim = PelsSimulation(scenario)
    stale_before = []
    (FaultSchedule()
     .add(T_FAULT, Callback(
         lambda: stale_before.extend(
             src.tracker.stale_discarded for src in sim.sources),
         label="probe:stale"))
     .add(T_FAULT, RouterRestart(sim.feedback,
                                 new_router_id=new_router_id))
     ).install(sim.sim)
    sim.run()
    return sim, stale_before


def _r_star(sim: PelsSimulation) -> float:
    s = sim.scenario
    return mkc_stationary_rate(s.pels_capacity_bps(), s.n_flows,
                               s.alpha_bps, s.beta)


class TestRestartSameRouter:
    """Epoch wipe on the same box: the hard case the watchdog exists for."""

    @pytest.fixture(scope="class")
    def run(self):
        return _simulate()

    def test_every_flow_discards_stale_labels(self, run):
        sim, stale_before = run
        for i, src in enumerate(sim.sources):
            assert src.tracker.stale_discarded - stale_before[i] >= 1

    def test_every_flow_goes_blind_once_and_recovers(self, run):
        sim, _ = run
        for src in sim.sources:
            assert src.rate_freezes == 1
            assert src.recoveries == 1
            assert not src.blind

    def test_tracker_adopts_the_wrapped_epoch_clock(self, run):
        sim, _ = run
        # The feedback epoch restarted from zero at T_FAULT; after
        # recovery the trackers follow the *new* (small) clock, not the
        # large pre-crash one.
        assert sim.feedback.epoch < (DURATION - T_FAULT) / 0.030 + 2
        for src in sim.sources:
            assert src.tracker.router_id == sim.feedback.router_id
            assert 0 < src.tracker.epoch <= sim.feedback.epoch

    def test_mkc_reenters_equilibrium_within_bounded_epochs(self, run):
        sim, _ = run
        r_star = _r_star(sim)
        interval = sim.scenario.feedback_interval
        budget_epochs = 250  # detection (~60 epochs) + MKC climb-back
        deadline = T_FAULT + budget_epochs * interval
        assert deadline < DURATION - 3.0  # leave a real tail to average
        for src in sim.sources:
            tail = src.rate_series.mean(deadline, float("inf"))
            assert tail == pytest.approx(r_star, rel=0.02)

    def test_report_surfaces_the_robustness_counters(self, run):
        sim, _ = run
        report = build_report(sim.view)
        for flow in report.flows:
            assert flow.stale_discarded >= 1
            assert flow.rate_freezes == 1
            assert flow.blind_intervals >= 1
        text = report.render()
        assert "stale=" in text and "freezes=" in text

    def test_fault_free_report_has_no_robustness_line(self):
        scenario = PelsScenario(n_flows=1, duration=6.0, seed=4,
                                feedback_timeout=1.0)
        sim = PelsSimulation(scenario).run()
        assert "stale=" not in build_report(sim.view).render()


class TestRestartNewRouterId:
    """Takeover by a different box: labels adopted on first sight."""

    def test_new_router_id_is_adopted_without_blindness(self):
        sim, _ = _simulate(new_router_id=4242)
        for src in sim.sources:
            assert src.tracker.router_id == 4242
            # The router_id change bypasses the epoch comparison, so
            # fresh labels flow immediately (in-flight old-id labels
            # cause only a transient mix) and the watchdog never trips.
            assert src.rate_freezes == 0
            assert src.blind_intervals == 0
        r_star = _r_star(sim)
        for src in sim.sources:
            tail = src.rate_series.mean(T_FAULT + 5.0, float("inf"))
            assert tail == pytest.approx(r_star, rel=0.02)


class TestWithoutWatchdog:
    def test_restart_without_timeout_starves_the_flows(self):
        # Control case: with the starvation handling disabled (the
        # legacy default) a same-id restart deadlocks the freshness
        # filter until the reborn router's epoch clock *catches up*
        # with the stale stored one — here ~10 s of open-loop running
        # (exactly as long as the pre-fault uptime) vs the watchdog's
        # ~1.7 s detection-plus-resync.
        sim, stale_before = _simulate(feedback_timeout=None)
        for i, src in enumerate(sim.sources):
            assert src.rate_freezes == 0  # watchdog disabled
            assert src.tracker.stale_discarded - stale_before[i] > 100
            # No fresh sample arrives until the epoch clock catches up.
            assert not src.loss_series.window(T_FAULT + 1.0, T_FAULT + 9.0)
