"""Differential: the one session read-out vs the two it replaced.

``tests/frozen_readout.py`` is ``build_report`` and ``observe_epoch``
as they stood before the session view (never edit it).  Today's one
builder over ``sim.view`` must equal the frozen one on every field
whose rule did not change - rates, gamma, virtual loss and the theory
columns, drops, packet/frame and watchdog counters - and differ only in
the three fields whose warm-up rule was unified, each checked here
against the documented rule; today's one observation must equal the
frozen one field for field at every epoch, single- and multi-hop.
"""

from __future__ import annotations

import dataclasses
import statistics

import pytest

import frozen_readout
from repro.cc.mkc import mkc_stationary_rate
from repro.control import MetaControllerConfig
from repro.core.multihop import MultiHopPelsSimulation, MultiHopScenario
from repro.core.report import build_report
from repro.core.session import PelsScenario, PelsSimulation
from repro.faults.injectors import RouterRestart
from repro.faults.schedule import FaultSchedule
from repro.obs.monitor import observe_epoch
from repro.sim.packet import Color

#: Fields whose rule changed: utility and base-intact (which frames),
#: delays (which samples), red loss (which windows, and how pooled).
CHANGED_FLOW = {"mean_utility", "base_intact_ratio", "delays_ms"}
CHANGED_SESSION = {"red_loss", "flows"}


def same(a, b) -> bool:
    return a == b or (a != a and b != b)  # NaN == NaN here


def assert_agrees_with_frozen(sim: PelsSimulation, fraction: float):
    report = build_report(sim.view, warmup_fraction=fraction)
    frozen = frozen_readout.build_report(sim, warmup_fraction=fraction)
    for field in dataclasses.fields(report):
        if field.name not in CHANGED_SESSION:
            assert same(getattr(report, field.name),
                        getattr(frozen, field.name)), field.name
    assert len(report.flows) == len(frozen.flows) == sim.scenario.n_flows
    for row, old in zip(report.flows, frozen.flows):
        for field in dataclasses.fields(row):
            if field.name not in CHANGED_FLOW:
                assert same(getattr(row, field.name),
                            getattr(old, field.name)), field.name

    # The documented rule for the three that differ.
    now = sim.sim.now
    warmup = now * fraction
    for flow, row in enumerate(report.flows):
        frames = sim.frame_receptions(flow)
        tail = [r for r in frames[int(len(frames) * fraction):]
                if r.enhancement_sent]
        if tail:
            assert row.mean_utility == statistics.mean(
                r.utility() for r in tail)
            assert row.base_intact_ratio == statistics.mean(
                1.0 if r.base_intact else 0.0 for r in tail)
        else:
            assert row.mean_utility != row.mean_utility
        for color in (Color.GREEN, Color.YELLOW, Color.RED):
            probe = sim.sinks[flow].delay_probes[color]
            window = [d for t, d in probe.series if warmup <= t < now]
            if window:
                assert row.delays_ms[color.name.lower()] == pytest.approx(
                    1000 * sum(window) / len(window), rel=1e-12)
            else:
                assert color.name.lower() not in row.delays_ms
    return report, frozen


def run_noting_red_at(sim: PelsSimulation, warmup: float, end: float):
    """Run to ``end``, pausing at ``warmup`` to note the red counters."""
    sim.run(until=warmup)
    stats = sim.bottleneck_queue.red_queue.stats
    before = (stats.arrivals, stats.drops)
    sim.run(until=end)
    return (stats.drops - before[1]) / (stats.arrivals - before[0])


@pytest.mark.slow
class TestReportAgainstFrozen:
    def test_converged_four_flow(self, converged_four_flow):
        report, frozen = assert_agrees_with_frozen(converged_four_flow, 0.5)
        # 1 s loss windows of hundreds of arrivals: pooling by arrivals
        # moves red loss little - but the frozen [10:] frame rule took
        # utility from t ~ 6.6 s of a 60 s run, not from its second half.
        assert report.red_loss == pytest.approx(frozen.red_loss, abs=0.01)
        assert report.red_loss != frozen.red_loss
        frames = converged_four_flow.frame_receptions(0)
        assert int(len(frames) * 0.5) > 10

    def test_staggered_starts(self):
        scenario = PelsScenario(n_flows=4, duration=30.0, seed=5) \
            .with_staggered_starts(batch=2, spacing=12.0)
        sim = PelsSimulation(scenario)
        red_loss = run_noting_red_at(sim, 18.0, 30.0)
        report, _ = assert_agrees_with_frozen(sim, 0.6)
        assert report.red_loss == pytest.approx(red_loss, abs=1e-12)
        # The late pair's utility skips 60% of *its* frames, not of the
        # run's: it joined at t = 12 s.
        early, late = report.flows[0], report.flows[3]
        assert late.frames_sent < early.frames_sent

    def test_churn_with_router_restart(self):
        scenario = PelsScenario(n_flows=3, duration=24.0, seed=9,
                                feedback_timeout=1.0)
        sim = PelsSimulation(scenario)
        FaultSchedule().add(8.0, RouterRestart(sim.feedback)) \
            .install(sim.sim)
        sim.sim.call_later(6.0, sim.sources[2].stop)
        sim.sim.call_later(10.0, sim.sources[2].restart)
        red_loss = run_noting_red_at(sim, 12.0, 24.0)
        report, _ = assert_agrees_with_frozen(sim, 0.5)
        assert report.red_loss == pytest.approx(red_loss, abs=1e-12)
        assert sum(row.stale_discarded for row in report.flows) > 0
        assert sum(row.rate_freezes for row in report.flows) > 0

    def test_whole_run_delay_mean_where_the_series_was_dropped(self):
        sim = PelsSimulation(PelsScenario(
            n_flows=2, duration=10.0, seed=3, delay_series_stride=0)).run()
        report = build_report(sim.view)
        frozen = frozen_readout.build_report(sim)
        assert [row.delays_ms for row in report.flows] \
            == [row.delays_ms for row in frozen.flows]
        assert "green" in report.flows[0].delays_ms


class TestObservationAgainstFrozen:
    @staticmethod
    def observe_both(sim, queues, feedbacks):
        """Chain after the monitor-and-tuner hook: at every epoch, the
        frozen observation and today's, of the same instant."""
        pairs = []
        r_star = sim.view.lemma6_rate_bps()
        previous = feedbacks[0].epoch_hook

        def hook(log):
            previous(log)
            pairs.append((
                frozen_readout.observe_epoch(sim, queues, feedbacks, r_star,
                                             sim.sim.now),
                observe_epoch(sim.view, r_star)))

        feedbacks[0].epoch_hook = hook
        sim.run()
        return pairs

    def test_single_hop_every_epoch(self):
        sim = PelsSimulation(PelsScenario(
            n_flows=3, duration=6.0, seed=4,
            meta_controller=MetaControllerConfig()))
        pairs = self.observe_both(sim, [sim.bottleneck_queue],
                                  [sim.feedback])
        assert len(pairs) == sim.meta.steps == sim.feedback.epoch > 190
        assert all(old == new for old, new in pairs)
        assert pairs[-1][1].drops["red"] > 0
        assert pairs[-1][1].delays_s.keys() == {"green", "yellow", "red"}

    def test_multi_hop_every_epoch(self):
        sim = MultiHopPelsSimulation(MultiHopScenario(
            n_flows=2, duration=6.0, seed=4, hop_bps=(6e6, 4e6),
            meta_controller=MetaControllerConfig()))
        pairs = self.observe_both(sim, sim.hop_queues, sim.feedbacks)
        assert len(pairs) == sim.meta.steps == sim.feedbacks[0].epoch > 190
        assert all(old == new for old, new in pairs)
        # r* is the tightest hop's, the loss the most congested one's.
        assert pairs[-1][1].r_star == mkc_stationary_rate(
            2e6, 2, 20_000.0, 0.5)
        assert pairs[-1][1].virtual_loss == max(sim.hop_losses().values())


@pytest.mark.slow
class TestMultiHopReport:
    """``MultiHopPelsSimulation`` had no report; the view gives it one."""

    @pytest.fixture(scope="class")
    def sim(self):
        # A red interferer congests hop 0 (3 mb/s PELS) for the first
        # 8 s; afterwards hop 1 (2 mb/s PELS) is the bottleneck.
        return MultiHopPelsSimulation(MultiHopScenario(
            n_flows=2, duration=24.0, seed=3, hop_bps=(6e6, 4e6),
            pels_interferers=((0, 0.0, 8.0, 3e6),))).run()

    def test_virtual_loss_follows_the_most_congested_hop(self, sim):
        report = build_report(sim.view)
        means = [fb.loss_series.mean(12.0) for fb in sim.feedbacks]
        assert means[1] > means[0]
        assert report.virtual_loss == means[1]

    def test_theory_follows_the_tightest_hop(self, sim):
        report = build_report(sim.view)
        assert report.pels_capacity_bps == 2e6
        assert report.rate_theory_bps == mkc_stationary_rate(
            2e6, 2, 20_000.0, 0.5)
        for row in report.flows:
            assert row.mean_rate_bps == pytest.approx(
                report.rate_theory_bps, rel=0.1)

    def test_drops_are_summed_over_hops(self, sim):
        report = build_report(sim.view)
        per_hop = [queue.red_queue.stats.drops for queue in sim.hop_queues]
        assert all(drops > 0 for drops in per_hop)
        assert report.drops == {"green": 0, "yellow": 0,
                                "red": sum(per_hop)}

    def test_rows_and_rendering(self, sim):
        report = build_report(sim.view)
        assert [row.flow_id for row in report.flows] == [0, 1]
        # No assembly samples a multi-hop port's physical loss windows.
        assert report.red_loss is None
        assert "flow 1" in report.render()
