"""The session read-out over a whole live stack on a simulated clock.

``LiveServer`` -> ``LiveRouter`` -> ``LiveClient`` -> (ACKs) ->
``LiveServer`` with a :class:`~repro.sim.engine.Simulator` as their
clock (:class:`~repro.live.session.SimulatedSession`): the pacer wheel,
the cross traffic, the router's service and its Eq. 11 epoch run on
their own timers, the datagrams cross zero-delay hops.  No socket, no
event loop, no sleep - and the whole loop still closes (the flows
converge on Lemma 6), so what the one report builder, the one monitor
and the one tuner say about a *live* view is checked against what the
run did.
"""

from __future__ import annotations

import math
import statistics

import pytest

from repro.cc.mkc import mkc_stationary_rate
from repro.control import MetaController, MetaControllerConfig
from repro.core.flow import frame_receptions
from repro.core.report import build_report
from repro.live.session import SimulatedSession
from repro.live.wire import LivePacket
from repro.obs.metrics import metrics
from repro.obs.monitor import SimulationMonitor
from repro.sim.packet import Color

PELS = (Color.GREEN, Color.YELLOW, Color.RED)


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def lemma6(config) -> float:
    """Lemma 6's ``r*`` from the config alone, apart from the view."""
    return mkc_stationary_rate(config.pels_capacity_bps(), config.n_flows,
                               config.alpha_bps, config.beta)


@pytest.fixture(scope="module")
def converged(loopback) -> SimulatedSession:
    """2 flows into C = 0.5 mb/s for 6 s: r* = 290 kb/s, p* = 0.138.
    Paused at the warm-up instant to note the port's counters there."""
    loop = loopback(n_flows=2, bottleneck_bps=1_000_000.0).run(3.0)
    loop.at_warmup = (list(loop.router.arrivals), list(loop.router.drops))
    return loop.run(3.0)


class TestLiveReport:
    def test_the_loop_closes_on_lemma6(self, converged):
        report = build_report(converged.result().view)
        assert report.duration_s == 6.0
        assert report.n_flows == 2
        assert report.pels_capacity_bps == 500_000.0
        assert report.rate_theory_bps == lemma6(converged.config) \
            == 290_000.0
        for flow in report.flows:
            assert flow.mean_rate_bps == pytest.approx(290_000.0, rel=0.1)
        assert report.virtual_loss == pytest.approx(
            report.virtual_loss_theory, rel=0.1)

    def test_rows_are_what_the_script_did(self, converged):
        report = build_report(converged.result().view)
        router = converged.router
        assert report.virtual_loss == mean(
            p for t, p in router.feedback.loss_series if t >= 3.0)
        assert report.drops == {"green": 0, "yellow": 0,
                                "red": router.drops[Color.RED]}
        assert router.drops[Color.RED] > 0
        assert [flow.flow_id for flow in report.flows] == [0, 1]
        for row in report.flows:
            flow = converged.server.flows[row.flow_id]
            receiver = converged.client.flows[row.flow_id]
            assert row.mean_rate_bps == mean(
                r for t, r in flow.rate_series if 3.0 <= t < 6.0)
            assert row.gamma == mean(
                g for t, g in flow.gamma_series if 3.0 <= t < 6.0)
            assert (row.packets_sent, row.frames_sent) \
                == (flow.packets_sent, flow.frames_sent)
            # The second half of this flow's finalised frames.
            frames = frame_receptions(flow, receiver)
            assert len(frames) == flow.frames_sent
            tail = [r for r in frames[len(frames) // 2:]
                    if r.enhancement_sent]
            # Averaged exactly, as the report does (statistics.mean).
            assert row.mean_utility == statistics.mean(
                r.utility() for r in tail)
            assert row.base_intact_ratio == 1.0
            for color in PELS:
                probe = receiver.delay_probes[color]
                assert row.delays_ms[color.name.lower()] == 1000 * mean(
                    d for t, d in probe.series if 3.0 <= t < 6.0)
            g, y, r = (row.delays_ms[c.name.lower()] for c in PELS)
            assert g < y < r

    def test_red_loss_is_the_post_warmup_window_only(self, converged):
        report = build_report(converged.result().view)
        router = converged.router
        arrivals0, drops0 = converged.at_warmup
        arrivals = router.arrivals[Color.RED] - arrivals0[Color.RED]
        drops = router.drops[Color.RED] - drops0[Color.RED]
        assert drops0[Color.RED] > 0 and drops > 0
        assert report.red_loss == pytest.approx(drops / arrivals, abs=1e-12)
        # ... which is not the whole-run ratio that includes the ramp.
        whole_run = router.drops[Color.RED] / router.arrivals[Color.RED]
        assert abs(report.red_loss - whole_run) > 0.01

    def test_a_running_session_reads_back_the_same_way(self, converged):
        # The view the monitor and the tuner hold during the run (live
        # clock) and the finished result's (clock stopped at `elapsed`)
        # are the same read-out.
        assert build_report(converged.view) \
            == build_report(converged.result().view)

    def test_flows_known_to_one_endpoint_get_partial_rows(self, loopback):
        loop = loopback(n_flows=2, bottleneck_bps=1_000_000.0)
        # Flow 1 is admitted but its shard never forwards (no receiver
        # state); flow 7 was torn down server-side mid-run (no sender).
        loop.router.flow_routes[1] = None
        loop.run(1.0)
        loop.client.flow(7).account(
            LivePacket(flow_id=7, seq=0, color=Color.GREEN, frame_id=0,
                       index_in_frame=0, size=500), now=0.5, sent_at=0.25)
        assert set(loop.client.flows) == {0, 7}
        report = build_report(loop.result().view, warmup_fraction=0.25)
        assert [flow.flow_id for flow in report.flows] == [0, 1, 7]
        _, unheard, orphan = report.flows
        assert unheard.packets_sent > 0 and unheard.delays_ms == {}
        assert orphan.packets_sent == 0 and orphan.frames_sent == 0
        assert math.isnan(orphan.mean_rate_bps) and math.isnan(orphan.gamma)
        assert orphan.delays_ms == {"green": 250.0}
        assert "flow 7" in report.render()
        assert 1 not in loop.client.flows  # reading creates no state


class TestLiveMonitor:
    def test_epoch_snapshots_carry_the_paper_quantities(self, loopback):
        loop = loopback(n_flows=2, bottleneck_bps=1_000_000.0)
        with metrics() as registry:
            monitor = SimulationMonitor(loop.view, registry)
            loop.run(3.0)
        assert monitor.epochs_observed == len(registry.snapshots) \
            == loop.router.feedback.epoch == 96
        gauges = registry.snapshots[-1]["gauges"]
        assert registry.snapshots[-1]["t"] == 3.0
        assert gauges["control.virtual_loss"] == loop.router.feedback.loss
        assert gauges["drops.red"] == loop.router.drops[Color.RED] > 0
        assert gauges["queue.live-router.red"] \
            == loop.router.queue_depth(Color.RED)
        for flow in loop.server.flows.values():
            prefix = f"flow.{flow.flow_id}"
            assert gauges[f"{prefix}.rate_bps"] == flow.rate_bps
            assert gauges[f"{prefix}.conv_err"] == pytest.approx(
                abs(flow.rate_bps - 290_000.0) / 290_000.0)
            assert gauges[f"{prefix}.stale_discarded"] == 0
        assert 0 < gauges["control.mean_gamma"] < 1
        assert "control.gamma_innovation" in gauges
        assert "control.conv_err" in gauges and "delay.green_ms" in gauges
        # Engine health exists only where there is an event engine.
        assert not any(name.startswith("engine.") for name in gauges)
        assert registry.snapshots[-1]["histograms"] == {}


class TestLiveTuner:
    """``pels live --tune`` is ``MetaController.attach(view)`` on the
    router's epoch hook: the simulator's path, not a polling task."""

    #: 4 mb/s bottleneck: r* = 1.04 mb/s, far above the 128 kb/s start.
    @pytest.fixture
    def loop(self, loopback) -> SimulatedSession:
        loop = loopback(n_flows=2)
        # No ACK path: the flows never leave their initial rate.
        loop.client.server_addr = None
        return loop

    def test_steps_once_per_epoch_and_boosts_alpha_below_r_star(self, loop):
        meta = MetaController().attach(loop.view)
        assert meta.r_star == lemma6(loop.config) == 1_040_000.0
        loop.run(1.0)
        assert meta.steps == loop.router.feedback.epoch == 32
        assert meta.adjustments > 0
        for flow in loop.server.flows.values():
            assert flow.rate_bps == 128_000.0
            assert flow.controller.alpha_bps > loop.config.alpha_bps

    def test_honours_the_update_interval(self, loop):
        meta = MetaController(MetaControllerConfig(
            update_interval=0.25, tune_gamma=False)).attach(loop.view)
        loop.run(2.0)
        assert meta.steps == 64
        times = [t for t, _, _ in meta.backend.history("rate")]
        # Primed by the first epoch (t = 1/32), then one adjustment per
        # 0.25 s = 8 epochs - not one per step.
        assert times == [1 / 32 + 0.25 * k for k in range(1, 8)]

    def test_chains_after_the_monitor(self, loop):
        with metrics() as registry:
            monitor = SimulationMonitor(loop.view, registry)
            meta = MetaController().attach(loop.view)
            seen = []
            step = meta.step

            def stepping(obs, now):
                # This epoch's snapshot is already taken - with the
                # parameters the epoch ran on, before they move.
                seen.append((len(registry.snapshots), obs.t, now))
                step(obs, now)

            meta.step = stepping
            loop.run(0.5)
        assert seen == [(k, k / 32, k / 32) for k in range(1, 17)]
        assert monitor.epochs_observed == meta.steps == 16

    def test_closed_loop_tuned_run_stays_on_lemma6(self, loopback):
        loop = loopback(n_flows=2, bottleneck_bps=1_000_000.0)
        meta = MetaController().attach(loop.view)
        loop.run(4.0)
        assert meta.steps == 128 and meta.adjustments > 0
        report = build_report(loop.result().view)
        for flow in report.flows:
            assert flow.mean_rate_bps == pytest.approx(290_000.0, rel=0.15)
