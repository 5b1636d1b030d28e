"""Loopback smoke tests for the live stack (opt-in: ``pytest --live``).

These bind real UDP sockets on 127.0.0.1 and sleep real wall-clock
seconds, so they are excluded from tier-1 (see ``conftest.py``); the CI
``live`` job runs them with ``--live -m live``.  They assert plumbing
and coarse behavior over a ~2 s run, and L1's bands (the ``L1``
experiment scores the same stack on simulated time) on the wall clock.
"""

from __future__ import annotations

import pytest

from repro.core.report import build_report
from repro.live import LiveConfig, run_live_session
from repro.live.session import RATE_TOLERANCE
from repro.sim.packet import Color

pytestmark = pytest.mark.live


@pytest.fixture(scope="module")
def short_session():
    """One shared ~2 s, 2-flow loopback run (1 router on 127.0.0.1)."""
    return run_live_session(LiveConfig(n_flows=2, duration=2.0))


class TestLoopbackSmoke:
    def test_packets_flow_end_to_end(self, short_session):
        for flow_id, flow in short_session.server.flows.items():
            receiver = short_session.client.flow(flow_id)
            assert flow.packets_sent > 0
            assert receiver.packets_received > 0
            # The router may still hold a handful at teardown, but the
            # vast majority must have been forwarded and received.
            assert receiver.packets_received > 0.5 * flow.packets_sent

    def test_feedback_loop_closes(self, short_session):
        """ACKs return, the freshness filter accepts, controllers move."""
        config = short_session.config
        for flow in short_session.server.flows.values():
            assert flow.acks_received > 0
            assert flow.tracker.accepted > 0
            # 2 s of 30 ms epochs leaves the 128 kb/s start far behind.
            assert flow.rate_bps > config.initial_rate_bps

    def test_router_stamps_advancing_epochs(self, short_session):
        router = short_session.router
        assert router.feedback.epoch > 30  # ~66 expected in 2 s
        label = short_session.client.last_label.get(0)
        assert label is not None
        assert label.router_id == router.feedback.router_id
        assert 0 < label.epoch <= router.feedback.epoch

    def test_delay_probes_cover_all_pels_colors(self, short_session):
        receiver = short_session.client.flow(0)
        for color in (Color.GREEN, Color.YELLOW, Color.RED):
            probe = receiver.delay_probes[color]
            assert probe.count > 0, f"no {color.name} delay samples"
            assert probe.mean > 0.0

    def test_cross_traffic_rides_the_internet_fifo(self, short_session):
        assert short_session.server.cross_packets_sent > 0
        assert short_session.client.cross_packets_received > 0
        assert short_session.router.arrivals[Color.BEST_EFFORT] > 0

    def test_no_malformed_datagrams(self, short_session):
        assert short_session.client.malformed == 0

    def test_report_builds_with_live_numbers(self, short_session):
        report = build_report(short_session.view, warmup_fraction=0.5)
        assert report.n_flows == 2
        assert report.duration_s >= 2.0
        rendered = report.render()
        assert "flow" in rendered
        for flow in report.flows:
            assert flow.mean_rate_bps > 0
            assert "green" in flow.delays_ms
        # The render path must not choke on live (non-deterministic)
        # values; exact bands are asserted by the L1 experiment.
        assert report.virtual_loss >= 0.0

    def test_psnr_reconstruction_runs(self, short_session):
        result = short_session.psnr(0)
        assert result.mean_psnr > 0


def test_a_five_second_run_scores_like_l1():
    """L1's three checks over real sockets: the mean rate within 15% of
    Lemma 6, green <= yellow <= red, no protected drop."""
    score = run_live_session(LiveConfig(n_flows=2, duration=5.0)).score()
    assert score.rate_error <= RATE_TOLERANCE, score.mean_rate_bps
    assert score.delay_ordering_ok
    assert score.protected_drops == 0
