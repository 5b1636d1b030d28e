"""The live stack on a simulated clock, with real delays (tier 1).

The same ``LiveServer``/``LiveRouter``/``LiveClient`` the loopback
session binds to UDP sockets, on a :class:`~repro.sim.engine.Simulator`
clock whose :class:`~repro.core.clock.SimNet` delays every datagram —
what only wall-clock runs could show before, deterministically, with no
socket and no sleep.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.report import build_report
from repro.live.router import LiveRouter
from repro.live.session import SimulatedSession
from repro.sim.packet import Color

#: One-way delay of the net: a 60 ms round trip (server -> router ->
#: client -> server).
HOP = 0.020


@pytest.fixture(scope="module")
def delayed(loopback) -> SimulatedSession:
    """2 flows into C = 0.5 mb/s behind 60 ms of round trip, 8 s."""
    return loopback(delay=HOP, n_flows=2, bottleneck_bps=1_000_000.0).run(8.0)


def replace_router(loop: SimulatedSession, router_id: int) -> LiveRouter:
    """Start a router with ``router_id`` and put it on the path."""
    config = loop.config
    router = LiveRouter(loop.clock, config.bottleneck_bps, config.queue,
                        interval=config.feedback_interval, router_id=router_id,
                        service_tick=config.service_tick)
    router.dst_addr = loop.router.dst_addr
    loop.server.dst_addr = loop.net.attach(router)
    router.start()
    return router


class TestDelayedLoop:
    def test_two_flows_converge_on_lemma6(self, delayed):
        """MKC steps from its delayed self-reference r(k - D), D the
        age of the loss it is handed; over a real round trip the pair
        still lands on r* = C/N + alpha/beta = 290 kb/s."""
        report = build_report(delayed.result().view)
        assert report.rate_theory_bps == 290_000.0
        for flow in report.flows:
            assert flow.mean_rate_bps == pytest.approx(290_000.0, rel=0.1)
        assert report.virtual_loss == pytest.approx(
            report.virtual_loss_theory, rel=0.1)
        for sender in delayed.server.flows.values():
            assert sender.controller.feedback_delay == \
                delayed.config.feedback_delay(3 * HOP)
            assert sender.tracker.accepted > 100

    def test_delays_carry_the_path_and_keep_their_order(self, delayed):
        report = build_report(delayed.result().view)
        for flow in report.flows:
            g, y, r = (flow.delays_ms[c] for c in ("green", "yellow", "red"))
            assert 2 * HOP * 1000 <= g < y < r
        assert report.drops["green"] == report.drops["yellow"] == 0


class TestSilentRouter:
    """Section 5.2 on the live byte path: a router that goes silent for
    longer than ``feedback_timeout`` blinds every sender; a replacement
    under a fresh ``router_id`` resynchronizes each one on its first
    label."""

    TIMEOUT = 0.4

    def test_every_sender_rides_blind_and_resyncs_on_the_fresh_id(
            self, loopback):
        loop = loopback(delay=HOP, n_flows=2, bottleneck_bps=1_000_000.0)
        flows = list(loop.server.flows.values())
        for flow in flows:  # the starvation watchdog
            flow.feedback_timeout = self.TIMEOUT
        loop.run(3.0)
        assert all(f.rate_freezes == 0 and f.tracker.router_id == 1
                   for f in flows)
        # The first label each flow takes while blind, and what it did.
        first_blind = {}
        for flow in flows:
            def watching(label, now, flow=flow, on_label=flow.on_label):
                was_blind = flow.blind
                loss = on_label(label, now)
                if was_blind:
                    first_blind.setdefault(flow.flow_id, (
                        label.router_id, loss is not None, flow.blind))
                return loss
            flow.on_label = watching

        # Silent: it still ingests, never forwards.
        asyncio.run(loop.router.stop())
        loop.run(1.5)
        for flow in flows:
            assert flow.blind and flow.rate_freezes == 1
            assert flow.blind_intervals >= 1 and flow.recoveries == 0
            assert flow.tracker.router_id is None  # epoch clock dropped
        assert first_blind == {}

        loop.router = replace_router(loop, router_id=2)
        loop.run(3.0)
        for flow in flows:
            assert (flow.rate_freezes, flow.recoveries) == (1, 1)
            assert not flow.blind and flow.tracker.router_id == 2
            # The episode ended on the first label from router 2.
            assert first_blind[flow.flow_id] == (2, True, False)
        assert loop.router.drops[Color.GREEN] == 0
