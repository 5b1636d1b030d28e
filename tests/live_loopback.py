"""A whole live stack on a simulated clock (test helper, not a test).

``LiveServer`` -> ``LiveRouter`` -> ``LiveClient`` -> (ACKs) ->
``LiveServer``: the three endpoints the loopback session binds to UDP
sockets, here sharing one :class:`~repro.sim.engine.Simulator` as their
clock.  Each component starts its own timers on it — the pacer wheel
and the CBR cross traffic, the router's Eq. 11 epoch and backlog timer
— exactly as it does on a ``WallClock``; a :class:`Wire` delivers every
datagram to the peer's ``datagram_received`` after a one-way delay.  No
socket, no event loop, no sleep: ``run(seconds)`` is ``sim.run``.
"""

from __future__ import annotations

import asyncio

from repro.live.client import LiveClient
from repro.live.router import LiveRouter
from repro.live.server import LiveServer
from repro.live.session import LiveConfig, LiveSessionResult, live_view
from repro.sim.engine import Simulator

ADDR = ("127.0.0.1", 9)

#: Binary fractions, so every instant of a run is exact: the pacer
#: wheel's tick, 8 ticks per Eq. 11 epoch (T = 1/32 s), 32 epochs a
#: second, and a backlog timer of half a tick.
TICK = 1 / 256
EPOCH_TICKS = 8


def stop(router: LiveRouter) -> None:
    """Run a router's ``stop()`` (a coroutine that never waits; the
    server's and the supervisor's are plain methods)."""
    asyncio.run(router.stop())


class Wire:
    """A transport whose ``sendto`` is the peer's ``datagram_received``,
    ``delay`` simulated seconds later."""

    def __init__(self, sim: Simulator, deliver, delay: float) -> None:
        self.sim = sim
        self.deliver = deliver
        self.delay = delay

    def sendto(self, data, addr=None) -> None:
        self.sim.call_later(self.delay, self.deliver, bytes(data), addr)


class Loopback:
    """The three live endpoints, meeting over :class:`Wire` hops.

    ``delay`` is each hop's one-way delay (server -> router -> client
    -> server: the round trip is three hops); MKC's delayed reference is
    told the matching feedback age.  ``feedback_timeout`` arms the
    senders' starvation watchdog.  Cross traffic is the server's own
    CBR at one 500-byte datagram per tick on average (1.024 mb/s), which
    keeps the Internet FIFO backlogged so WRR holds PELS to its share.
    """

    def __init__(self, delay: float = 0.0, feedback_timeout: float = 0.0,
                 **overrides) -> None:
        self.config = config = LiveConfig(
            feedback_interval=TICK * EPOCH_TICKS, pace_tick=TICK,
            service_tick=TICK / 2, cbr_rate_bps=1_024_000.0, seed=1,
            **overrides)
        self.sim = sim = Simulator(seed=1)
        self.delay = delay
        self.server = LiveServer(
            sim, config.n_flows,
            controller_kwargs=config.controller_kwargs(
                feedback_delay=config.feedback_delay(3 * delay)),
            gamma_kwargs=config.gamma_kwargs(), fgs=config.fgs,
            cbr_rate_bps=config.cbr_rate_bps, pace_tick=config.pace_tick,
            seed=config.seed, feedback_timeout=feedback_timeout)
        self.client = LiveClient(sim, green_packets=config.fgs.green_packets)
        self.client.connection_made(
            Wire(sim, self.server.datagram_received, delay))
        self.server.dst_addr = self.client.server_addr = ADDR
        self.router = self.new_router(router_id=1)
        self.view = live_view(config, self.server, self.client, self.router,
                              sim)
        self.server.start()

    def new_router(self, router_id: int) -> LiveRouter:
        """Start a router with ``router_id`` and put it on the path."""
        config = self.config
        router = LiveRouter(self.sim, config.bottleneck_bps, config.queue,
                            interval=config.feedback_interval,
                            router_id=router_id,
                            service_tick=config.service_tick)
        router.connection_made(
            Wire(self.sim, self.client.datagram_received, self.delay))
        router.dst_addr = ADDR
        self.server.connection_made(
            Wire(self.sim, router.datagram_received, self.delay))
        router.start()
        return router

    def run(self, seconds: float) -> "Loopback":
        self.sim.run(until=self.sim.now + seconds)
        return self

    def result(self) -> LiveSessionResult:
        for flow in self.server.flows.values():
            flow.finish()
        return LiveSessionResult(self.config, self.server, self.client,
                                 self.router, self.sim.now)
