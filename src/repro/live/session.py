"""One live session, two clocks: server → router → client, assembled once.

:class:`LiveSession` builds the three endpoints from a
:class:`LiveConfig` on any clock, hangs the read-out on the router's
epoch hook and starts them; two drivers wire and run what it built:

* :func:`run_live_session` binds them to three UDP sockets on the
  loopback interface and runs a
  :class:`~repro.core.clock.SelectorClock` for a wall-clock duration;
* :class:`SimulatedSession` runs the same objects on a
  :class:`~repro.sim.engine.Simulator`, each datagram crossing a
  pure-delay :class:`Hop`: no socket, no sleep, and a run is a pure
  function of its config.

Either runs a whole session through :meth:`LiveSession.run_to_end`:
stream, stop the senders, drain.

The network supplies what it knows: three simulated hops know their
round trip, so MKC references the rate from
``config.feedback_delay(3 * delay)`` ago; a socket knows none, and MKC
keeps its own default.

Both return a :class:`LiveSessionResult`, whose ``view`` is the same
:class:`~repro.core.report.SessionView` the simulator's assemblies
produce, so :func:`~repro.core.report.build_report` summarizes either
run, and — during the run — the metrics monitor and the ``--tune``
meta-controller hang on the router's epoch hook exactly as they do in
a simulation.  :meth:`LiveSessionResult.score` is the ``L1`` check:
per-flow rate against ``r* = C/N + α/β``, the delay ordering
green ≤ yellow ≤ red and no green or yellow drop.

Wall-clock tolerances: a socket run is *not* deterministic — scheduler
jitter moves individual packets — but those steady-state quantities are
robust to it; the defaults here (2 flows, 2 mb/s PELS capacity)
converge within a few seconds.
"""

from __future__ import annotations

import math
import socket
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Optional

from ..core.clock import Clock, DatagramEndpoint, ManualClock, SelectorClock
from ..core.flow import frame_receptions
from ..core.params import ControlParams
from ..core.pels_queue import PelsQueueConfig
from ..core.report import (PortView, SessionReport, SessionView,
                           attach_readout, build_report)
from ..obs.trace import current_tracer
from ..sim.packet import Color
from ..video.fgs import FgsConfig
from ..video.psnr import PsnrResult, reconstruct_psnr
from ..video.traces import generate_foreman_like
from .client import LiveClient
from .router import LiveRouter
from .server import LiveServer

if TYPE_CHECKING:
    from ..control.meta import MetaController
    from ..sim.engine import Simulator

__all__ = ["LiveConfig", "LiveScore", "LiveSession", "LiveSessionResult",
           "Hop", "SimulatedSession", "live_view", "run_live_session"]

#: Fraction of the run excluded from the score's averages.  Higher than
#: the simulator reports' 0.5: the ramp from 128 kb/s takes ~2 s, and
#: short runs need the measurement window clear of it.
WARMUP_FRACTION = 0.6

#: Acceptance band around the Lemma 6 oracle for the mean rate.
RATE_TOLERANCE = 0.15

#: Slack factor for the per-color delay ordering: means may sit within
#: measurement noise of each other on an unloaded queue.
DELAY_SLACK = 1.10


@dataclass
class LiveConfig(ControlParams):
    """Parameters of a live session, on either clock.

    Defaults are the simulator's ``PelsScenario``: a 4 mb/s bottleneck
    with 50% WRR share for PELS (C = 2 mb/s), the same inherited
    :class:`ControlParams` control plane, and CBR cross traffic keeping
    the Internet FIFO backlogged.
    """

    n_flows: int = 2
    duration: float = 5.0
    host: str = "127.0.0.1"

    controller_name: str = "mkc"

    bottleneck_bps: float = 4_000_000.0
    queue: PelsQueueConfig = field(default_factory=PelsQueueConfig)

    fgs: FgsConfig = field(default_factory=lambda: FgsConfig(
        frame_packets=256))
    cross_traffic: str = "cbr"
    cbr_rate_bps: float = 3_000_000.0

    #: Timer granularities (see router/server docstrings): the router's
    #: burst granularity under backlog (it forwards on arrival while it
    #: has link credit) and the server's pacer wake period.
    service_tick: float = 0.002
    pace_tick: float = 0.005
    #: Seconds granted after the senders stop for in-flight datagrams
    #: to drain through the router before teardown.
    drain: float = 0.25
    #: Seeds the server-side RNG (cross-traffic wake jitter): on
    #: simulated time the whole run reproduces; over sockets packet
    #: timings still vary run to run, the *schedule* does not.
    seed: Optional[int] = None

    #: Online meta-control (``pels live --tune``): a meta-controller on
    #: the router's epoch hook PID-tunes alpha/sigma once per Eq. 11
    #: epoch, exactly as in a tuned simulation.  Off by default.
    tune: bool = False

    def pels_capacity_bps(self) -> float:
        """The PELS share of the bottleneck (``C`` of Eq. 11)."""
        return self.bottleneck_bps * self.queue.pels_share()


class LiveScore(NamedTuple):
    """L1's three checks on one finished session, read after
    ``WARMUP_FRACTION`` of it."""

    #: ``rate_theory_bps`` is the Lemma 6 oracle.
    report: SessionReport
    #: Per-flow mean rate, averaged across flows (0 with no flow), and
    #: its distance from the oracle relative to it (``RATE_TOLERANCE``).
    mean_rate_bps: float
    rate_error: float
    #: green ≤ yellow ≤ red (with ``DELAY_SLACK``) on the per-color
    #: means pooled across flows: strict priority is the port's.
    delay_ordering_ok: bool
    #: Green plus yellow drops: the red band absorbs congestion.
    protected_drops: int


@dataclass
class LiveSessionResult:
    """A finished live run: config plus the three live components."""

    config: LiveConfig
    server: LiveServer
    client: LiveClient
    router: LiveRouter
    #: Seconds elapsed on the session clock at teardown.
    elapsed: float
    #: The meta-controller when the run was tuned (``tune=True``).
    meta: Optional[MetaController] = None

    @property
    def view(self) -> SessionView:
        """The finished run as reports read it: the clock stands at
        :attr:`elapsed`."""
        return live_view(self.config, self.server, self.client,
                         self.router, ManualClock(self.elapsed))

    def score(self) -> LiveScore:
        """L1's checks: the report after the warm-up, its mean rate
        against Lemma 6, and green ≤ yellow ≤ red on the count-weighted
        per-color mean delays of all flows together."""
        report = build_report(self.view, warmup_fraction=WARMUP_FRACTION)
        oracle = report.rate_theory_bps
        rates = [flow.mean_rate_bps for flow in report.flows]
        mean = sum(rates) / len(rates) if rates else 0.0
        pooled = [[delay for receiver in self.client.flows.values()
                   for _, delay in receiver.delay_probes[color].series
                   .window(self.elapsed * WARMUP_FRACTION, self.elapsed)]
                  for color in (Color.GREEN, Color.YELLOW, Color.RED)]
        # A color with no sample has a NaN mean, and fails the order.
        green, yellow, red = (sum(d) / len(d) if d else math.nan
                              for d in pooled)
        return LiveScore(report, mean, abs(mean - oracle) / oracle,
                         green <= yellow * DELAY_SLACK
                         and yellow <= red * DELAY_SLACK,
                         report.drops["green"] + report.drops["yellow"])

    def psnr(self, flow_id: int) -> PsnrResult:
        """Offline PSNR reconstruction for one flow (Section 6.5).

        Applies the per-frame reception record against the synthetic
        Foreman-like trace and R-D model, exactly as the simulator's
        F7 pipeline does.
        """
        flow = self.server.flows.get(flow_id)
        if flow is None:
            raise ValueError(
                f"flow {flow_id} has no sender-side record (rejected by "
                f"admission or never registered); PSNR reconstruction "
                f"needs the sender's frame log")
        receptions = frame_receptions(flow, self.client.flow(flow_id))
        trace = generate_foreman_like(n_frames=max(1, flow.frames_sent))
        return reconstruct_psnr(trace, receptions,
                                packet_size=self.config.fgs.packet_size)


def live_view(config: LiveConfig, server: LiveServer, client: LiveClient,
              router: LiveRouter, clock: Clock) -> SessionView:
    """The read-out view of a live session's three endpoints."""
    return SessionView(
        senders=server.flows.values(), receivers=client.flows.values(),
        ports=[PortView("live-router", router.core, router.feedback)],
        n_flows=config.n_flows, alpha_bps=config.alpha_bps,
        beta=config.beta, p_thr=config.p_thr, clock=clock)


class LiveSession:
    """The three endpoints of one session on ``clock``, assembled once;
    the driver wires them and turns the clock (:meth:`run`).

    The read-out hangs on the router's epoch hook — the monitor with a
    registry active, the tuner (``meta``) with ``tune`` — and the
    endpoints are started: their timers are armed, but nothing runs, so
    nothing is sent, until the clock does.  ``feedback_delay`` is MKC's
    sample age, where the network knows it.
    """

    def __init__(self, config: LiveConfig, clock: Clock,
                 feedback_delay: Optional[float] = None) -> None:
        self.config = config
        self.clock = clock
        self.client = LiveClient(clock, green_packets=config.fgs.green_packets)
        self.router = LiveRouter(clock, config.bottleneck_bps, config.queue,
                                 interval=config.feedback_interval,
                                 window_intervals=config.feedback_window,
                                 service_tick=config.service_tick)
        cbr = config.cbr_rate_bps if config.cross_traffic == "cbr" else 0.0
        self.server = LiveServer(
            clock, config.n_flows, controller_name=config.controller_name,
            controller_kwargs=config.controller_kwargs(
                config.controller_name, feedback_delay),
            gamma_kwargs=config.gamma_kwargs(), fgs=config.fgs,
            cbr_rate_bps=cbr, pace_tick=config.pace_tick, seed=config.seed)
        #: The session as reports read it while it runs.
        self.view = live_view(config, self.server, self.client,
                              self.router, clock)
        meta_config = None
        if config.tune:
            from ..control.meta import MetaControllerConfig
            meta_config = MetaControllerConfig()
        _, self.meta = attach_readout(self.view, meta_config)
        self.router.start()
        self.server.start()

    def result(self) -> LiveSessionResult:
        """Stop the senders (their in-flight frames are logged) and hand
        back the run as it stands."""
        self.server.stop()
        return LiveSessionResult(self.config, self.server, self.client,
                                 self.router, self.clock.now, self.meta)

    def run(self, seconds: float) -> "LiveSession":
        """Turn the clock for ``seconds`` (one that runs until stopped,
        as a ``SelectorClock`` does)."""
        self.clock.call_later(seconds, self.clock.stop)
        self.clock.run()
        return self

    def run_to_end(self) -> LiveSessionResult:
        """The whole session: stream for ``config.duration``, stop the
        senders, drain for ``config.drain`` (the router keeps serving
        and final ACKs land) and hand back the result."""
        self.run(self.config.duration)
        self.server.stop()
        self.run(self.config.drain)
        return self.result()


def run_live_session(config: Optional[LiveConfig] = None
                     ) -> LiveSessionResult:
    """Run one loopback session to completion (blocking entry point)."""
    config = config or LiveConfig()
    clock = SelectorClock()
    tracer = current_tracer()
    if tracer is not None:
        tracer.bind_clock(clock)

    session = LiveSession(config, clock)
    server, router, client = session.server, session.router, session.client
    # Each on a fresh UDP socket, downstream first.
    for protocol in (client, router, server):
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.bind((config.host, 0))
        DatagramEndpoint(clock, sock, protocol)
    router.dst_addr = client.transport.get_extra_info("sockname")[:2]
    server.dst_addr = router.transport.get_extra_info("sockname")[:2]
    client.server_addr = server.transport.get_extra_info("sockname")[:2]
    try:
        return session.run_to_end()
    finally:
        # The router stops as a shard's does: its clock runs no more
        # and its socket closes.
        for protocol in (server, router, client):
            protocol.transport.close()
        clock.close()


#: The one address of every simulated hop (a hop has one far end).
HOP_ADDR = ("127.0.0.1", 9)


class Hop(NamedTuple):
    """A pure-delay datagram path on a simulated clock: ``sendto`` is
    the far end's ``datagram_received``, ``delay`` seconds later."""

    sim: Simulator
    deliver: Callable[[bytes, Any], None]
    delay: float

    def sendto(self, data, addr=None) -> None:
        self.sim.call_later(self.delay, self.deliver, bytes(data), addr)


class SimulatedSession(LiveSession):
    """:class:`LiveSession` on a :class:`~repro.sim.engine.Simulator`,
    the endpoints meeting over :class:`Hop` s.

    ``delay`` is each hop's one-way delay (server -> router -> client
    -> server: the round trip is three hops).  Every component starts
    its own timers on the simulator — the pacer wheel and the CBR cross
    traffic, the router's Eq. 11 epoch and backlog timer — exactly as
    on a ``SelectorClock``.
    """

    def __init__(self, config: LiveConfig, delay: float = 0.0) -> None:
        from ..sim.engine import Simulator
        super().__init__(config, Simulator(seed=config.seed),
                         config.feedback_delay(3 * delay))
        server, router, client = self.server, self.router, self.client
        for sender, far_end in ((server, router), (router, client),
                                (client, server)):
            sender.connection_made(
                Hop(self.clock, far_end.datagram_received, delay))
        server.dst_addr = router.dst_addr = client.server_addr = HOP_ADDR

    def run(self, seconds: float) -> "SimulatedSession":
        """Advance the simulated clock by ``seconds``."""
        self.clock.run(until=self.clock.now + seconds)
        return self

