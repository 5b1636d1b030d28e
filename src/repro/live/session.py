"""Loopback session harness: wire up server → router → client and run.

:func:`run_live_session` binds three UDP endpoints on the loopback
interface (client, router, server — in that order, so every downstream
address exists before its upstream sender starts), streams for a
wall-clock duration and returns a :class:`LiveSessionResult` holding
the live objects for inspection.  Its ``view`` is the same
:class:`~repro.core.report.SessionView` the simulator's assemblies
produce, so :func:`~repro.core.report.build_report` summarizes the run
into the same :class:`~repro.core.report.SessionReport`, with the
Lemma 6 / Eq. 9 theory columns alongside (the ``L1`` experiment diffs
exactly these columns), and — during the run — the metrics monitor and
the ``--tune`` meta-controller hang on the router's epoch hook exactly
as they do in a simulation.

Wall-clock tolerances: a live run is *not* deterministic — scheduler
jitter moves individual packets — but the paper's steady-state
quantities (per-flow rate vs ``r* = C/N + α/β``, the delay ordering
green ≤ yellow ≤ red) are robust to it; the defaults here (2 flows,
2 mb/s PELS capacity) converge within a few seconds.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass, field
from typing import Optional

from ..cc.mkc import mkc_stationary_rate
from ..control.meta import MetaController, MetaControllerConfig
from ..core.assembly import attach_readout
from ..core.clock import Clock, DatagramEndpoint, ManualClock, SelectorClock
from ..core.flow import frame_receptions
from ..core.params import ControlParams
from ..core.pels_queue import PelsQueueConfig
from ..core.report import PortView, SessionView
from ..obs.trace import current_tracer
from ..video.fgs import FgsConfig
from ..video.psnr import PsnrResult, reconstruct_psnr
from ..video.traces import generate_foreman_like
from .client import LiveClient
from .router import LiveRouter
from .server import LiveServer

__all__ = ["LiveConfig", "LiveSessionResult", "live_view",
           "run_live_session"]


@dataclass
class LiveConfig(ControlParams):
    """Parameters of a live loopback run.

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

    #: Wall-clock granularities (see router/server docstrings): the
    #: router's burst granularity under backlog (it forwards on arrival
    #: while it has link credit) and the server's pacer wake period.
    service_tick: float = 0.002
    pace_tick: float = 0.005
    #: Seconds granted after the senders stop for in-flight datagrams
    #: to drain through the router before teardown.
    drain: float = 0.25
    #: Seeds the server-side RNG (cross-traffic wake jitter); packet
    #: timings still vary run to run, the *schedule* does not.
    seed: Optional[int] = None

    #: Online meta-control (``pels live --tune``): a meta-controller on
    #: the router's epoch hook PID-tunes alpha/sigma once per Eq. 11
    #: epoch, exactly as in a tuned simulation.  Off by default.
    tune: bool = False

    def pels_capacity_bps(self) -> float:
        """The PELS share of the bottleneck (``C`` of Eq. 11)."""
        return self.bottleneck_bps * self.queue.pels_share()

    def lemma6_rate_bps(self) -> float:
        """The oracle the live equilibrium is checked against."""
        return mkc_stationary_rate(self.pels_capacity_bps(), self.n_flows,
                                   self.alpha_bps, self.beta)


@dataclass
class LiveSessionResult:
    """A finished live run: config plus the three live components."""

    config: LiveConfig
    server: LiveServer
    client: LiveClient
    router: LiveRouter
    #: Wall-clock seconds actually elapsed (session clock at teardown).
    elapsed: float
    #: The meta-controller when the run was tuned (``tune=True``).
    meta: Optional[MetaController] = None

    @property
    def view(self) -> SessionView:
        """The finished run as reports read it: the clock stands at
        :attr:`elapsed`."""
        return live_view(self.config, self.server, self.client,
                         self.router, ManualClock(self.elapsed))

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
    """The read-out view of a loopback session's three endpoints."""
    return SessionView(
        senders=server.flows.values(), receivers=client.flows.values(),
        ports=[PortView("live-router", router.core, router.feedback)],
        n_flows=config.n_flows, alpha_bps=config.alpha_bps,
        beta=config.beta, p_thr=config.p_thr, clock=clock)


def _endpoint(clock: SelectorClock, protocol, host: str) -> DatagramEndpoint:
    """``protocol`` on a fresh UDP socket bound to ``(host, 0)``."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind((host, 0))
    return DatagramEndpoint(clock, sock, protocol)


def run_live_session(config: Optional[LiveConfig] = None
                     ) -> LiveSessionResult:
    """Run one loopback session to completion (blocking entry point)."""
    config = config or LiveConfig()
    clock = SelectorClock()
    tracer = current_tracer()
    if tracer is not None:
        tracer.bind_clock(clock)

    client = LiveClient(clock, green_packets=config.fgs.green_packets)
    client_end = _endpoint(clock, client, config.host)

    router = LiveRouter(clock, config.bottleneck_bps, config.queue,
                        interval=config.feedback_interval,
                        window_intervals=config.feedback_window,
                        service_tick=config.service_tick)
    router_end = _endpoint(clock, router, config.host)
    router.dst_addr = client_end.get_extra_info("sockname")[:2]

    cbr = config.cbr_rate_bps if config.cross_traffic == "cbr" else 0.0
    server = LiveServer(clock, config.n_flows,
                        controller_name=config.controller_name,
                        controller_kwargs=config.controller_kwargs(
                            config.controller_name),
                        gamma_kwargs=config.gamma_kwargs(),
                        fgs=config.fgs, cbr_rate_bps=cbr,
                        pace_tick=config.pace_tick, seed=config.seed)
    server_end = _endpoint(clock, server, config.host)
    server.dst_addr = router_end.get_extra_info("sockname")[:2]
    client.server_addr = server_end.get_extra_info("sockname")[:2]

    _, meta = attach_readout(
        live_view(config, server, client, router, clock),
        MetaControllerConfig() if config.tune else None)

    router.start()
    server.start()
    try:
        clock.call_later(config.duration, clock.stop)
        clock.run()
        server.stop()
        # Let queued datagrams drain and final ACKs land before the
        # clock stops; the router keeps serving during the drain.
        clock.call_later(config.drain, clock.stop)
        clock.run()
    finally:
        # The router stops as a shard's does: its clock runs no more
        # and its socket closes.
        server.stop()
        elapsed = clock.now
        for end in (server_end, router_end, client_end):
            end.close()
        clock.close()
    return LiveSessionResult(config=config, server=server, client=client,
                             router=router, elapsed=elapsed, meta=meta)
