"""Loopback session harness: wire up server → router → client and run.

:func:`run_live_session` binds three UDP endpoints on the loopback
interface (client, router, server — in that order, so every downstream
address exists before its upstream sender starts), streams for a
wall-clock duration and returns a :class:`LiveSessionResult` holding
the live objects for inspection.  :func:`build_live_report` then
summarizes the run into the same :class:`~repro.core.report.SessionReport`
the simulator produces, with the Lemma 6 / Eq. 9 theory columns
alongside, so live and simulated runs are directly comparable (the
``L1`` experiment diffs exactly these columns).

Wall-clock tolerances: a live run is *not* deterministic — scheduler
jitter moves individual packets — but the paper's steady-state
quantities (per-flow rate vs ``r* = C/N + α/β``, the delay ordering
green ≤ yellow ≤ red) are robust to it; the defaults here (2 flows,
2 mb/s PELS capacity) converge within a few seconds.
"""

from __future__ import annotations

import asyncio
import statistics
from dataclasses import dataclass, field
from typing import List, Optional

from ..cc.mkc import mkc_equilibrium_loss, mkc_stationary_rate
from ..control.meta import MetaController, MetaControllerConfig
from ..core.clock import WallClock
from ..core.flow import frame_receptions
from ..core.pels_queue import PelsQueueConfig
from ..obs.monitor import EpochObservation
from ..core.report import FlowReport, SessionReport
from ..obs.trace import current_tracer
from ..sim.packet import Color
from ..video.fgs import FgsConfig
from ..video.psnr import PsnrResult, reconstruct_psnr
from ..video.traces import generate_foreman_like
from .client import LiveClient
from .router import LiveRouter
from .server import LiveServer

__all__ = ["LiveConfig", "LiveSessionResult", "run_live_session",
           "build_live_report"]


@dataclass
class LiveConfig:
    """Parameters of a live loopback run.

    Defaults mirror the simulator's ``PelsScenario``: a 4 mb/s
    bottleneck with 50% WRR share for PELS (C = 2 mb/s), MKC with
    α = 20 kb/s and β = 0.5, gamma control with σ = 0.5 and
    p_thr = 0.75, feedback every T = 30 ms, flows starting at 128 kb/s,
    and CBR cross traffic keeping the Internet FIFO backlogged.
    """

    n_flows: int = 2
    duration: float = 5.0
    host: str = "127.0.0.1"

    controller_name: str = "mkc"
    alpha_bps: float = 20_000.0
    beta: float = 0.5
    initial_rate_bps: float = 128_000.0
    max_rate_bps: float = 10_000_000.0

    sigma: float = 0.5
    p_thr: float = 0.75
    gamma0: float = 0.5
    gamma_low: float = 0.05
    gamma_high: float = 0.95

    bottleneck_bps: float = 4_000_000.0
    queue: PelsQueueConfig = field(default_factory=PelsQueueConfig)
    feedback_interval: float = 0.030
    feedback_window: int = 5

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

    #: Online meta-control (``pels live --tune``): a periodic task
    #: samples the flows and router and PID-tunes alpha/sigma through
    #: the same seam the simulator uses.  Off by default.
    tune: bool = False
    tune_config: Optional[MetaControllerConfig] = None
    #: Wall seconds between tuner samples (the PID's own
    #: update-interval gating still applies on top).
    tune_interval: float = 0.25

    def pels_capacity_bps(self) -> float:
        """The PELS share of the bottleneck (``C`` of Eq. 11)."""
        return self.bottleneck_bps * self.queue.pels_share()

    def lemma6_rate_bps(self) -> float:
        """The oracle the live equilibrium is checked against."""
        return mkc_stationary_rate(self.pels_capacity_bps(), self.n_flows,
                                   self.alpha_bps, self.beta)

    def controller_kwargs(self) -> dict:
        kwargs = {"initial_rate_bps": self.initial_rate_bps,
                  "max_rate_bps": self.max_rate_bps}
        if self.controller_name == "mkc":
            kwargs.update(alpha_bps=self.alpha_bps, beta=self.beta)
        return kwargs

    def gamma_kwargs(self) -> dict:
        return {"sigma": self.sigma, "p_thr": self.p_thr,
                "gamma0": self.gamma0, "gamma_low": self.gamma_low,
                "gamma_high": self.gamma_high}


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


def _live_observation(server: LiveServer, router: LiveRouter,
                      r_star: float, now: float) -> EpochObservation:
    """The live counterpart of :func:`repro.obs.monitor.observe_epoch`."""
    flows = list(server.flows.values())
    rates = tuple(flow.controller.rate_bps for flow in flows)
    mean_rate = sum(rates) / len(rates) if rates else 0.0
    conv = (mean_rate - r_star) / r_star if r_star else 0.0
    max_abs = max((abs(r - r_star) / r_star for r in rates),
                  default=0.0) if r_star else 0.0
    loss = router.feedback.loss
    gammas = [flow.gamma_controller for flow in flows]
    mean_gamma = sum(g.gamma for g in gammas) / len(gammas) if gammas else 0.0
    clamped = max(0.0, loss)
    innovation = sum(abs(g.expected_fixed_point(clamped) - g.gamma)
                     for g in gammas) / len(gammas) if gammas else 0.0
    drops = {color.name.lower(): router.drops[color]
             for color in (Color.GREEN, Color.YELLOW, Color.RED)}
    return EpochObservation(
        t=now, r_star=r_star, rates_bps=rates, mean_rate_bps=mean_rate,
        conv_error=conv, max_abs_conv_error=max_abs, virtual_loss=loss,
        mean_gamma=mean_gamma, gamma_innovation=innovation, drops=drops)


async def _run(config: LiveConfig) -> LiveSessionResult:
    clock = WallClock()
    tracer = current_tracer()
    if tracer is not None:
        tracer.bind_clock(clock)
    loop = asyncio.get_running_loop()

    client = LiveClient(clock, green_packets=config.fgs.green_packets)
    client_transport, _ = await loop.create_datagram_endpoint(
        lambda: client, local_addr=(config.host, 0))
    client_addr = client_transport.get_extra_info("sockname")[:2]

    router = LiveRouter(clock, config.bottleneck_bps, config.queue,
                        interval=config.feedback_interval,
                        window_intervals=config.feedback_window,
                        service_tick=config.service_tick)
    router_transport, _ = await loop.create_datagram_endpoint(
        lambda: router, local_addr=(config.host, 0))
    router.dst_addr = client_addr
    router_addr = router_transport.get_extra_info("sockname")[:2]

    cbr = config.cbr_rate_bps if config.cross_traffic == "cbr" else 0.0
    server = LiveServer(clock, config.n_flows,
                        controller_name=config.controller_name,
                        controller_kwargs=config.controller_kwargs(),
                        gamma_kwargs=config.gamma_kwargs(),
                        fgs=config.fgs, cbr_rate_bps=cbr,
                        pace_tick=config.pace_tick, seed=config.seed)
    server_transport, _ = await loop.create_datagram_endpoint(
        lambda: server, local_addr=(config.host, 0))
    server.dst_addr = router_addr
    client.server_addr = server_transport.get_extra_info("sockname")[:2]

    router.start()
    server.start()

    meta: Optional[MetaController] = None
    tuner: Optional[asyncio.Task] = None
    if config.tune:
        meta = MetaController(config.tune_config or MetaControllerConfig())
        r_star = config.lemma6_rate_bps()
        bound_meta = meta

        async def _tune_loop() -> None:
            bound = False
            while True:
                await asyncio.sleep(config.tune_interval)
                flows = list(server.flows.values())
                if not flows:
                    continue
                if not bound:
                    bound_meta.bind(
                        [flow.controller for flow in flows],
                        [flow.gamma_controller for flow in flows], r_star)
                    bound = True
                obs = _live_observation(server, router, r_star, clock.now)
                bound_meta.step(obs, clock.now)

        tuner = asyncio.ensure_future(_tune_loop())

    try:
        await asyncio.sleep(config.duration)
        await server.stop()
        # Let queued datagrams drain and final ACKs land before the
        # clock stops; the router keeps serving during the drain.
        await asyncio.sleep(config.drain)
    finally:
        if tuner is not None:
            tuner.cancel()
        await server.stop()
        await router.stop()
        elapsed = clock.now
        server_transport.close()
        router_transport.close()
        client_transport.close()
    return LiveSessionResult(config=config, server=server, client=client,
                             router=router, elapsed=elapsed, meta=meta)


def run_live_session(config: Optional[LiveConfig] = None
                     ) -> LiveSessionResult:
    """Run one loopback session to completion (blocking entry point)."""
    return asyncio.run(_run(config or LiveConfig()))


def build_live_report(result: LiveSessionResult,
                      warmup_fraction: float = 0.5) -> SessionReport:
    """Summarize a live run into the simulator's report shape.

    ``warmup_fraction`` of the elapsed time is excluded from every
    average so the report reflects the converged regime, matching
    :func:`repro.core.report.build_report`.
    """
    if not 0 <= warmup_fraction < 1:
        raise ValueError("warmup fraction must be in [0, 1)")
    config = result.config
    now = result.elapsed
    warmup = now * warmup_fraction

    capacity = config.pels_capacity_bps()
    p_theory = mkc_equilibrium_loss(capacity, config.n_flows,
                                    config.alpha_bps, config.beta)
    r_theory = config.lemma6_rate_bps()
    router = result.router
    red_arrivals = router.arrivals[Color.RED]
    red_loss = (router.drops[Color.RED] / red_arrivals
                if red_arrivals else None)

    # Union of both endpoints' flow ids: a flow rejected by admission
    # (or registered but never streamed) exists only server-side with
    # zero frames; one torn down mid-run may have client-side state the
    # server already forgot.  Either way the report carries a partial
    # row instead of raising.
    flows: List[FlowReport] = []
    flow_ids = sorted(set(result.server.flows) | set(result.client.flows))
    for flow_id in flow_ids:
        flow = result.server.flows.get(flow_id)
        receiver = result.client.flow(flow_id)
        if flow is None:
            delays = {}
            for color in (Color.GREEN, Color.YELLOW, Color.RED):
                probe = receiver.delay_probes[color]
                if probe.count:
                    delays[color.name.lower()] = probe.mean * 1000
            flows.append(FlowReport(
                flow_id=flow_id, mean_rate_bps=float("nan"),
                gamma=float("nan"), packets_sent=0, frames_sent=0,
                mean_utility=float("nan"),
                base_intact_ratio=float("nan"), delays_ms=delays))
            continue
        warmup_frames = int(flow.frames_sent * warmup_fraction)
        receptions = [r for r in
                      frame_receptions(flow, receiver)[warmup_frames:]
                      if r.enhancement_sent]
        utilities = [r.utility() for r in receptions]
        intact = [1.0 if r.base_intact else 0.0 for r in receptions]
        delays = {}
        for color in (Color.GREEN, Color.YELLOW, Color.RED):
            probe = receiver.delay_probes[color]
            if probe.count:
                delays[color.name.lower()] = probe.mean * 1000
        flows.append(FlowReport(
            flow_id=flow_id,
            mean_rate_bps=flow.rate_series.mean(warmup, now),
            gamma=flow.gamma_series.mean(warmup, now),
            packets_sent=flow.packets_sent,
            frames_sent=flow.frames_sent,
            mean_utility=statistics.mean(utilities) if utilities
            else float("nan"),
            base_intact_ratio=statistics.mean(intact) if intact
            else float("nan"),
            delays_ms=delays,
            stale_discarded=flow.tracker.stale_discarded,
            blind_intervals=flow.blind_intervals,
            rate_freezes=flow.rate_freezes,
        ))

    return SessionReport(
        n_flows=config.n_flows,
        duration_s=now,
        pels_capacity_bps=capacity,
        virtual_loss=router.mean_virtual_loss(warmup),
        virtual_loss_theory=p_theory,
        rate_theory_bps=r_theory,
        red_loss=red_loss,
        p_thr=config.p_thr,
        drops={"green": router.drops[Color.GREEN],
               "yellow": router.drops[Color.YELLOW],
               "red": router.drops[Color.RED]},
        flows=flows,
    )
