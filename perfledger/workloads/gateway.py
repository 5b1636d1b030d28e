"""``live_gateway_load``: 400 paced MKC flows through the gateway.

``run_load(LoadConfig(flows=400, shards=1, duration=2.5))`` per rep:
admission -> grouped pacer -> shard -> client -> ACK decode -> Eq. 8 /
Eq. 4.  The same live layer as ``live_shard_flood`` used the other way:
only a few thousand packets per second cross the router, which idles,
and about three quarters of the CPU is the driver process (pacer, ACK
path, client).  A drain/recv optimisation of the shard predicts **no
change** here; a pacer/ACK one moves here and not in the flood.

The generator is the repo's own ``LiveServer`` inside ``run_load``: one
process, one event loop.  The seed feeds ``LoadConfig.seed``.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.clock import WallClock
from repro.core.pels_queue import PelsQueueConfig
from repro.live.client import LiveClient
from repro.live.gateway import LiveGateway, TenantPolicy
from repro.live.loadgen import LoadConfig, LoadResult, run_load
from repro.live.server import LiveServer
from repro.live.shard import RouterShard, ShardConfig

from ..harness import HostSpeed, self_peak_rss_mb
from ..spans import SpanRecorder
from . import Outcome

__all__ = ["setup", "run", "teardown", "load_config"]

FLOWS = 400
REP_DURATION_S = 2.5


#: ``run_load``'s own queue shape with a deeper green buffer (256 ->
#: 2,048).  On a bad minute the shared host stalls a process for
#: 200-300 ms; the pacer then catches up in a burst and a 256-packet
#: green queue overflows (3 runs in ~130 did).  The zero-green-drop gate
#: is there to catch a base layer lost to a logic error, not to a stall,
#: and 2,048 packets are 1.7 s of this workload's green traffic.
QUEUE = dict(pels_weight=1.0, internet_weight=1e-6, green_buffer=2048,
             yellow_buffer=512, red_buffer=64, internet_buffer=16)


def load_config(seed: int) -> LoadConfig:
    return LoadConfig(flows=FLOWS, shards=1, duration=REP_DURATION_S,
                      seed=seed, queue=PelsQueueConfig(**QUEUE))


@dataclass
class Context:
    config: LoadConfig
    shards: List[RouterShard] = field(default_factory=list)


def setup(workload: str, seed: int) -> Context:
    """What ``run_load`` does before the first packet: spawn the shard,
    admit every flow.  (``run_load`` owns its own shard, so the run
    repeats this; here it is timed in isolation as set-up.)"""
    config = load_config(seed)
    shard = RouterShard(ShardConfig(
        shard_id=1, host=config.host,
        bottleneck_bps=config.shard_capacity_bps()
        / config.queue.pels_share(),
        queue=config.queue)).start()
    ctx = Context(config, [shard])
    gateway = LiveGateway(
        WallClock(), [shard], flow_reserve_bps=config.flow_share_bps,
        default_policy=TenantPolicy(max_flows=FLOWS,
                                    registration_rate=1_000_000.0,
                                    registration_burst=FLOWS))
    for flow_key in range(FLOWS):
        gateway.register(config.tenant_of(flow_key), flow_key,
                         (config.host, 9))
    return ctx


def teardown(ctx: Context) -> None:
    for shard in ctx.shards:
        shard.stop()
    ctx.shards.clear()


@dataclass
class Rep:
    #: CPU seconds of this (the driver) process over the rep.
    driver_cpu_s: float
    result: LoadResult

    @property
    def cpu_s(self) -> float:
        """Driver-process plus shard CPU (raw seconds)."""
        return self.driver_cpu_s + self.result.cpu_seconds


#: Calibrations before and after every rep, 20 ms apart.
CAL_PER_GAP = 8


def calibrate_gap(speed: HostSpeed) -> None:
    for _ in range(CAL_PER_GAP):
        speed.sample()
        time.sleep(0.02)


def one_rep(config: LoadConfig, recorder: SpanRecorder,
            speed: Optional[HostSpeed] = None) -> Rep:
    """One ``run_load``; with ``speed``, calibrated on both sides (only
    the traced run's CPU row needs the scale)."""
    gc.collect()
    if speed is not None:
        calibrate_gap(speed)
    cpu0 = time.process_time()
    with recorder.span("live.loadgen.run_load"):
        result = run_load(config)
    used = time.process_time() - cpu0
    if speed is not None:
        calibrate_gap(speed)
    return Rep(used, result)


def check_reps(reps: List[Rep], notes: List[str]) -> int:
    """Failed flows: those not admitted, and every flow of a rep that
    saw a green drop (the base layer is never to be lost)."""
    failed = 0
    for index, rep in enumerate(reps):
        result = rep.result
        failed += FLOWS - result.admitted
        if result.admitted != FLOWS:
            notes.append(f"GATE FAILED rep {index}: admitted "
                         f"{result.admitted}/{FLOWS} ({result.rejected})")
        if result.green_drops:
            failed += result.admitted
            notes.append(f"GATE FAILED rep {index}: "
                         f"{result.green_drops} green drops")
    return failed


def run(ctx: Context, seconds: float, seed: int, traced: bool) -> Outcome:
    outcome = Outcome()
    teardown(ctx)  # run_load spawns its own shard
    config = ctx.config
    idle = SpanRecorder(keep=0)
    speed = HostSpeed() if traced else None
    reps: List[Rep] = []
    deadline = time.perf_counter() + (seconds if not traced
                                      else seconds / 2)
    while not reps or (time.perf_counter()
                       + REP_DURATION_S * 0.5 < deadline):
        reps.append(one_rep(config, idle, speed))
    flow_seconds = FLOWS * REP_DURATION_S
    if traced:
        recorder = SpanRecorder()
        recorder.wrap(LiveServer, "datagram_received", "live.server.ack")
        recorder.wrap(LiveClient, "datagram_received", "live.client.recv")
        recorder.wrap(LiveGateway, "register", "live.gateway.register")
        try:
            rep = one_rep(config, recorder, speed)
        finally:
            recorder.unwrap_all()
        result = rep.result
        cpu_total = rep.cpu_s
        ack = recorder.total("live.server.ack")
        recv = recorder.total("live.client.recv")
        untraced = statistics.median(r.cpu_s for r in reps)
        outcome.layers = {
            "live.gateway.admit_per_s": result.flows_per_sec,
            "live.gateway.register_calls":
                recorder.count("live.gateway.register"),
            "live.server.ack_calls": recorder.count("live.server.ack"),
            "live.server.ack_busy_share": ack / cpu_total,
            "live.client.recv_calls": recorder.count("live.client.recv"),
            "live.client.recv_busy_share": recv / cpu_total,
            "live.server.pacer_residual_share":
                (rep.driver_cpu_s - ack - recv) / cpu_total,
            "live.shard.gw_cpu_share": result.cpu_seconds / cpu_total,
            "live.gateway.cpu_us_per_flow_s":
                untraced * speed.scale / flow_seconds * 1e6,
            "live.client.green_delay_ms_p99":
                result.delays["green"]["p99_ms"],
            "live.gateway.goodput_ratio": result.goodput_vs_oracle,
            "ledger.accounted_share": 1.0,
            "ledger.trace_overhead_share": rep.cpu_s / untraced - 1.0,
        }
        outcome.recorder = recorder
        reps.append(rep)
    else:
        outcome.samples = {
            "work_per_s": [rep.result.aggregate_goodput_bps
                           for rep in reps],
            # A stalled host only ever lengthens a one-way delay, so
            # the least disturbed rep speaks for the run.
            "latency_ms_p50": [min(rep.result.delays["green"]["p50_ms"]
                                   for rep in reps)],
            "peak_rss_mb": [self_peak_rss_mb()],
        }
    outcome.raw = {"cpu_s_per_rep": statistics.median(r.cpu_s
                                                      for r in reps)}
    outcome.attempted = FLOWS * len(reps)
    outcome.failed = check_reps(reps, outcome.notes)
    first = reps[0].result
    outcome.notes.append(
        "green delay p50 per rep (ms): " + " ".join(
            f"{rep.result.delays['green']['p50_ms']:.2f}" for rep in reps))
    outcome.notes.append(
        f"{len(reps)} rep(s) x {REP_DURATION_S:g} s: goodput/oracle "
        f"{first.goodput_vs_oracle:.4f}, green delay p99 "
        f"{first.delays['green']['p99_ms']:.2f} ms over "
        f"{int(first.delays['green']['count'])} samples, driver CPU "
        f"{reps[0].driver_cpu_s:.2f} s + shard {first.cpu_seconds:.2f} s")
    return outcome
