"""``sim_cbr_100`` and ``sim_tcp_4``: the packet simulator, used two ways.

``sim_cbr_100``: 100 PELS flows against a backlogged CBR aggregate on a
40 Mb/s bar-bell.  Deep event heap; the per-packet link ->
``PelsBottleneckQueue`` -> sink chain and the handle-free
``call_later`` tier do almost all the work.

``sim_tcp_4``: 4 PELS flows against 8 Reno sources on 10 Mb/s.  Same
engine used differently: cancellable ``schedule()`` with a
retransmit-timer re-arm per ACK, reverse-path traffic, a shallow heap.
A ``call_later``/queue-chain gain that taxes handles or cancellation
shows here as a loss.

One rep builds the simulation and runs it to its horizon in equal
slices of simulated time (``PelsSimulation.run(until=...)``), with a
calibration loop between slices — see ``harness.measure``.  The seed
feeds ``PelsScenario.seed`` and draws every flow's start time.
"""

from __future__ import annotations

import functools
import gc
import json
import random
import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cc.mkc import MkcController, mkc_stationary_rate
from repro.cc.tcp import TcpSink, TcpSource
from repro.core.feedback import FeedbackComputer, RouterFeedback
from repro.core.gamma import GammaController
from repro.core.pels_queue import PelsBottleneckQueue
from repro.core.session import PelsScenario, PelsSimulation
from repro.core.sink import PelsSink
from repro.core.source import PelsSource
from repro.sim.engine import Event, Simulator
from repro.sim.link import Link
from repro.sim.node import Router
from repro.sim.topology import BarbellConfig

from ..harness import (LEDGER_DIR, Timing, measure, repeat_for,
                       self_peak_rss_mb)
from ..spans import SpanRecorder
from . import Outcome

__all__ = ["setup", "run", "teardown", "SHAPES", "build_scenario"]

#: Flow start times are drawn uniformly from [0, START_SPREAD_S).
START_SPREAD_S = 1.0
#: Largest tolerated relative error of the mean flow rate against the
#: Lemma 6 stationary rate over the tail of the run.
LEMMA6_TOL = 0.02
#: Share of the run, at its end, the Lemma 6 check averages over.
LEMMA6_TAIL = 0.3
#: Seed at which the event counts in ``golden.json`` were recorded.
GOLDEN_SEED = 1


@dataclass(frozen=True)
class Shape:
    n_flows: int
    duration: float
    #: Equal simulated-time slices one rep is cut into.
    slices: int
    bottleneck_bps: float
    cross_traffic: str
    cbr_rate_bps: float = 3_000_000.0
    tcp_flows: int = 2


SHAPES: Dict[str, Shape] = {
    # ~0.36 M events, ~1 s per rep on the reference host.
    "sim_cbr_100": Shape(n_flows=100, duration=7.0, slices=14,
                         bottleneck_bps=40e6, cross_traffic="cbr",
                         cbr_rate_bps=25e6),
    # ~0.25 M events, ~0.75 s per rep.
    "sim_tcp_4": Shape(n_flows=4, duration=20.0, slices=20,
                       bottleneck_bps=10e6, cross_traffic="tcp",
                       tcp_flows=8),
}


def build_scenario(workload: str, seed: int) -> PelsScenario:
    shape = SHAPES[workload]
    rng = random.Random(seed)
    starts = [rng.uniform(0.0, START_SPREAD_S)
              for _ in range(shape.n_flows)]
    return PelsScenario(
        n_flows=shape.n_flows, duration=shape.duration, seed=seed,
        start_times=starts,
        topology=BarbellConfig(bottleneck_bps=shape.bottleneck_bps),
        cross_traffic=shape.cross_traffic,
        cbr_rate_bps=shape.cbr_rate_bps, tcp_flows=shape.tcp_flows)


@dataclass
class Context:
    workload: str
    scenario: PelsScenario
    #: Built by ``setup`` so construction is part of ``setup_s``; the
    #: first rep runs it, later reps build their own.
    first: Optional[PelsSimulation]


def setup(workload: str, seed: int) -> Context:
    scenario = build_scenario(workload, seed)
    return Context(workload, scenario, PelsSimulation(scenario))


def teardown(ctx: Context) -> None:
    ctx.first = None


@dataclass
class Rep:
    """Scalars only: holding every rep's simulation would make the peak
    RSS grow with the number of reps a run fits."""

    timing: Timing
    events: int
    rate_sum: float
    lemma6_err: float
    #: Bottleneck drops by colour (green, yellow, red).
    drops: Tuple[int, int, int]


def one_rep(ctx: Context) -> Rep:
    scenario = ctx.scenario
    simulation, ctx.first = ctx.first, None
    if simulation is None:
        simulation = PelsSimulation(scenario)
    shape = SHAPES[ctx.workload]
    step = scenario.duration / shape.slices
    horizons = [step * (k + 1) for k in range(shape.slices - 1)]
    horizons.append(scenario.duration)
    gc.collect()
    timing = measure(functools.partial(simulation.run, until=horizon)
                     for horizon in horizons)
    rates = simulation.flow_rates_bps()
    r_star = mkc_stationary_rate(scenario.pels_capacity_bps(),
                                 scenario.n_flows, scenario.alpha_bps,
                                 scenario.beta)
    # Per-frame controller rates over the run's tail: the instantaneous
    # rates ride the Eq. 8 sawtooth (and TCP's, in sim_tcp_4).
    tail_from = scenario.duration * (1.0 - LEMMA6_TAIL)
    tail = [source.rate_series.mean(tail_from) for source in
            simulation.sources]
    err = abs(sum(tail) / len(tail) / r_star - 1.0)
    queue = simulation.bottleneck_queue
    drops = (queue.green_queue.stats.drops, queue.yellow_queue.stats.drops,
             queue.red_queue.stats.drops)
    return Rep(timing, simulation.sim.events_dispatched, sum(rates), err,
               drops)


def golden_events(workload: str) -> Optional[int]:
    with open(LEDGER_DIR / "golden.json") as handle:
        return json.load(handle).get(workload, {}).get("events")


def check_reps(ctx: Context, seed: int, reps: List[Rep],
               notes: List[str]) -> int:
    """Number of reps failing a gate: fingerprint (events, rate sum)
    not identical to the first rep's — or, at the golden seed, to the
    recorded event count — or Lemma 6 error at or above 2 %."""
    events, rate_sum = reps[0].events, reps[0].rate_sum
    if seed == GOLDEN_SEED:
        golden = golden_events(ctx.workload)
        if golden is not None:
            events = golden
    failed = 0
    for index, rep in enumerate(reps):
        problems = []
        if rep.events != events:
            problems.append(f"events {rep.events} != {events}")
        if rep.rate_sum != rate_sum:
            problems.append(f"rate sum {rep.rate_sum!r} != {rate_sum!r}")
        if rep.lemma6_err >= LEMMA6_TOL:
            problems.append(f"Lemma 6 error {rep.lemma6_err:.4f}")
        if problems:
            failed += 1
            notes.append(f"GATE FAILED rep {index}: " + "; ".join(problems))
    return failed


# -- traced rep ---------------------------------------------------------------

#: (class, public method, span name) wrapped for the traced rep.
WRAPPED: Tuple[Tuple[type, str, str], ...] = (
    (Simulator, "run", "sim.engine.run"),
    (Simulator, "call_later", "sim.engine.call_later"),
    (Simulator, "schedule", "sim.engine.schedule"),
    (Event, "cancel", "sim.engine.cancel"),
    (Link, "send", "sim.link.send"),
    (Router, "forward", "sim.node.forward"),
    (PelsBottleneckQueue, "enqueue", "core.pels_queue.enqueue"),
    (PelsBottleneckQueue, "dequeue", "core.pels_queue.dequeue"),
    (PelsSink, "receive", "core.sink.receive"),
    (PelsSource, "receive", "core.source.receive"),
    (TcpSource, "receive", "cc.tcp.source_receive"),
    (TcpSink, "receive", "cc.tcp.sink_receive"),
    (RouterFeedback, "observe", "core.feedback.observe"),
    (FeedbackComputer, "close", "core.feedback.close"),
    (MkcController, "on_feedback", "cc.mkc.on_feedback"),
    (GammaController, "update", "core.gamma.update"),
)


def traced_rep(ctx: Context, recorder: SpanRecorder) -> Rep:
    """One rep with the public methods above wrapped at class level.

    The wrappers go in before the simulation is built: links, sinks and
    sources prebind their callees at construction."""
    ctx.first = None
    for cls, method, name in WRAPPED:
        recorder.wrap(cls, method, name)
    try:
        return one_rep(ctx)
    finally:
        recorder.unwrap_all()


def layer_rows(rep: Rep, recorder: SpanRecorder,
               untraced_wall_ref: float) -> Dict[str, float]:
    wall = rep.timing.wall_s

    def share(seconds: float) -> float:
        return seconds / wall

    total, own, count = recorder.total, recorder.self_time, recorder.count
    pels_busy = total("core.pels_queue.enqueue") \
        + total("core.pels_queue.dequeue")
    tcp_busy = total("cc.tcp.source_receive") + total("cc.tcp.sink_receive")
    return {
        "sim.engine.events": rep.events,
        "sim.engine.run_self_share": share(own("sim.engine.run")),
        "sim.engine.call_later_calls": count("sim.engine.call_later"),
        "sim.engine.call_later_self_share":
            share(own("sim.engine.call_later")),
        "sim.engine.schedule_calls": count("sim.engine.schedule"),
        "sim.engine.cancel_calls": count("sim.engine.cancel"),
        "sim.engine.schedule_cancel_self_share":
            share(own("sim.engine.schedule") + own("sim.engine.cancel")),
        "sim.link.send_calls": count("sim.link.send"),
        "sim.link.send_self_share": share(own("sim.link.send")),
        "sim.node.forward_calls": count("sim.node.forward"),
        "sim.node.forward_self_share": share(own("sim.node.forward")),
        "core.pels_queue.enqueue_calls": count("core.pels_queue.enqueue"),
        "core.pels_queue.dequeue_calls": count("core.pels_queue.dequeue"),
        "core.pels_queue.drops_green": rep.drops[0],
        "core.pels_queue.drops_yellow": rep.drops[1],
        "core.pels_queue.drops_red": rep.drops[2],
        "core.pels_queue.busy_share": share(pels_busy),
        "core.sink.receive_calls": count("core.sink.receive"),
        "core.sink.busy_share": share(total("core.sink.receive")),
        "core.source.receive_calls": count("core.source.receive"),
        "core.source.busy_share": share(total("core.source.receive")),
        "cc.tcp.receive_calls": count("cc.tcp.source_receive")
        + count("cc.tcp.sink_receive"),
        "cc.tcp.busy_share": share(tcp_busy),
        "core.feedback.observe_calls": count("core.feedback.observe"),
        "core.feedback.observe_self_share":
            share(own("core.feedback.observe")),
        "core.feedback.epochs": count("core.feedback.close"),
        "cc.mkc.on_feedback_calls": count("cc.mkc.on_feedback"),
        "cc.mkc.on_feedback_self_share": share(own("cc.mkc.on_feedback")),
        "core.gamma.update_calls": count("core.gamma.update"),
        "ledger.accounted_share": share(recorder.accounted()),
        "ledger.trace_overhead_share":
            rep.timing.wall_ref_s / untraced_wall_ref - 1.0,
    }


# -- entry point --------------------------------------------------------------


def run(ctx: Context, seconds: float, seed: int, traced: bool) -> Outcome:
    outcome = Outcome()
    shape = SHAPES[ctx.workload]
    # Untraced reps: all of the run, or the first half of a traced one
    # (they are the baseline the tracing overhead is measured against).
    reps: List[Rep] = repeat_for(seconds if not traced else seconds / 2,
                                 functools.partial(one_rep, ctx))
    walls = [rep.timing.wall_ref_s for rep in reps]
    if traced:
        recorder = SpanRecorder()
        rep = traced_rep(ctx, recorder)
        outcome.layers = layer_rows(rep, recorder,
                                    statistics.median(walls))
        outcome.layers["sim.engine.cpu_us_per_event"] = statistics.median(
            r.timing.cpu_ref_s / r.events * 1e6 for r in reps)
        outcome.recorder = recorder
        reps.append(rep)
    else:
        outcome.samples = {
            "work_per_s": [shape.duration / wall for wall in walls],
            "latency_ms_p50": [wall * 1e3 for wall in walls],
            "peak_rss_mb": [self_peak_rss_mb()],
        }
    outcome.attempted = len(reps)
    outcome.failed = check_reps(ctx, seed, reps, outcome.notes)
    outcome.notes.append(
        f"events/rep {reps[0].events}  rate sum {reps[0].rate_sum:.3f} b/s  "
        f"Lemma 6 err {reps[0].lemma6_err:.4%}  raw wall/rep "
        f"{statistics.median(r.timing.wall_s for r in reps):.3f} s")
    return outcome
