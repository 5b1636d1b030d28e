"""``fluid_fabric``: 10^6 flows across a fat tree in the fluid engine.

``FluidEngine(fat_tree_scenario(120 edges x 8,334 flows, 12 start
waves 2 s apart, 4 delay tiers, 30 s), backend="numpy").run()`` —
1,000,080 flows in 4,320 segments over 1,000 epochs (~0.5 s a rep, so
a 10 s run takes its median over ~18 reps).  The staggered
waves keep the stationarity streak from forming, so integration, not
the equilibrium fast-forward, does the work.  The packet simulator,
the live stack and the service are idle here: their optimisations
predict no change on this workload.

One rep is scenario build + engine construction + run, bracketed by
calibration loops.  The fabric draws no randomness; the seed moves
every edge's per-flow capacity share by up to +-1 % so that runs with
different seeds integrate different (equally large) inputs.
"""

from __future__ import annotations

import gc
import random
import statistics
from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.oracles import check_network_equilibrium
from repro.fluid.engine import FluidEngine
from repro.fluid.scenario import FluidScenario, fat_tree_scenario

from ..harness import Timing, measure, repeat_for, self_peak_rss_mb
from ..spans import SpanRecorder
from . import Outcome

__all__ = ["setup", "run", "teardown", "fabric", "FABRIC", "EPOCHS"]

FABRIC = dict(edge_routers=120, agg_routers=30, core_routers=6,
              flows_per_edge=8334, duration=30.0, start_waves=12,
              wave_interval_s=2.0, delay_tiers=4)
#: ``duration / feedback_interval``; every rep must integrate exactly
#: this many epochs.
EPOCHS = 1000
#: Tolerance of the tail mean rate against the network-equilibrium
#: oracle (Lemma 6 per binding router).
ORACLE_TOL = 0.02
SHARE_BPS = 200_000.0
SHARE_JITTER = 0.01


def fabric(seed: int, **overrides) -> FluidScenario:
    share = SHARE_BPS * (1.0 + random.Random(seed).uniform(
        -SHARE_JITTER, SHARE_JITTER))
    return fat_tree_scenario(**{**FABRIC, "per_flow_share_bps": share,
                                **overrides})


@dataclass
class Context:
    seed: int
    scenario: FluidScenario


def setup(workload: str, seed: int) -> Context:
    # Building the scenario and resolving the backend (the numpy import
    # and probe) are what a user waits for before the first epoch.
    scenario = fabric(seed)
    FluidEngine(scenario, backend="numpy")
    return Context(seed, scenario)


def teardown(ctx: Context) -> None:
    pass


@dataclass
class Rep:
    """Scalars only: holding every rep's ``FluidResult`` would make the
    peak RSS grow with the number of reps a run fits."""

    timing: Timing
    epochs: int
    rate_sum: float
    segments: int
    oracle_ok: bool
    oracle_detail: str


def one_rep(seed: int, recorder: SpanRecorder) -> Rep:
    """Build, construct, run — under three sibling spans so a traced
    rep and an untraced one execute the same code."""
    box: Dict[str, object] = {}

    def body() -> None:
        with recorder.span("fluid.scenario.build"):
            scenario = fabric(seed)
        with recorder.span("fluid.engine.init"):
            engine = FluidEngine(scenario, backend="numpy")
        with recorder.span("fluid.engine.run"):
            box["result"] = engine.run()
        box["scenario"], box["engine"] = scenario, engine

    gc.collect()
    timing = measure([body])
    result = box["result"]
    verdict = check_network_equilibrium(box["scenario"], result,
                                        tol=ORACLE_TOL)
    return Rep(timing, result.n_epochs, sum(result.final_rates),
               box["engine"].n_segments, verdict.ok, verdict.detail)


def check_reps(reps: List[Rep], notes: List[str]) -> int:
    """Reps whose epoch count is not 1,000, whose final-rate sum is not
    identical to the first rep's, or that miss the oracle by >= 2 %."""
    reference = reps[0].rate_sum
    failed = 0
    for index, rep in enumerate(reps):
        problems = []
        if rep.epochs != EPOCHS:
            problems.append(f"n_epochs {rep.epochs} != {EPOCHS}")
        if rep.rate_sum != reference:
            problems.append("final-rate sum differs between reps")
        if not rep.oracle_ok:
            problems.append(f"oracle: {rep.oracle_detail}")
        if problems:
            failed += 1
            notes.append(f"GATE FAILED rep {index}: " + "; ".join(problems))
    return failed


def run(ctx: Context, seconds: float, seed: int, traced: bool) -> Outcome:
    outcome = Outcome()
    idle = SpanRecorder(keep=0)
    reps: List[Rep] = repeat_for(seconds if not traced else seconds / 2,
                                 lambda: one_rep(seed, idle))
    walls = [rep.timing.wall_ref_s for rep in reps]
    n_flows = ctx.scenario.n_flows
    if traced:
        recorder = SpanRecorder()
        rep = one_rep(seed, recorder)
        wall = rep.timing.wall_s
        outcome.layers = {
            "fluid.scenario.build_share":
                recorder.total("fluid.scenario.build") / wall,
            "fluid.scenario.segments": rep.segments,
            "fluid.engine.init_share":
                recorder.total("fluid.engine.init") / wall,
            "fluid.engine.run_share":
                recorder.total("fluid.engine.run") / wall,
            "fluid.engine.epochs": rep.epochs,
            "fluid.engine.segment_epochs_per_s":
                rep.segments * rep.epochs
                / (recorder.total("fluid.engine.run")
                   * rep.timing.wall_ref_s / wall),
            "fluid.engine.cpu_us_per_segment_epoch": statistics.median(
                r.timing.cpu_ref_s / (r.segments * EPOCHS) * 1e6
                for r in reps),
            "ledger.accounted_share":
                recorder.accounted() / wall,
            "ledger.trace_overhead_share":
                rep.timing.wall_ref_s / statistics.median(walls) - 1.0,
        }
        outcome.recorder = recorder
        reps.append(rep)
    else:
        outcome.samples = {
            "work_per_s": [n_flows * EPOCHS / wall for wall in walls],
            "latency_ms_p50": [wall * 1e3 for wall in walls],
            "peak_rss_mb": [self_peak_rss_mb()],
        }
    outcome.attempted = len(reps)
    outcome.failed = check_reps(reps, outcome.notes)
    outcome.notes.append(
        f"{n_flows} flows  {reps[0].segments} segments  "
        f"{reps[0].epochs} epochs  {reps[0].oracle_detail}")
    return outcome
