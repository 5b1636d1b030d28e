"""Parallel fluid sweeps with deterministic output.

Experiments that integrate many independent :class:`FluidScenario`
instances (S1's population ladder, S2's capacity-planning grid) funnel
through :func:`sweep_fluid`: scenarios go in, compact
:class:`FluidSummary` objects come out, **in input order**, whether the
batch ran serially or fanned out over ``core/proc.py`` task children
(so a killed sweep takes its chunks down with it).  Workers return
summaries — the sampled mean-rate/gamma series plus terminal router
state — rather than full :class:`repro.fluid.engine.FluidResult`
objects, so the pickle traffic per scenario stays a few kilobytes even
for million-flow runs.

Determinism contract: a summary depends only on the scenario and the
backend, never on scheduling, so rendered experiment output is
byte-identical between ``jobs=1`` and any ``jobs/chunk`` split on the
same host.  Wall-clock and RSS fields are carried for the metrics
block (stderr) and must never reach rendered tables.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core import proc
from ..fluid.engine import FluidEngine, convergence_time, tail_mean
from ..fluid.scenario import FluidScenario

__all__ = ["FluidSummary", "sweep_fluid"]


@dataclass
class FluidSummary:
    """Worker-side reduction of one fluid run (pool-pickle friendly)."""

    times: List[float]
    mean_rate_bps: List[float]
    gamma_mean: List[float]
    router_loss_final: List[float]
    bottleneck_final: int
    n_epochs: int
    n_flows: int
    n_routers: int
    n_paths: int
    n_segments: int
    backend: str
    wall_time: float
    peak_rss_bytes: Optional[int]

    def tail_mean_rate(self, frac: float = 0.2) -> float:
        return tail_mean(self.mean_rate_bps, frac)

    def epochs_per_second(self) -> float:
        return self.n_epochs / self.wall_time if self.wall_time else 0.0

    def wall_per_sim_second(self, duration: float) -> float:
        return self.wall_time / duration

    def convergence_time(self, target: float,
                         rel_tol: float = 0.02) -> Optional[float]:
        return convergence_time(self.times, self.mean_rate_bps, target,
                                rel_tol)


def _summarize(engine: FluidEngine) -> FluidSummary:
    result = engine.run()
    s = engine.scenario
    return FluidSummary(
        times=result.times,
        mean_rate_bps=result.mean_rate_bps,
        gamma_mean=result.gamma_mean,
        router_loss_final=list(result.router_loss[-1]),
        bottleneck_final=result.bottleneck[-1],
        n_epochs=result.n_epochs,
        n_flows=s.n_flows,
        n_routers=len(s.capacities_bps),
        n_paths=s.n_paths(),
        n_segments=engine.n_segments,
        backend=result.backend,
        wall_time=result.wall_time,
        peak_rss_bytes=result.peak_rss_bytes,
    )


def _run_chunk(scenarios: List[FluidScenario],
               backend: Optional[str]) -> List[FluidSummary]:
    """Task entry point: integrate one chunk of scenarios in order."""
    return [_summarize(FluidEngine(sc, backend=backend))
            for sc in scenarios]


def _run_chunk_isolated(scenarios: List[FluidScenario],
                        backend: Optional[str]) -> List[FluidSummary]:
    outcome = proc.run_task(_run_chunk, (scenarios, backend))
    if outcome.kind != "ok":
        raise RuntimeError("sweep chunk child exited without a result "
                           f"(exitcode {outcome.exitcode})")
    return outcome.value


def sweep_fluid(scenarios: Sequence[FluidScenario],
                backend: Optional[str] = None, jobs: int = 1,
                chunk: Optional[int] = None) -> List[FluidSummary]:
    """Integrate every scenario; summaries come back in input order.

    ``jobs > 1`` fans chunks of scenarios out, each to a disposable
    ``proc.run_task`` child babysat by a pool thread (the shape
    ``runner.run_all`` uses); each child constructs one engine per
    scenario and ships back only the summaries.  ``chunk`` sets the
    scenarios-per-task granularity (default: an even split over the
    workers — one task per worker).  Serial and parallel runs produce
    identical summaries.
    """
    scenarios = list(scenarios)
    if chunk is not None and chunk < 1:
        raise ValueError("chunk must be >= 1")
    if jobs <= 1 or len(scenarios) <= 1:
        return _run_chunk(scenarios, backend)
    if chunk is None:
        chunk = max(1, -(-len(scenarios) // jobs))
    chunks = [scenarios[i:i + chunk]
              for i in range(0, len(scenarios), chunk)]
    with ThreadPoolExecutor(max_workers=min(jobs, len(chunks))) as pool:
        parts = pool.map(_run_chunk_isolated, chunks,
                         [backend] * len(chunks))
        return [summary for part in parts for summary in part]
