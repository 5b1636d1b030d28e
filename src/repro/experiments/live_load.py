"""L2 — gateway load: hundreds of live flows across router shards.

L1 shows two live flows land on the Lemma 6 operating point; L2
shows the *same stack scaled three orders of magnitude in population*
still does.  Each cell of the sweep drives ``flows`` concurrent live
PELS streams through the admission gateway onto ``shards`` router
shard processes (one bottleneck per process, capacity sized linearly
in its expected population so the per-flow operating point is scale-
invariant — see :mod:`repro.live.loadgen`) and checks:

* every requested flow is admitted (the gateway's budgets are sized
  for the population, and placement hashing spreads it);
* the green band takes **zero drops** on every shard — base-layer
  protection must survive population scale, not just two flows;
* aggregate delivered goodput lands within 15% of the Lemma 6 oracle
  ``sum_s min(C_s, N_s * r*_s)``;
* per-shard fairness (min/max delivered per-flow rate) stays above a
  floor — the bottleneck shares capacity, it does not starve tails.

Reported alongside: admission throughput (flows/sec through the
gateway), p50/p99 per-color one-way delay over the measurement window
(the p99 *green* delay is the paper-level quality headline: the base
layer rides the strict-priority queue even at 800 flows), and CPU
seconds per flow across the shard pool.

This is wall-clock and therefore not byte-deterministic; every
cell asserts steady-state bands, not exact bytes.  The full sweep
scales flows and shards together — (50, 1), (200, 2), (800, 4) — so
per-shard load stays in the regime a single shard process handles with
headroom and what varies is exactly what sharding is for.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..live.loadgen import LoadConfig, LoadResult, run_load
from .common import ExperimentResult, check

__all__ = ["run", "SWEEP", "FAST_SWEEP", "GOODPUT_TOLERANCE",
           "FAIRNESS_FLOOR"]

#: (flows, shards) cells of the full sweep.
SWEEP: Sequence[Tuple[int, int]] = ((50, 1), (200, 2), (800, 4))

#: CI-sized cells: small populations, still multi-shard.
FAST_SWEEP: Sequence[Tuple[int, int]] = ((20, 1), (60, 2))

#: Acceptance band around the Lemma 6 delivered-goodput oracle.
GOODPUT_TOLERANCE = 0.15

#: Worst acceptable min/max delivered-rate ratio inside one shard.
#: Looser than a simulator fairness bound: short windows + scheduler
#: jitter move individual flows, and the check guards against
#: starvation, not jitter.
FAIRNESS_FLOOR = 0.35

#: Deterministic admission/jitter schedule for every cell.
SEED = 42


def _cell(flows: int, shards: int, duration: float) -> LoadResult:
    return run_load(LoadConfig(flows=flows, shards=shards,
                               duration=duration, seed=SEED))


def run(fast: bool = False,
        sweep: Optional[Sequence[Tuple[int, int]]] = None
        ) -> ExperimentResult:
    cells = tuple(sweep) if sweep is not None \
        else (FAST_SWEEP if fast else SWEEP)
    duration = 5.0 if fast else 10.0

    result = ExperimentResult(
        "L2", "Gateway load: sharded live PELS vs Lemma 6 at scale")

    rows: List[list] = []
    for flows, shards in cells:
        load = _cell(flows, shards, duration)
        tag = f"f{flows}_s{shards}"
        green = load.delays["green"]
        worst_fairness = min(
            (s.fairness for s in load.per_shard if s.n_flows),
            default=float("nan"))
        rows.append([
            flows, shards, load.admitted,
            round(load.flows_per_sec),
            load.aggregate_goodput_bps / 1e3,
            load.goodput_vs_oracle,
            green["p50_ms"], green["p99_ms"],
            load.green_drops,
            load.cpu_seconds_per_flow,
            worst_fairness,
        ])

        check(result, f"{tag}_admitted", float(load.admitted),
              float(flows), 0.0)
        check(result, f"{tag}_green_drops", float(load.green_drops),
              0.0, 0.0)
        check(result, f"{tag}_goodput_vs_oracle", load.goodput_vs_oracle,
              1.0, GOODPUT_TOLERANCE)
        fairness_ok = 1.0 if worst_fairness >= FAIRNESS_FLOOR else 0.0
        check(result, f"{tag}_fairness_ok", fairness_ok, 1.0, 0.0)

        result.metrics[f"{tag}_flows_per_sec"] = load.flows_per_sec
        result.metrics[f"{tag}_goodput_bps"] = load.aggregate_goodput_bps
        result.metrics[f"{tag}_oracle_bps"] = load.oracle_goodput_bps
        result.metrics[f"{tag}_green_p99_ms"] = green["p99_ms"]
        result.metrics[f"{tag}_green_p50_ms"] = green["p50_ms"]
        result.metrics[f"{tag}_cpu_s_per_flow"] = load.cpu_seconds_per_flow
        result.metrics[f"{tag}_worst_fairness"] = worst_fairness
        for color in ("yellow", "red"):
            result.metrics[f"{tag}_{color}_p99_ms"] = \
                load.delays[color]["p99_ms"]
        for shard in load.per_shard:
            result.metrics[
                f"{tag}_shard{shard.shard_id}_vs_oracle"] = \
                shard.goodput_vs_oracle

        if load.green_drops:
            result.note(f"DIVERGES: green band dropped "
                        f"{load.green_drops} packet(s) at "
                        f"{flows} flows / {shards} shard(s)")

    result.add_table(
        ["flows", "shards", "admitted", "adm/s", "goodput kb/s",
         "vs oracle", "green p50 ms", "green p99 ms", "green drops",
         "cpu s/flow", "fairness"], rows,
        title=f"{len(cells)} load cells, {duration:.0f}s wall clock each, "
              f"seed {SEED}")

    result.note("goodput oracle: sum over shards of "
                "min(C_s, N_s * (C_s/N_s + alpha/beta)) — Lemma 6 "
                "applied to each shard's admitted population")
    result.note("wall-clock run: admission order and shard placement "
                "are deterministic (seeded); packet timings are not")
    return result
