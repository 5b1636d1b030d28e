"""S2 — CDN capacity planning: 10^6 flows over multi-bottleneck fabrics
(extension).

The ROADMAP's north star is PELS "serving millions of users"; this
experiment actually integrates that population.  The batched fluid
engine collapses flows into deterministic-trajectory segments, so a
million-flow fat tree costs a few hundred segment updates per epoch
and the whole grid — equilibrium rates, transient convergence, router
loss — lands in seconds on one core.

Two topology families from :mod:`repro.fluid.scenario`:

* ``fat-tree``: edge/aggregation/core tiers, every flow crossing three
  routers, edges tight and upper tiers overprovisioned — the binding
  router is the edge, and the network equilibrium oracle
  (:func:`repro.analysis.oracles.network_equilibrium`) predicts each
  path's rate by progressive filling.
* ``chain-grid``: parallel multi-hop chains with per-chain Lemma 6
  operating points (staggered per-flow shares), middle hop tight.

The rendered table compares measured tail rates against the oracle's
closed-form mean; wall-clock, throughput (epochs/s), and peak RSS go
to ``metrics`` (stderr) only, keeping stdout byte-identical across
hosts, backends of equal precision, and serial vs ``--jobs/--chunk``
runs.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..analysis.oracles import network_equilibrium
from ..fluid.scenario import (FluidScenario, chain_grid_scenario,
                              fat_tree_scenario)
from .common import ExperimentResult, check
from .sweep import sweep_fluid

__all__ = ["run"]


def _scenarios(fast: bool) -> List[Tuple[str, FluidScenario]]:
    """The capacity-planning grid: (label, scenario) rows.

    Fast mode keeps the same shapes at toy scale for CI smoke; full
    mode runs the headline 10^6-flow fat tree (120 edges x 8,334 flows
    across 156 routers) plus 10^5-flow variants of both families.
    """
    if fast:
        return [
            ("fat-tree", fat_tree_scenario(
                edge_routers=12, agg_routers=4, core_routers=2,
                flows_per_edge=600, duration=8.0)),
            ("chain-grid", chain_grid_scenario(
                chains=8, hops_per_chain=3, flows_per_chain=400,
                duration=8.0)),
        ]
    return [
        ("fat-tree", fat_tree_scenario(
            edge_routers=60, agg_routers=15, core_routers=3,
            flows_per_edge=1_700, duration=12.0)),
        ("fat-tree-xl", fat_tree_scenario(
            edge_routers=120, agg_routers=30, core_routers=6,
            flows_per_edge=8_334, duration=12.0)),
        ("chain-grid", chain_grid_scenario(
            chains=40, hops_per_chain=3, flows_per_chain=2_500,
            duration=12.0)),
    ]


def run(fast: bool = False, jobs: int = 1,
        chunk: Optional[int] = None) -> ExperimentResult:
    result = ExperimentResult(
        "S2", "CDN capacity planning: 10^6 flows over multi-bottleneck "
              "fabrics (extension)")

    grid = _scenarios(fast)
    # backend="auto" takes the numpy backend when numpy is importable
    # and the stdlib list backend otherwise.  Rendered values round far
    # above the backends' 1e-12-relative disagreement, so the report
    # text does not depend on the choice.
    summaries = sweep_fluid([sc for _label, sc in grid],
                            backend="auto", jobs=jobs, chunk=chunk)

    rows = []
    for (label, scenario), summary in zip(grid, summaries):
        eq = network_equilibrium(scenario)
        tail = summary.tail_mean_rate()
        err = abs(tail - eq.mean_rate_bps) / eq.mean_rate_bps
        conv = summary.convergence_time(target=eq.mean_rate_bps)
        loss_err = max(abs(m - e) for m, e in
                       zip(summary.router_loss_final, eq.router_loss))
        bound = sum(1 for b in eq.path_binding_router if b >= 0)
        rows.append((label, summary.n_flows, summary.n_routers,
                     summary.n_paths, summary.n_segments,
                     "-" if conv is None else round(conv, 2),
                     round(eq.mean_rate_bps / 1e3, 1),
                     round(tail / 1e3, 1), round(err * 100, 4),
                     f"{bound}/{summary.n_paths}"))
        key = label.replace("-", "_")
        check(result, f"rate_{key}", tail, eq.mean_rate_bps, rel_tol=0.02)
        result.metrics[f"loss_err_{key}"] = loss_err
        result.metrics[f"convergence_s_{key}"] = \
            -1.0 if conv is None else conv
        # Cost metrics: stderr only, never the rendered table.
        result.metrics[f"wall_s_{key}"] = summary.wall_time
        result.metrics[f"epochs_per_s_{key}"] = summary.epochs_per_second()
        result.metrics[f"segments_{key}"] = float(summary.n_segments)
        if summary.peak_rss_bytes is not None:
            result.metrics[f"peak_rss_bytes_{key}"] = \
                float(summary.peak_rss_bytes)
        result.series[f"mean_rate_bps_{key}"] = (summary.times,
                                                 summary.mean_rate_bps)

    result.add_table(
        ["topology", "flows", "routers", "paths", "segments", "conv (s)",
         "oracle r* (kb/s)", "rate (kb/s)", "err (%)", "bound paths"],
        rows,
        title="Batched fluid engine, T = 30 ms, max-min labels over "
              "explicit paths")
    result.note("Per-epoch cost is O(segments + routers), not O(flows): "
                "flows sharing delay geometry, start epoch and path "
                "follow bit-identical trajectories and integrate once, "
                "weighted by population (wall/RSS in metrics, stderr).")
    result.note("Expected rates come from the progressive-filling "
                "network equilibrium oracle (Lemma 6 per binding "
                "router); 'bound paths' counts paths pinned by a router "
                "rather than the rate clamp.")
    return result


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
