"""Fluid-model scenario: the paper's recurrences, batched per epoch.

The packet simulator costs O(packets); every doubling of rates or flow
count doubles the event load.  But the paper itself models the control
plane as discrete-time per-epoch recurrences — MKC (Eq. 8), the gamma
controller (Eq. 4/5), and the router virtual loss (Eq. 11) all advance
once per feedback interval ``T`` — so a deterministic fluid engine that
integrates those recurrences directly reproduces the control dynamics
at O(epochs x flows + epochs x routers), independent of packet rates.

:class:`FluidScenario` parameterizes such a run.  It inherits the same
:class:`repro.core.params.ControlParams` record the packet scenarios do
(controller gains, gamma loop, feedback cadence and windowing), so a
packet scenario has an exact fluid twin derived from that record (see
:mod:`repro.fluid.validate`), and adds the multi-hop pieces of
:class:`repro.core.multihop.MultiHopScenario`: per-router capacities
and PELS-colored interferers that move the bottleneck.

Beyond the seed chain topology (every flow crossing every router), a
scenario can now describe a multi-bottleneck fabric:

* ``paths`` names distinct router subsets; a flow's congestion label is
  the worst virtual loss along *its* path (max-min, Eq. 11 per router);
* ``flow_path`` assigns flows to paths individually, while
  ``flow_groups`` describes whole populations — ``(count, extra delay,
  start time, path)`` — without materializing per-flow state, which is
  what makes 10^6-flow capacity planning cheap: flows in a group follow
  bit-identical trajectories and the engine integrates each distinct
  *segment* exactly once (see :meth:`FluidScenario.segment_specs`);
* :func:`fat_tree_scenario` and :func:`chain_grid_scenario` generate
  closed-form CDN-style fabrics (hundreds of routers, arbitrary flow
  counts) whose equilibrium the network oracle in
  :mod:`repro.analysis.oracles` predicts exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..cc.mkc import (is_stable_beta, mkc_equilibrium_loss,
                      mkc_stationary_rate)
from ..core.gamma import is_stable_sigma
from ..core.params import ControlParams, check_interferers

__all__ = ["FluidScenario", "fat_tree_scenario", "chain_grid_scenario"]


@dataclass
class FluidScenario(ControlParams):
    """Complete parameterization of a fluid-model PELS run.

    Defaults match the Section 6 setup seen through the PELS share of
    the bottleneck: C = 2 mb/s under the :class:`ControlParams`
    control plane.
    """

    n_flows: int = 4
    duration: float = 60.0
    #: PELS share of each hop's capacity (``C`` of Eq. 11); the tuple
    #: length sets the number of PELS-enabled routers on the path.
    capacities_bps: Tuple[float, ...] = (2_000_000.0,)
    min_rate_bps: float = 8_000.0

    #: Base round-trip propagation delay (bar-bell default: 40 ms).
    rtt_s: float = 0.040
    #: One-way propagation from a source to the first PELS router
    #: (bar-bell: the access link), before any per-flow extra delay.
    source_router_delay_s: float = 0.005
    #: Per-flow extra one-way access delay (heterogeneous-RTT runs).
    extra_delay: Dict[int, float] = field(default_factory=dict)
    #: Per-flow start times in seconds; defaults to all starting at 0.
    start_times: Optional[List[float]] = None
    #: ``(router, start_s, stop_s, rate_bps)`` PELS-colored constant
    #: interferers: counted in that router's arrival (and, in chain
    #: mode, every router downstream of it) but never adapting — the
    #: bottleneck-shift tool.  With explicit ``paths`` an interferer
    #: loads exactly the router it names.
    interferers: Tuple[Tuple[int, float, float, float], ...] = ()

    #: Distinct paths as tuples of router indices; a flow's label is
    #: the max virtual loss over its path's routers.  ``None`` keeps
    #: the seed chain semantics (one implicit path over every router).
    paths: Optional[Tuple[Tuple[int, ...], ...]] = None
    #: Per-flow path index into ``paths`` (default: path 0 for all).
    flow_path: Optional[List[int]] = None
    #: Population spec for large fabrics: ``(count, extra_delay_s,
    #: start_time_s, path_idx)`` groups replacing the per-flow
    #: ``extra_delay`` / ``start_times`` / ``flow_path`` maps, so a
    #: million-flow scenario never materializes per-flow state.
    flow_groups: Optional[Tuple[Tuple[int, float, float, int], ...]] = None

    #: Series sampling period (seconds); epochs in between are advanced
    #: but not recorded.
    sample_interval: float = 0.30
    #: Record per-flow rate series (None = auto: only when n_flows is
    #: small enough that the memory cost is negligible).
    record_flows: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.n_flows < 1:
            raise ValueError("need at least one flow")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if not self.capacities_bps:
            raise ValueError("need at least one router capacity")
        if any(c <= 0 for c in self.capacities_bps):
            raise ValueError("capacities must be positive")
        if self.alpha_bps <= 0:
            raise ValueError("alpha must be positive")
        if not is_stable_beta(self.beta):
            raise ValueError("Lemma 5: MKC is stable iff 0 < beta < 2")
        if not is_stable_sigma(self.sigma):
            raise ValueError("Lemma 2: gamma control is stable iff "
                             "0 < sigma < 2")
        if not 0 < self.p_thr <= 1:
            raise ValueError("p_thr must be in (0, 1]")
        if not 0 <= self.gamma_low <= self.gamma0 <= self.gamma_high <= 1:
            raise ValueError("need gamma_low <= gamma0 <= gamma_high in "
                             "[0, 1]")
        if self.feedback_interval <= 0:
            raise ValueError("feedback interval must be positive")
        if self.feedback_window < 1:
            raise ValueError("window must cover at least one interval")
        if not 0 < self.min_rate_bps <= self.initial_rate_bps \
                <= self.max_rate_bps:
            raise ValueError("need 0 < min <= initial <= max rate")
        if self.start_times is not None \
                and len(self.start_times) != self.n_flows:
            raise ValueError("start_times must have one entry per flow")
        n_routers = len(self.capacities_bps)
        check_interferers(self.interferers, n_routers)
        if self.paths is not None:
            if not self.paths:
                raise ValueError("paths must name at least one path")
            for pi, path in enumerate(self.paths):
                if not path:
                    raise ValueError(f"path {pi} is empty")
                for router in path:
                    if not 0 <= router < n_routers:
                        raise ValueError(
                            f"path {pi} router {router} out of range")
        if self.flow_path is not None:
            if self.paths is None:
                raise ValueError("flow_path requires explicit paths")
            if len(self.flow_path) != self.n_flows:
                raise ValueError("flow_path must have one entry per flow")
            if any(not 0 <= p < len(self.paths) for p in self.flow_path):
                raise ValueError("flow_path index out of range")
        if self.flow_groups is not None:
            if self.extra_delay or self.start_times is not None \
                    or self.flow_path is not None:
                raise ValueError("flow_groups replaces extra_delay/"
                                 "start_times/flow_path; do not combine")
            if self.record_flows:
                raise ValueError("record_flows needs per-flow scenarios; "
                                 "flow_groups carries no flow identity")
            n_paths = self.n_paths()
            total = 0
            for gi, (count, extra, start, path) in \
                    enumerate(self.flow_groups):
                if count < 1:
                    raise ValueError(f"flow group {gi} count must be >= 1")
                if extra < 0:
                    raise ValueError(f"flow group {gi} extra delay is "
                                     "negative")
                if start < 0:
                    raise ValueError(f"flow group {gi} start time is "
                                     "negative")
                if not 0 <= path < n_paths:
                    raise ValueError(f"flow group {gi} path {path} out of "
                                     "range")
                total += count
            if total != self.n_flows:
                raise ValueError(f"flow_groups cover {total} flows but the "
                                 f"scenario has {self.n_flows}")

    # -- derived epoch geometry --------------------------------------------

    def rtt_of(self, flow: int) -> float:
        """Round-trip propagation delay of one flow."""
        return self.rtt_s + 2 * self.extra_delay.get(flow, 0.0)

    def _epoch_geometry(self, extra_s: float) -> Tuple[int, int]:
        """(forward, backward) epochs for ``extra_s`` of one-way access
        delay — the shared rounding behind the per-flow accessors and
        the ``flow_groups`` segment builder."""
        T = self.feedback_interval
        owd = self.source_router_delay_s + extra_s
        fwd = int(owd / T + 0.5)
        transit = self.rtt_s + 2 * extra_s - owd
        return fwd, max(1, int(transit / T + 0.5))

    def forward_epochs(self, flow: int) -> int:
        """Epochs before a rate change is visible in router arrivals."""
        return self._epoch_geometry(self.extra_delay.get(flow, 0.0))[0]

    def backward_epochs(self, flow: int) -> int:
        """Age (in epochs, at least 1) of the freshest label a flow can
        act on: router -> sink -> ACK -> source transit."""
        return self._epoch_geometry(self.extra_delay.get(flow, 0.0))[1]

    def ref_delay_epochs(self, flow: int) -> int:
        """``D_i`` of Eq. 8: the self-reference reaches back to the
        rate that generated the label now arriving (forward transit to
        the router plus the label's journey back)."""
        return self.forward_epochs(flow) + self.backward_epochs(flow)

    def start_epoch(self, flow: int) -> int:
        """First epoch during which the flow is sending."""
        start = 0.0 if self.start_times is None else self.start_times[flow]
        return int(start / self.feedback_interval) + 1

    def n_epochs(self) -> int:
        return max(1, int(round(self.duration / self.feedback_interval)))

    def sample_stride(self) -> int:
        return max(1, int(round(self.sample_interval
                                / self.feedback_interval)))

    def should_record_flows(self) -> bool:
        if self.flow_groups is not None:
            return False
        if self.record_flows is not None:
            return self.record_flows
        return self.n_flows <= 64

    # -- topology / population views ---------------------------------------

    def path_tuples(self) -> Tuple[Tuple[int, ...], ...]:
        """Explicit paths, or the implicit all-router chain."""
        if self.paths is not None:
            return self.paths
        return (tuple(range(len(self.capacities_bps))),)

    def n_paths(self) -> int:
        return len(self.paths) if self.paths is not None else 1

    def is_homogeneous(self) -> bool:
        """True when every flow shares one delay/start/path behaviour
        (the population collapses to a single segment)."""
        return (self.flow_groups is None and not self.extra_delay
                and self.start_times is None and self.flow_path is None)

    def segment_specs(self) -> List[Tuple[int, int, int, int, int]]:
        """The population collapsed into deterministic-trajectory
        segments: sorted ``(fwd, bwd, start_epoch, path, weight)``.

        The recurrences are deterministic, so flows sharing forward and
        backward delay (in epochs), start epoch, and path follow
        bit-identical trajectories; the engine integrates each such
        segment once and weights it by its population.  Delay and start
        quantization to the epoch grid does the collapsing naturally.
        Groups far outnumber their distinct extra delays, so the epoch
        geometry is memoized per delay, as in :meth:`flow_segment_keys`.
        """
        agg: Dict[Tuple[int, int, int, int], int] = {}
        T = self.feedback_interval
        if self.flow_groups is not None:
            geometry: Dict[float, Tuple[int, int]] = {}
            for count, extra, start_s, path in self.flow_groups:
                fb = geometry.get(extra)
                if fb is None:
                    fb = geometry[extra] = self._epoch_geometry(extra)
                key = (fb[0], fb[1], int(start_s / T) + 1, path)
                agg[key] = agg.get(key, 0) + count
        else:
            for key in self.flow_segment_keys():
                agg[key] = agg.get(key, 0) + 1
        return [key + (weight,) for key, weight in sorted(agg.items())]

    def flow_segment_keys(self) -> Optional[List[Tuple[int, int, int, int]]]:
        """Per-flow ``(fwd, bwd, start_epoch, path)`` keys, or None in
        ``flow_groups`` mode (no per-flow identity to map back to).

        A homogeneous population (no per-flow delay, start, or path
        overrides) short-circuits to N references to one key, and the
        general path memoizes the epoch geometry per distinct extra
        delay, so this stays cheap at large N.
        """
        if self.flow_groups is not None:
            return None
        if self.is_homogeneous():
            fwd, bwd = self._epoch_geometry(0.0)
            return [(fwd, bwd, 1, 0)] * self.n_flows
        geometry: Dict[float, Tuple[int, int]] = {}
        T = self.feedback_interval
        extra = self.extra_delay
        starts = self.start_times
        flow_path = self.flow_path
        keys = []
        for i in range(self.n_flows):
            e = extra.get(i, 0.0)
            fb = geometry.get(e)
            if fb is None:
                fb = geometry[e] = self._epoch_geometry(e)
            start = 0 if starts is None else int(starts[i] / T)
            keys.append((fb[0], fb[1], start + 1,
                         0 if flow_path is None else flow_path[i]))
        return keys

    def path_flow_counts(self) -> List[int]:
        """Number of flows routed over each path."""
        counts = [0] * self.n_paths()
        for _fwd, _bwd, _start, path, weight in self.segment_specs():
            counts[path] += weight
        return counts

    # -- closed-form expectations (Lemmas 4-6) -----------------------------

    def bottleneck_capacity_bps(self) -> float:
        """Capacity of the tightest router (max-min bottleneck)."""
        return min(self.capacities_bps)

    def lemma6_rate_bps(self) -> float:
        """Stationary per-flow rate ``r* = C/N + alpha/beta`` (clamped
        to the scenario's operational rate band).

        Single-bottleneck view: all flows share the tightest router.
        For multi-path fabrics use the network equilibrium oracle in
        :mod:`repro.analysis.oracles`, which resolves per-path binding
        routers.
        """
        r_star = mkc_stationary_rate(self.bottleneck_capacity_bps(),
                                     self.n_flows, self.alpha_bps, self.beta)
        return min(self.max_rate_bps, max(self.min_rate_bps, r_star))

    def equilibrium_loss(self) -> float:
        """Eq. 9 equilibrium virtual loss at the Lemma 6 rates."""
        return mkc_equilibrium_loss(self.bottleneck_capacity_bps(),
                                    self.n_flows, self.alpha_bps, self.beta)

    def expected_gamma(self) -> float:
        """Clamped stationary red fraction ``gamma* = p*/p_thr``."""
        return min(self.gamma_high,
                   max(self.gamma_low, self.equilibrium_loss() / self.p_thr))


# -- topology generators ------------------------------------------------------


def _split_population(count: int, groups: int) -> List[int]:
    """Split ``count`` flows over ``groups`` non-empty buckets."""
    base, extra = divmod(count, groups)
    return [base + (1 if g < extra else 0) for g in range(groups)]


def fat_tree_scenario(edge_routers: int = 8, agg_routers: int = 4,
                      core_routers: int = 2, flows_per_edge: int = 64,
                      per_flow_share_bps: float = 200_000.0,
                      duration: float = 12.0, delay_tiers: int = 3,
                      tier_delay_s: float = 0.020, start_waves: int = 2,
                      wave_interval_s: float = 1.5,
                      overprovision: float = 1.5,
                      **overrides) -> FluidScenario:
    """A fat-tree-ish CDN fabric: edge -> aggregation -> core.

    Each edge router hosts ``flows_per_edge`` receivers whose path
    climbs to its aggregation parent (round-robin edge -> agg) and that
    aggregation's core parent.  Edge capacity is sized at
    ``flows_per_edge x per_flow_share_bps`` so every edge is its flows'
    bottleneck and Lemma 6 pins the stationary per-flow rate at
    ``per_flow_share_bps + alpha/beta``; aggregation and core tiers
    carry the summed equilibrium arrivals scaled by ``overprovision``
    so they never bind.  Populations are split into ``delay_tiers``
    access-delay tiers and ``start_waves`` start waves — pure
    arithmetic, no RNG — which exercises heterogeneous-segment batching
    without breaking the closed-form expectation.
    """
    if edge_routers < 1 or agg_routers < 1 or core_routers < 1:
        raise ValueError("need at least one router per tier")
    if agg_routers > edge_routers or core_routers > agg_routers:
        raise ValueError("tiers must narrow: edges >= aggs >= cores")
    if flows_per_edge < delay_tiers * start_waves:
        raise ValueError("flows_per_edge must cover every "
                         "delay-tier x start-wave group")
    alpha = overrides.get("alpha_bps", FluidScenario.alpha_bps)
    beta = overrides.get("beta", FluidScenario.beta)
    eq_arrival_per_edge = flows_per_edge * (per_flow_share_bps
                                            + alpha / beta)

    paths = []
    agg_load = [0.0] * agg_routers
    core_load = [0.0] * core_routers
    for edge in range(edge_routers):
        agg = edge % agg_routers
        core = agg % core_routers
        paths.append((edge, edge_routers + agg,
                      edge_routers + agg_routers + core))
        agg_load[agg] += eq_arrival_per_edge
        core_load[core] += eq_arrival_per_edge
    capacities = (
        [flows_per_edge * per_flow_share_bps] * edge_routers
        + [overprovision * load for load in agg_load]
        + [overprovision * load for load in core_load])

    groups = []
    splits = _split_population(flows_per_edge, delay_tiers * start_waves)
    for edge in range(edge_routers):
        g = 0
        for tier in range(delay_tiers):
            for wave in range(start_waves):
                groups.append((splits[g], tier * tier_delay_s,
                               wave * wave_interval_s, edge))
                g += 1
    return FluidScenario(
        n_flows=edge_routers * flows_per_edge, duration=duration,
        capacities_bps=tuple(capacities), paths=tuple(paths),
        flow_groups=tuple(groups), **overrides)


def chain_grid_scenario(chains: int = 4, hops_per_chain: int = 3,
                        flows_per_chain: int = 64,
                        per_flow_share_bps: float = 200_000.0,
                        share_step_bps: float = 20_000.0,
                        duration: float = 12.0, delay_tiers: int = 2,
                        tier_delay_s: float = 0.030,
                        overprovision: float = 2.0,
                        **overrides) -> FluidScenario:
    """A grid of independent multi-hop chains with one tight middle hop.

    Chain ``c`` carries ``flows_per_chain`` flows over its own
    ``hops_per_chain`` routers; the middle hop's capacity is
    ``flows_per_chain x (per_flow_share_bps + c x share_step_bps)`` so
    each chain settles at a *different* Lemma 6 rate (the step makes
    aggregate expectations sensitive to per-path resolution, which a
    single-bottleneck approximation would get wrong); the other hops
    are overprovisioned.  Populations split into delay tiers, no RNG.
    """
    if chains < 1 or hops_per_chain < 1:
        raise ValueError("need at least one chain and one hop")
    if flows_per_chain < delay_tiers:
        raise ValueError("flows_per_chain must cover every delay tier")
    alpha = overrides.get("alpha_bps", FluidScenario.alpha_bps)
    beta = overrides.get("beta", FluidScenario.beta)

    paths = []
    capacities = []
    groups = []
    middle = hops_per_chain // 2
    for chain in range(chains):
        share = per_flow_share_bps + chain * share_step_bps
        base = chain * hops_per_chain
        paths.append(tuple(range(base, base + hops_per_chain)))
        slack = overprovision * flows_per_chain * (share + alpha / beta)
        for hop in range(hops_per_chain):
            capacities.append(flows_per_chain * share if hop == middle
                              else slack)
        for tier, count in enumerate(
                _split_population(flows_per_chain, delay_tiers)):
            groups.append((count, tier * tier_delay_s, 0.0, chain))
    return FluidScenario(
        n_flows=chains * flows_per_chain, duration=duration,
        capacities_bps=tuple(capacities), paths=tuple(paths),
        flow_groups=tuple(groups), **overrides)
