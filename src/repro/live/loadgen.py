"""Load generator: hundreds of live PELS flows against the shard pool.

:func:`run_load` is the blocking entry point behind the ``pels
gateway`` CLI subcommand and the L3 experiment; :func:`simulate_load`
runs the same on simulated time, behind the L2 experiment.  One
invocation:

1. starts ``config.shards`` router shards
   (:class:`~repro.live.shard.RouterShard`), each a bottleneck sized so
   its expected flow population operates at the Lemma 6 point
   ``r* = C_s/N_s + α/β`` — per-flow capacity share
   ``flow_share_bps`` times the expected flows per shard, times
   ``capacity_headroom`` slack for hash imbalance;
2. registers ``config.flows`` flows through the
   :class:`~repro.live.gateway.LiveGateway` (tenants round-robin),
   timing the loop — the reported *flows/sec admitted*;
3. streams from one :class:`~repro.live.server.LiveServer` (one pacer
   wheel, per-flow destinations = each flow's shard) to one
   :class:`~repro.live.client.LiveClient` endpoint that demultiplexes
   every flow, for ``config.duration`` seconds, then stops the senders
   and drains (:meth:`~repro.live.server.LiveServer.stream`);
4. measures over the post-warmup window — per-flow delivered bytes by
   snapshot difference, per-color one-way delay percentiles from the
   client's probes — then stops the shards and collects their final
   stats (packet counters, CPU seconds) over the control pipes.

:func:`_drive` is steps 2-4 once, given its clock and an
``attach(protocol) -> addr`` that puts the client and the server on
the shards' network.  :func:`run_load` gives it a
:class:`~repro.core.clock.SelectorClock`, UDP sockets served by
:class:`~repro.core.clock.DatagramEndpoint` s and forked shard
processes; :func:`simulate_load` a :class:`~repro.sim.engine.Simulator`
and one :class:`~repro.core.clock.SimNet` that the client, the server
and every :class:`~repro.live.shard.SimulatedShard`'s in-process router
are attached to.  The network supplies what it knows: the simulated
one tells MKC the true age of its samples,
``config.feedback_delay(0)``; a socket knows no round trip, and MKC
keeps its own default.

The flow population scales the equilibrium, not the operating point:
capacity per shard grows linearly in its flows, so the virtual loss
``p* = (α/β) / (C_s/N_s + α/β)`` and the green-load fraction are the
same at 50 flows and at 800 — what changes is the packet rate, which
is the thing under test.

A rerun with the same config makes the identical admission and
routing decisions: shard placement is a stable hash and flow ids are
allocated in registration order, every registration before the clock
first turns.  A load run has no cross traffic, so ``config.seed``
reaches only a chaos run's fault injectors; on simulated time the whole
run is a pure function of the config, but for the host's time to
register (``registration_seconds``, ``flows_per_sec``).

Self-healing mode (the L3 experiment): with ``config.supervisor`` a
:class:`~repro.live.supervisor.ShardSupervisor` polls the pool during
the run — crashed/hung shards are replaced mid-stream, their flows
re-homed and re-targeted; a ``chaos`` callback passed to
:func:`run_load` builds a :class:`~repro.faults.FaultSchedule` of live
injectors (ShardKill, ShardStall, ...) installed on an
:class:`~repro.faults.AsyncFaultDriver` over the run clock (time 0 =
run start) — the clock whose timers also pace the senders, poll the
shards and take the run's snapshots.  ``config.post_window`` carves a
second measurement window out of the run's tail so post-recovery
goodput is comparable against the oracle independently of the outage
dip.  Shard processes are torn down on *every* exit path — exceptions
and Ctrl-C included — and every replacement the supervisor spawns joins
the same teardown list, so an aborted run leaves no orphan children or
bound sockets.
"""

from __future__ import annotations

import functools
import math
import operator
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Callable, Dict, Iterable, List, Optional,
                    Tuple)

from ..cc.mkc import mkc_stationary_rate
from ..core.clock import DatagramEndpoint, SelectorClock, SimNet
from ..core.params import ControlParams
from ..core.pels_queue import PelsQueueConfig
from ..sim.packet import Color
from ..video.fgs import FgsConfig
from .client import LiveClient
from .gateway import AdmissionDecision, LiveGateway, TenantPolicy
from .server import LiveFlow, LiveServer
from .shard import (RouterShard, ShardConfig, ShardStats, SimulatedShard,
                    bound_udp_socket)

if TYPE_CHECKING:
    from ..faults.schedule import FaultSchedule
    from .supervisor import ShardSupervisor, SupervisorConfig

__all__ = ["LoadConfig", "ShardLoad", "LoadResult", "LoadMeasurement",
           "ChaosContext", "load_report", "run_load", "simulate_load"]


def _default_fgs() -> FgsConfig:
    """A low-rate layered stream: 250-byte packets, ~6.1 kb/s base.

    Sized so one loadgen process can drive hundreds of flows: at the
    Lemma 6 point of the default config each flow sends ~7 pkts/s.
    """
    return FgsConfig(packet_size=250, frame_packets=64, green_packets=2,
                     frame_interval=0.65625)


def _default_queue() -> PelsQueueConfig:
    """Bottleneck queue for load runs: the whole port is PELS.

    ``internet_weight`` is epsilon (weights must be positive) so the
    PELS share is ~1.0 and no CBR filler traffic is needed to realize
    it; buffers are sized for hundreds of flows per shard.
    """
    return PelsQueueConfig(pels_weight=1.0, internet_weight=1e-6,
                           green_buffer=256, yellow_buffer=512,
                           red_buffer=64, internet_buffer=16)


@dataclass
class LoadConfig(ControlParams):
    """Parameters of one gateway load run."""

    flows: int = 50
    shards: int = 1
    duration: float = 8.0
    tenants: int = 4
    host: str = "127.0.0.1"

    #: Per-flow capacity share: C_s = flow_share_bps x expected flows
    #: per shard (x headroom).  With alpha/beta below, Lemma 6 gives
    #: r* ~= flow_share + alpha/beta regardless of the flow count.
    flow_share_bps: float = 12_000.0
    capacity_headroom: float = 1.25
    alpha_bps: float = 1_000.0
    #: Start near the equilibrium so the measurement window is steady.
    initial_rate_bps: float = 14_000.0
    max_rate_bps: float = 64_000.0

    fgs: FgsConfig = field(default_factory=_default_fgs)
    queue: PelsQueueConfig = field(default_factory=_default_queue)
    #: Shard burst granularity under backlog (``ShardConfig.service_tick``).
    service_tick: float = 0.002
    #: Pacer wheel period: every flow is stepped once per tick.
    pace_tick: float = 0.010
    recv_batch: int = 64

    warmup_fraction: float = 0.4
    drain: float = 0.25
    #: Seeds a chaos run's fault injectors, the one random draw a load
    #: run makes (it has no cross traffic to jitter).
    seed: Optional[int] = None

    #: Flows torn down (gateway deregister + sender retire) at half the
    #: run — exercises the partial-report path; 0 disables churn.
    churn_flows: int = 0

    #: Run a :class:`~repro.live.supervisor.ShardSupervisor` with this
    #: config over the pool (health checks, failover, shedding); None
    #: runs the pool unsupervised.
    supervisor: Optional[SupervisorConfig] = None
    #: Sender-side blind-mode watchdog (seconds of feedback silence
    #: before a conservative rate decay; 0 = off).  Enabled by the L3
    #: experiment so flows ride out the failover gap.
    feedback_timeout: float = 0.0
    blind_backoff: float = 0.85
    #: Tail window (seconds before the run end) over which a second
    #: "post-recovery" goodput measurement is taken; 0 disables it.
    post_window: float = 0.0

    def __post_init__(self) -> None:
        if self.flows < 1 or self.shards < 1:
            raise ValueError("need at least one flow and one shard")
        if self.tenants < 1:
            raise ValueError("need at least one tenant")
        if not 0 <= self.warmup_fraction < 1:
            raise ValueError("warmup fraction must be in [0, 1)")
        if self.churn_flows >= self.flows:
            raise ValueError("churn must leave at least one flow running")
        if self.post_window < 0 or self.post_window >= self.duration:
            if self.post_window != 0.0:
                raise ValueError(
                    "post window must sit inside the run duration")

    def shard_capacity_bps(self) -> float:
        """PELS capacity of one shard (C_s), headroom included."""
        expected = math.ceil(self.flows / self.shards)
        return self.flow_share_bps * expected * self.capacity_headroom

    def tenant_of(self, flow_key: int) -> str:
        return f"tenant-{flow_key % self.tenants}"


@dataclass
class ShardLoad:
    """Measured vs oracle behavior of one pool slot over the window."""

    #: Pool slot (stable across failover) and the shard occupying it at
    #: the end of the run (a replacement takes the slot under a fresh id).
    slot: int
    shard_id: int
    n_flows: int
    capacity_bps: float
    #: Lemma 6 sending rate r* = C_s/N_s + alpha/beta for this shard's
    #: actual population.
    lemma6_rate_bps: float
    #: Oracle delivered goodput: min(C_s, N_s x r*).
    oracle_goodput_bps: float
    goodput_bps: float
    #: The slot's flows' goodput over the post window (NaN without one).
    post_goodput_bps: float
    #: min/max of per-flow delivered rates (1.0 = perfectly fair).
    fairness: float
    #: Starvation-watchdog evidence summed over the slot's flows: blind
    #: frame intervals, blind episodes, episodes ended by a fresh label.
    blind_intervals: int
    rate_freezes: int
    recoveries: int
    #: The final shard's last snapshot (packet counters, CPU and wall
    #: seconds, shedding); a zero snapshot if it never reported.
    stats: ShardStats

    @property
    def goodput_vs_oracle(self) -> float:
        return self.goodput_bps / self.oracle_goodput_bps \
            if self.oracle_goodput_bps else float("nan")

    def to_dict(self) -> dict:
        payload = {name: getattr(self, name) for name in (
            "shard_id", "n_flows", "capacity_bps", "goodput_bps",
            "goodput_vs_oracle", "fairness")}
        payload["drops"] = self.stats.drops
        payload["cpu_seconds"] = self.stats.cpu_seconds
        return payload


def _running_sum(values: Iterable[float]) -> float:
    """Left-to-right float sum from 0.0 (``sum`` may compensate)."""
    return functools.reduce(operator.add, values, 0.0)


@dataclass
class LoadResult:
    """Everything the L2 experiment and the CLI report.

    The run-wide counters are sums over :attr:`per_shard`, in slot
    order; the shard-side ones read each slot's :class:`ShardStats`.
    """

    config: LoadConfig
    admitted: int
    rejected: Dict[str, int]
    registration_seconds: float
    flows_per_sec: float
    elapsed: float
    window_seconds: float
    #: color name -> {count, mean_ms, p50_ms, p99_ms} over the window.
    delays: Dict[str, Dict[str, float]]
    per_shard: List[ShardLoad]
    churned: int
    #: Supervision summary (:meth:`ShardSupervisor.report`), or None
    #: when the run was unsupervised.
    supervisor: Optional[dict]
    #: ``(time, description)`` log of every live fault that fired.
    faults: List[Tuple[float, str]]
    #: Post-recovery tail window (``config.post_window``): length,
    #: aggregate goodput over it and per-flow delivered rates.
    post_window_seconds: float
    post_goodput_bps: float
    post_flow_goodput: Dict[int, float]
    #: flow_id -> pool slot of every admitted flow.
    flow_slots: Dict[int, int]

    @property
    def aggregate_goodput_bps(self) -> float:
        return _running_sum(s.goodput_bps for s in self.per_shard)

    @property
    def oracle_goodput_bps(self) -> float:
        return _running_sum(s.oracle_goodput_bps for s in self.per_shard)

    @property
    def green_drops(self) -> int:
        return sum(s.stats.drops[0] for s in self.per_shard)

    @property
    def cpu_seconds(self) -> float:
        return _running_sum(s.stats.cpu_seconds for s in self.per_shard)

    @property
    def shed_packets(self) -> List[int]:
        """Shed packets by raw color — index 0 (green) staying at zero
        is the base-layer guarantee."""
        return [sum(s.stats.shed_packets[color] for s in self.per_shard)
                for color in range(4)]

    @property
    def shed_bytes(self) -> List[int]:
        return [sum(s.stats.shed_bytes[color] for s in self.per_shard)
                for color in range(4)]

    @property
    def blind_intervals(self) -> int:
        return sum(s.blind_intervals for s in self.per_shard)

    @property
    def rate_freezes(self) -> int:
        return sum(s.rate_freezes for s in self.per_shard)

    @property
    def recoveries(self) -> int:
        return sum(s.recoveries for s in self.per_shard)

    @property
    def goodput_vs_oracle(self) -> float:
        return self.aggregate_goodput_bps / self.oracle_goodput_bps \
            if self.oracle_goodput_bps else float("nan")

    @property
    def post_goodput_vs_oracle(self) -> float:
        return self.post_goodput_bps / self.oracle_goodput_bps \
            if self.oracle_goodput_bps else float("nan")

    @property
    def cpu_seconds_per_flow(self) -> float:
        return self.cpu_seconds / self.admitted if self.admitted \
            else float("nan")

    def to_dict(self) -> dict:
        """JSON-ready summary (``pels gateway --json``)."""
        payload = {"flows": self.config.flows, "shards": self.config.shards}
        payload.update((name, getattr(self, name)) for name in (
            "admitted", "rejected", "churned", "flows_per_sec",
            "aggregate_goodput_bps", "oracle_goodput_bps",
            "goodput_vs_oracle", "green_drops", "delays", "cpu_seconds"))
        payload["per_shard"] = [shard.to_dict() for shard in self.per_shard]
        payload.update((name, getattr(self, name)) for name in (
            "supervisor", "faults", "shed_packets", "shed_bytes",
            "post_window_seconds", "post_goodput_bps"))
        return payload


@dataclass
class LoadMeasurement:
    """What the driven phase measured (:func:`load_report`'s input)."""

    decisions: List[AdmissionDecision]
    registration_seconds: float
    #: flow_id -> pool slot of every admitted flow.
    flow_slots: Dict[int, int]
    #: flow_id -> bytes delivered over the window and the post window.
    delivered: Dict[int, int]
    post_delivered: Dict[int, int]
    delays: Dict[str, Dict[str, float]]
    elapsed: float
    window: float
    #: Length of the post window (0 when there was none).
    post_seconds: float
    churned: int
    supervisor: Optional[dict]
    faults: List[Tuple[float, str]]
    #: flow_id -> sender, whose watchdog counters are summed per slot.
    senders: Dict[int, LiveFlow]


@dataclass
class ChaosContext:
    """What a ``chaos`` schedule builder gets to aim injectors at.

    ``shards`` is the gateway's *live* slot list — injectors built
    around it resolve slots at fire time, so a kill scheduled for slot
    1 hits whatever process occupies slot 1 when it fires.
    """

    clock: object
    gateway: LiveGateway
    server: LiveServer
    client: LiveClient
    decisions: List[AdmissionDecision]
    supervisor: Optional[ShardSupervisor] = None

    @property
    def shards(self) -> List:
        return self.gateway.shards

    def busiest_slots(self) -> List[Tuple[int, int]]:
        """``(slot, admitted flows)``, most populated first, ties to the
        lower slot — where a chaos run aims its kill."""
        population: Dict[int, int] = {}
        for decision in self.decisions:
            population[decision.shard_slot] = \
                population.get(decision.shard_slot, 0) + 1
        return sorted(population.items(), key=lambda item: (-item[1], item[0]))


def _no_stats(shard_id: int) -> ShardStats:
    """What a shard that never delivered its final stats counts as."""
    return ShardStats(shard_id=shard_id, port=0, arrivals=[0, 0, 0, 0],
                      drops=[0, 0, 0, 0], forwarded=[0, 0, 0, 0], routes=0,
                      cpu_seconds=0.0, wall_seconds=0.0)


def _percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile; NaN on empty input."""
    if not samples:
        return float("nan")
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1,
                       max(0, math.ceil(q * len(ordered)) - 1))]


def _drive(config: LoadConfig, clock,
           attach: Callable[[object], Tuple[str, int]],
           pool: List[RouterShard],
           chaos: Optional[Callable[[ChaosContext], FaultSchedule]],
           feedback_delay: Optional[float] = None
           ) -> Tuple[List[RouterShard], LoadMeasurement]:
    """The driven phase: register, stream, (maybe) break, measure.

    ``clock`` runs it (nothing turns it before every flow is
    registered); ``attach(protocol)`` puts the client and then the
    server on the network of the started shards in ``pool``, and
    returns the address; ``feedback_delay`` is MKC's sample age, where
    the network knows it.  ``pool`` is the teardown list: every
    replacement the supervisor spawns joins it.  Returns the pool's
    final shard handles (slot order) with what was measured.
    """
    client = LiveClient(clock, green_packets=config.fgs.green_packets)
    client_addr = attach(client)

    supervisor: Optional[ShardSupervisor] = None
    fault_schedule: Optional[FaultSchedule] = None
    server: Optional[LiveServer] = None
    try:
        # Admission: per-flow reserve = the capacity share (headroom
        # stays spare), tenants get an effectively-open policy — load
        # runs measure the gateway's throughput, not its limits
        # (tier-1 tests cover those).
        gateway = LiveGateway(
            clock, pool, flow_reserve_bps=config.flow_share_bps,
            default_policy=TenantPolicy(
                max_flows=config.flows,
                registration_rate=1_000_000.0,
                registration_burst=config.flows))
        reg_started = time.perf_counter()
        decisions = [gateway.register(config.tenant_of(key), key, client_addr)
                     for key in range(config.flows)]
        registration_seconds = time.perf_counter() - reg_started
        admitted = [d for d in decisions if d.admitted]
        if not admitted:
            raise RuntimeError(
                "gateway admitted no flows: reserve "
                f"{config.flow_share_bps:.0f} bps/flow against shard "
                f"capacity {config.shard_capacity_bps():.0f} bps")

        server = LiveServer(
            clock, 0,
            controller_kwargs=config.controller_kwargs(
                feedback_delay=feedback_delay),
            gamma_kwargs=config.gamma_kwargs(),
            fgs=config.fgs, cbr_rate_bps=0.0, pace_tick=config.pace_tick,
            flow_ids=[d.flow_id for d in admitted],
            seed=config.seed,
            feedback_timeout=config.feedback_timeout,
            blind_backoff=config.blind_backoff)
        for decision in admitted:
            server.flows[decision.flow_id].dst_addr = decision.shard_addr
        client.server_addr = attach(server)

        flow_slot = {d.flow_id: d.shard_slot for d in admitted}
        churn_ids: List[int] = []
        if config.churn_flows:
            stride = max(1, len(admitted) // config.churn_flows)
            churn_ids = [d.flow_id
                         for d in admitted[::stride][:config.churn_flows]]

        if config.supervisor is not None:
            from .supervisor import ShardSupervisor
            supervisor = ShardSupervisor(
                clock, gateway, config.supervisor,
                retarget=server.retarget_flow, on_spawn=pool.append)
        if chaos is not None:
            fault_schedule = chaos(ChaosContext(
                clock=clock, gateway=gateway, server=server, client=client,
                decisions=admitted, supervisor=supervisor))

        # The run's timeline, on the clock: the measurement window opens
        # after the warm-up, churn at the midpoint, the post-recovery
        # snapshot at duration - post_window (neither before the window).
        snapshots: Dict[str, Tuple[float, Dict[int, int]]] = {}

        def snapshot(name: str) -> None:
            snapshots[name] = (clock.now, {
                flow_id: receiver.bytes_received
                for flow_id, receiver in client.flows.items()})

        def churn() -> None:
            for flow_id in churn_ids:
                server.retire_flow(flow_id)
                gateway.deregister(flow_id)

        server.start()
        if supervisor is not None:
            supervisor.start()
        if fault_schedule is not None:
            from ..faults.live import AsyncFaultDriver
            fault_schedule.install(
                AsyncFaultDriver(clock, seed=config.seed or 0))
        warmup = config.duration * config.warmup_fraction
        clock.call_later(warmup, snapshot, "window")
        if churn_ids:
            clock.call_later(max(warmup, config.duration / 2), churn)
        if config.post_window > 0:
            clock.call_later(max(warmup, config.duration - config.post_window),
                             snapshot, "post")
        stopped_at = server.stream(config.duration, config.drain)
    finally:
        if server is not None:
            server.stop()
        if supervisor is not None:
            supervisor.stop()
    elapsed = clock.now
    window_started, before = snapshots["window"]
    window = elapsed - window_started

    delivered = {flow_id: receiver.bytes_received - before.get(flow_id, 0)
                 for flow_id, receiver in client.flows.items()}
    post_delivered: Dict[int, int] = {}
    post_seconds = 0.0
    if "post" in snapshots:
        post_started, post_before = snapshots["post"]
        post_seconds = stopped_at - post_started
        post_delivered = {
            flow_id: receiver.bytes_received - post_before.get(flow_id, 0)
            for flow_id, receiver in client.flows.items()}
    delays: Dict[str, Dict[str, float]] = {}
    for color in (Color.GREEN, Color.YELLOW, Color.RED):
        samples = [delay for receiver in client.flows.values()
                   for _, delay in receiver.delay_probes[color].series
                   .window(window_started, float("inf"))]
        delays[color.name.lower()] = {
            "count": float(len(samples)),
            "mean_ms": (sum(samples) / len(samples)) * 1000
            if samples else float("nan"),
            "p50_ms": _percentile(samples, 0.50) * 1000,
            "p99_ms": _percentile(samples, 0.99) * 1000,
        }

    return list(gateway.shards), LoadMeasurement(
        decisions=decisions, registration_seconds=registration_seconds,
        flow_slots=flow_slot, delivered=delivered,
        post_delivered=post_delivered, delays=delays, elapsed=elapsed,
        window=window, post_seconds=post_seconds, churned=len(churn_ids),
        supervisor=supervisor.report() if supervisor is not None else None,
        faults=list(fault_schedule.applied)
        if fault_schedule is not None else [],
        senders=server.flows)


def load_report(config: LoadConfig, shards: List[RouterShard],
                stats: Dict[int, Optional[ShardStats]],
                measured: LoadMeasurement) -> LoadResult:
    """Score a measured run against Lemma 6, slot by slot.

    ``shards`` are the pool's final handles (slot order) and ``stats``
    maps a shard id to its last snapshot, None if it never reported.
    """
    admitted = [d for d in measured.decisions if d.admitted]
    rejected = dict(Counter(d.reason for d in measured.decisions
                            if not d.admitted))
    window = measured.window
    post_seconds = measured.post_seconds
    post_flow_goodput: Dict[int, float] = {
        d.flow_id: measured.post_delivered.get(d.flow_id, 0) * 8
        / post_seconds for d in admitted} if post_seconds > 0 else {}

    per_shard: List[ShardLoad] = []
    for slot, shard in enumerate(shards):
        flow_ids = [d.flow_id for d in admitted
                    if measured.flow_slots[d.flow_id] == slot]
        rates = [measured.delivered.get(flow_id, 0) * 8 / window
                 for flow_id in flow_ids] if window > 0 else []
        n_flows = len(flow_ids)
        r_star = mkc_stationary_rate(shard.capacity_bps, n_flows,
                                     config.alpha_bps, config.beta) \
            if n_flows else float("nan")
        senders = [measured.senders[flow_id] for flow_id in flow_ids]
        per_shard.append(ShardLoad(
            slot=slot, shard_id=shard.shard_id, n_flows=n_flows,
            capacity_bps=shard.capacity_bps, lemma6_rate_bps=r_star,
            oracle_goodput_bps=min(shard.capacity_bps, n_flows * r_star)
            if n_flows else 0.0,
            goodput_bps=sum(rates),
            post_goodput_bps=sum(post_flow_goodput[flow_id]
                                 for flow_id in flow_ids)
            if post_seconds > 0 else float("nan"),
            fairness=min(rates) / max(rates)
            if rates and max(rates) > 0 else float("nan"),
            blind_intervals=sum(f.blind_intervals for f in senders),
            rate_freezes=sum(f.rate_freezes for f in senders),
            recoveries=sum(f.recoveries for f in senders),
            stats=stats.get(shard.shard_id) or _no_stats(shard.shard_id)))

    registration_seconds = measured.registration_seconds
    return LoadResult(
        config=config,
        admitted=len(admitted),
        rejected=rejected,
        registration_seconds=registration_seconds,
        flows_per_sec=len(admitted) / registration_seconds
        if registration_seconds > 0 else float("inf"),
        elapsed=measured.elapsed,
        window_seconds=window,
        delays=measured.delays,
        per_shard=per_shard,
        churned=measured.churned,
        supervisor=measured.supervisor,
        faults=measured.faults,
        post_window_seconds=post_seconds,
        post_goodput_bps=sum(post_flow_goodput.values())
        if post_seconds > 0 else float("nan"),
        post_flow_goodput=post_flow_goodput,
        flow_slots=measured.flow_slots)


def _shard_configs(config: LoadConfig) -> List[ShardConfig]:
    """The pool: ``config.shards`` bottlenecks of C_s each."""
    capacity = config.shard_capacity_bps()
    return [ShardConfig(
        shard_id=index + 1, host=config.host,
        # pels_share < 1 by epsilon; divide so capacity_bps == C_s.
        bottleneck_bps=capacity / config.queue.pels_share(),
        queue=config.queue, feedback_interval=config.feedback_interval,
        feedback_window=config.feedback_window,
        service_tick=config.service_tick, recv_batch=config.recv_batch)
        for index in range(config.shards)]


def run_load(config: Optional[LoadConfig] = None,
             chaos: Optional[Callable[[ChaosContext],
                                      FaultSchedule]] = None) -> LoadResult:
    """Run one gateway load session to completion (blocking).

    ``chaos`` (optional) receives a :class:`ChaosContext` once the
    stack is up and returns a :class:`~repro.faults.FaultSchedule` of
    live injectors to install against the run clock.  Every shard
    process — the initial pool and any replacement the supervisor
    spawns — is stopped on every exit path, including exceptions and
    ``KeyboardInterrupt``, and so is every socket.
    """
    config = config or LoadConfig()
    #: Every process ever spawned for this run (supervisor replacements
    #: append themselves via on_spawn) — the teardown list.
    pool = [RouterShard(shard) for shard in _shard_configs(config)]
    stats: Dict[int, Optional[ShardStats]] = {}
    try:
        for shard in pool:
            shard.start()
        clock = SelectorClock()
        endpoints: List[DatagramEndpoint] = []

        def attach(protocol) -> Tuple[str, int]:
            endpoints.append(DatagramEndpoint(
                clock, bound_udp_socket(config.host), protocol))
            return endpoints[-1].get_extra_info("sockname")[:2]

        try:
            final_shards, measured = _drive(config, clock, attach, pool,
                                            chaos)
        finally:
            for endpoint in endpoints:
                endpoint.close()
            clock.close()
    finally:
        for shard in pool:
            try:
                stats[shard.shard_id] = shard.stop()
            except Exception:
                stats.setdefault(shard.shard_id, None)

    return load_report(config, final_shards, stats, measured)


def simulate_load(config: Optional[LoadConfig] = None) -> LoadResult:
    """:func:`run_load` on simulated time: the same :func:`_drive` on a
    :class:`~repro.sim.engine.Simulator`, the client, the server and
    each :class:`~repro.live.shard.SimulatedShard`'s router on one
    zero-delay :class:`~repro.core.clock.SimNet`, MKC told the true
    sample age ``config.feedback_delay(0)``.

    No socket, no fork, no sleep, and no chaos: a shard can only fail
    through its handle.  Shard CPU time reads 0 (there is no shard
    process) and wall seconds are simulated ones.
    """
    from ..sim.engine import Simulator

    config = config or LoadConfig()
    net = SimNet(Simulator(seed=config.seed or 0))
    pool = [SimulatedShard(shard, net).start()
            for shard in _shard_configs(config)]
    final_shards, measured = _drive(config, net.sim, net.attach, pool, None,
                                    config.feedback_delay(0))
    stats = {shard.shard_id: shard.stop() for shard in pool}
    return load_report(config, final_shards, stats, measured)
