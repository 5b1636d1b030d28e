"""L3 — chaos under load: the supervised gateway survives a shard kill.

L2 shows the sharded live stack holds the Lemma 6 operating point at
800 flows; L3 breaks the stack mid-run and checks that it *heals*.
Two runs share one configuration (same seed, same placement):

**supervised** — a :class:`~repro.live.supervisor.ShardSupervisor`
polls the pool.  The fault schedule kills the most-populated shard
slot's child mid-run; the supervisor must detect the crash, spawn a
replacement under a fresh ``router_id``, re-home every flow of the
slot (bulk route re-install + sender re-target) and reopen admissions.
Earlier in the run a short *shed probe* forces layered shedding on a
second slot, proving the degradation order: red enhancement packets
are shed, green base-layer packets never are.  Checks:

* the kill produces exactly one failover, re-homing every flow placed
  on the killed slot;
* kill -> failover-complete latency is <= 2 seconds;
* post-recovery goodput (the ``post_window`` tail, measured after the
  failover settles) is >= 90% of the full per-shard Lemma 6 oracle —
  the replacement carries its slot's share, it is not a zombie;
* zero green packets shed and zero green drops anywhere, while the
  shed probe demonstrably shed red traffic;
* no sender on the killed slot is left blind at the end: every blind
  episode it had, if any, was ended by a fresh label.

A second table splits the post window by pool slot: each slot's
goodput against its own ``min(C_s, N_s r*)``, so a shortfall names its
slot; its last row is the whole pool.

The failover heals at the next 0.25 s poll, before the senders'
starvation watchdog fires (``feedback_timeout`` 0.4 s), so the killed
slot's flows normally do *not* go blind because of the kill; the
episodes this run sees are healthy ≈7 pkt/s flows whose gap between
fresh labels across a 0.656 s frame outlasts the timeout.  Riding a
silent router blind and resynchronizing on the first label from a
fresh ``router_id`` (Section 5.2) is pinned deterministically in tier
1, on a simulated clock (``tests/test_live_on_simulator.py``).

**control** — identical run, kill included, supervisor off.  The
killed slot's flows must be *stranded* (post-window delivered rate
under 10% of their Lemma 6 share), and from the kill instant on their
senders go blind and never recover (their counters are snapshotted at
the kill, so episodes a healthy flow had before it do not count): the
healing in the supervised run comes from the supervisor, not from some
accidental recovery path.

Both runs are :func:`~repro.live.loadgen.simulate_load`'s: the
gateway, the supervisor, the senders and in-process shards on one
simulated net, so L3 is seeded and exact.  Shard CPU reads 0 there,
so the supervisor sheds only when told to — which is right: overload
is CPU, and a full red queue is PELS's operating point (Lemma 4).
What crosses a process boundary — a real SIGKILL, a SIGSTOP caught by
heartbeat, kill -> healed in two wall seconds, the orphan rule — is
``tests/test_live_chaos.py``'s (``--live``).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..faults import Callback, FaultSchedule, ShardKill
from ..live.loadgen import (ChaosContext, LoadConfig, LoadResult, ShardLoad,
                            simulate_load)
from ..live.supervisor import SupervisorConfig
from .common import ExperimentResult, check

__all__ = ["run", "POST_GOODPUT_FLOOR", "FAILOVER_DEADLINE",
           "STRANDED_RATE_FRACTION"]

#: Post-recovery goodput floor, as a fraction of the Lemma 6 oracle.
POST_GOODPUT_FLOOR = 0.90

#: Bound on kill -> flows-re-homed, in seconds (acceptance criterion).
FAILOVER_DEADLINE = 2.0

#: A control-run flow counts as stranded below this fraction of r*.
STRANDED_RATE_FRACTION = 0.10

SEED = 1717


def _config(fast: bool, supervise: bool) -> LoadConfig:
    if fast:
        flows, shards, duration, warmup = 24, 3, 7.0, 0.3
        post_window = 2.5
    else:
        flows, shards, duration, warmup = 800, 4, 14.0, 0.4
        post_window = 4.0
    return LoadConfig(
        flows=flows, shards=shards, duration=duration,
        warmup_fraction=warmup, seed=SEED,
        supervisor=SupervisorConfig() if supervise else None,
        feedback_timeout=0.4,
        post_window=post_window)


def _chaos_builder(config: LoadConfig, picked: Dict[str, int],
                   with_shed_probe: bool):
    """Schedule: optional shed probe on one slot, then kill another.

    Slot choice happens at install time from the actual admitted
    placement (deterministic under the seed): the kill hits the most
    populated slot, the probe the second-most — both choices land in
    ``picked`` for the assertion phase, and so do the killed slot's
    summed watchdog counters at the kill instant.
    """
    kill_at = 0.45 * config.duration
    warmup = config.duration * config.warmup_fraction

    def build(ctx: ChaosContext) -> FaultSchedule:
        ranked = ctx.busiest_slots()
        kill_slot, picked["kill_population"] = ranked[0]
        picked["kill_slot"] = kill_slot
        schedule = FaultSchedule()
        if with_shed_probe and ctx.supervisor is not None:
            shed_slot = ranked[1][0] if len(ranked) > 1 else kill_slot
            picked["shed_slot"] = shed_slot
            supervisor = ctx.supervisor
            schedule.add(warmup + 0.2, Callback(
                lambda: supervisor.force_shed(shed_slot, 1),
                label=f"force-shed:slot{shed_slot}:1"))
            schedule.add(warmup + 0.9, Callback(
                lambda: supervisor.force_shed(shed_slot, 0),
                label=f"force-shed:slot{shed_slot}:0"))
        senders = [ctx.server.flows[d.flow_id] for d in ctx.decisions
                   if d.shard_slot == kill_slot]

        def at_kill() -> None:
            picked["freezes_at_kill"] = sum(f.rate_freezes for f in senders)
            picked["recoveries_at_kill"] = sum(f.recoveries for f in senders)

        schedule.add(kill_at, Callback(at_kill, label="watchdog-snapshot"))
        schedule.add(kill_at, ShardKill(ctx.shards, kill_slot))
        return schedule

    return build


def _slot(result: LoadResult, slot: int) -> Optional[ShardLoad]:
    return next((s for s in result.per_shard if s.slot == slot), None)


def _watchdog_cell(shard: Optional[ShardLoad]) -> str:
    """The killed slot's summed blind intervals / episodes / recoveries."""
    if shard is None:
        return "-"
    return f"{shard.blind_intervals}/{shard.rate_freezes}/{shard.recoveries}"


def _slot_row(shard: ShardLoad) -> list:
    """One slot's post-window goodput vs its oracle."""
    post = shard.post_goodput_bps
    oracle = shard.oracle_goodput_bps
    return [shard.slot, shard.n_flows, post / 1e3, oracle / 1e3,
            post / oracle if oracle else float("nan")]


def _kill_time(result: LoadResult) -> float:
    for at, description in result.faults:
        if description.startswith("shard-kill"):
            return at
    return float("nan")


def run(fast: bool = False) -> ExperimentResult:
    result = ExperimentResult(
        "L3", "Chaos under load: shard kill, failover, layered shedding")

    # -- supervised run ----------------------------------------------------
    sup_config = _config(fast, supervise=True)
    sup_picked: Dict[str, int] = {}
    supervised = simulate_load(sup_config,
                               chaos=_chaos_builder(sup_config, sup_picked,
                                                    with_shed_probe=True))
    report = supervised.supervisor or {}
    failovers: List[dict] = list(report.get("failovers", []))
    kill_slot = sup_picked.get("kill_slot", -1)
    kill_at = _kill_time(supervised)
    slot_failovers = [f for f in failovers if f["slot"] == kill_slot]
    failover: Optional[dict] = slot_failovers[0] if slot_failovers else None
    kill_to_healed = (failover["completed_at"] - kill_at) \
        if failover is not None else float("inf")
    expected_rehomed = sum(1 for slot in supervised.flow_slots.values()
                           if slot == kill_slot)

    check(result, "sup_failovers", float(len(failovers)), 1.0, 0.0)
    rehomed = float(failover["flows_rehomed"]) if failover else 0.0
    check(result, "sup_flows_rehomed", rehomed, float(expected_rehomed),
          0.0)
    within_deadline = 1.0 if kill_to_healed <= FAILOVER_DEADLINE else 0.0
    check(result, "sup_failover_within_2s", within_deadline, 1.0, 0.0)
    post_ok = 1.0 \
        if supervised.post_goodput_vs_oracle >= POST_GOODPUT_FLOOR else 0.0
    check(result, "sup_post_goodput_ok", post_ok, 1.0, 0.0)
    check(result, "sup_green_shed", float(supervised.shed_packets[0]),
          0.0, 0.0)
    check(result, "sup_green_drops", float(supervised.green_drops),
          0.0, 0.0)
    red_shed_seen = 1.0 if supervised.shed_packets[2] > 0 else 0.0
    check(result, "sup_red_shed_probe", red_shed_seen, 1.0, 0.0)
    admitted_ok = 1.0 \
        if supervised.admitted >= 0.95 * sup_config.flows else 0.0
    check(result, "sup_admitted_ok", admitted_ok, 1.0, 0.0)
    sup_shard = _slot(supervised, kill_slot)
    none_left_blind = 1.0 if sup_shard is not None and \
        sup_shard.rate_freezes == sup_shard.recoveries else 0.0
    check(result, "sup_blind_episodes_all_recovered", none_left_blind,
          1.0, 0.0)

    # -- unsupervised control run ------------------------------------------
    ctl_config = _config(fast, supervise=False)
    ctl_picked: Dict[str, int] = {}
    control = simulate_load(ctl_config,
                            chaos=_chaos_builder(ctl_config, ctl_picked,
                                                 with_shed_probe=False))
    ctl_slot = ctl_picked.get("kill_slot", -1)
    ctl_shard = _slot(control, ctl_slot)
    stranded_floor = STRANDED_RATE_FRACTION * \
        (ctl_shard.lemma6_rate_bps if ctl_shard else float("inf"))
    killed_flows = [flow_id
                    for flow_id, slot in control.flow_slots.items()
                    if slot == ctl_slot]
    stranded = [flow_id for flow_id in killed_flows
                if control.post_flow_goodput.get(flow_id, 0.0)
                < stranded_floor]
    all_stranded = 1.0 \
        if killed_flows and len(stranded) == len(killed_flows) else 0.0
    check(result, "ctl_killed_flows_stranded", all_stranded, 1.0, 0.0)
    # Counted from the kill instant: the slot's watchdog counters then.
    ctl_freezes = ctl_recoveries = -1
    if ctl_shard is not None and "freezes_at_kill" in ctl_picked:
        ctl_freezes = ctl_shard.rate_freezes - ctl_picked["freezes_at_kill"]
        ctl_recoveries = \
            ctl_shard.recoveries - ctl_picked["recoveries_at_kill"]
    stayed_blind = 1.0 if ctl_freezes > 0 and ctl_recoveries == 0 else 0.0
    check(result, "ctl_blind_never_recovered", stayed_blind, 1.0, 0.0)

    # -- report ------------------------------------------------------------
    green = supervised.delays["green"]
    result.add_table(
        ["run", "flows", "shards", "kill slot", "rehomed",
         "kill->healed s", "post vs oracle", "red shed", "green shed",
         "green drops", "blind/episodes/recovered"],
        [["supervised", supervised.admitted, sup_config.shards,
          kill_slot, int(rehomed), kill_to_healed,
          supervised.post_goodput_vs_oracle,
          supervised.shed_packets[2], supervised.shed_packets[0],
          supervised.green_drops, _watchdog_cell(sup_shard)],
         ["control", control.admitted, ctl_config.shards, ctl_slot,
          0, float("nan"), control.post_goodput_vs_oracle,
          control.shed_packets[2], control.shed_packets[0],
          control.green_drops, _watchdog_cell(ctl_shard)]],
        title=f"shard kill at 0.45x{sup_config.duration:.0f}s, "
              f"seed {SEED}")
    result.add_table(
        ["slot", "flows", "post kb/s", "oracle kb/s", "post vs oracle"],
        [_slot_row(shard) for shard in supervised.per_shard]
        + [["all", supervised.admitted,
            supervised.post_goodput_bps / 1e3,
            supervised.oracle_goodput_bps / 1e3,
            supervised.post_goodput_vs_oracle]],
        title="supervised, per pool slot: post-window goodput vs "
              "min(C_s, N_s r*)")

    result.metrics["sup_kill_to_healed_s"] = kill_to_healed
    if failover is not None:
        result.metrics["sup_detect_latency_s"] = \
            failover["detected_at"] - kill_at
        result.metrics["sup_failover_latency_s"] = failover["latency"]
        if failover["new_shard_id"] is not None:
            result.metrics["sup_new_shard_id"] = \
                float(failover["new_shard_id"])
    result.metrics["sup_post_goodput_bps"] = supervised.post_goodput_bps
    result.metrics["sup_post_vs_oracle"] = \
        supervised.post_goodput_vs_oracle
    result.metrics["sup_window_vs_oracle"] = supervised.goodput_vs_oracle
    result.metrics["sup_red_shed_packets"] = \
        float(supervised.shed_packets[2])
    result.metrics["sup_yellow_shed_packets"] = \
        float(supervised.shed_packets[1])
    result.metrics["sup_green_p99_ms"] = green["p99_ms"]
    for key, shard in (("sup", sup_shard), ("ctl", ctl_shard)):
        if shard is not None:
            result.metrics[f"{key}_killed_blind_intervals"] = \
                float(shard.blind_intervals)
            result.metrics[f"{key}_killed_rate_freezes"] = \
                float(shard.rate_freezes)
            result.metrics[f"{key}_killed_recoveries"] = \
                float(shard.recoveries)
    result.metrics["ctl_killed_rate_freezes_since_kill"] = float(ctl_freezes)
    result.metrics["ctl_killed_recoveries_since_kill"] = \
        float(ctl_recoveries)
    result.metrics["ctl_post_vs_oracle"] = control.post_goodput_vs_oracle
    result.metrics["ctl_stranded_flows"] = float(len(stranded))
    result.metrics["ctl_killed_population"] = float(len(killed_flows))

    result.note("failover: kill -> detect (pipe EOF / exitcode) -> "
                "close slot -> spawn fresh router_id -> bulk re-route -> "
                "re-target senders -> reopen; controllers resync on the "
                "first label from the new router id (Section 5.2)")
    result.note("shedding order under overload: red first, then yellow; "
                "green base-layer packets are never shed (zero-tolerance "
                "check, both runs)")
    result.note("control run strands the killed slot's flows: datagrams "
                "to a dead shard's port vanish silently, and no one "
                "re-homes them")
    return result
