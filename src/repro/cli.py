"""Command-line interface for the PELS reproduction.

Installed as the ``pels`` console script::

    pels simulate --flows 4 --duration 60          # run a PELS session
    pels live --flows 2 --duration 5               # wall-clock UDP session
    pels fluid --flows 1000 --duration 120         # fluid-model fast path
    pels experiments --fast --only T1,F7,S1        # regenerate artifacts
    pels experiments --list                        # discover artifact keys
    pels serve --workers 3 --storage runs/ --port 7475   # fleet service
    pels submit A4 S2 --fast --wait                # jobs via the service
    pels status                                    # service health
    pels artifacts <job-id> --out artifact.json    # fetch a result
    pels analyze --loss 0.1 --frame 100            # closed-form numbers
    pels trace --frames 300 --out trace.json       # synthetic Foreman

Also runnable as ``python -m repro.cli ...``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

__all__ = ["main", "build_parser"]


def _controller_names() -> List[str]:
    """Registered congestion-controller names, for ``choices=``.

    Resolved at parser-build time from the controller registry, so a
    typo'd ``--controller`` fails inside argparse (with the valid names
    listed) instead of deep inside a running session.
    """
    from .cc import available_controllers
    return available_controllers()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pels",
        description="PELS (ICDCS 2004) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    controllers = _controller_names()

    sim = sub.add_parser("simulate", help="run a PELS bar-bell session")
    sim.add_argument("--flows", type=int, default=2)
    sim.add_argument("--duration", type=float, default=30.0)
    sim.add_argument("--seed", type=int, default=1)
    sim.add_argument("--alpha", type=float, default=20_000.0,
                     help="MKC additive gain (b/s)")
    sim.add_argument("--beta", type=float, default=0.5,
                     help="MKC multiplicative gain")
    sim.add_argument("--p-thr", type=float, default=0.75,
                     help="target red-queue loss")
    sim.add_argument("--sigma", type=float, default=0.5,
                     help="gamma controller gain")
    sim.add_argument("--controller", default="mkc", choices=controllers,
                     help="congestion controller")
    sim.add_argument("--cross-traffic", default="cbr",
                     choices=["cbr", "tcp", "lrd", "none"])
    sim.add_argument("--tune", action="store_true",
                     help="attach the online meta-controller (PID tuning "
                          "of MKC alpha and gamma sigma within their "
                          "stability-safe ranges)")
    sim.add_argument("--json", default="", help="write summary JSON here")

    live = sub.add_parser(
        "live",
        help="run the PELS stack over real UDP sockets (wall clock)",
        description="Stream synthetic FGS video from an asyncio server "
                    "through a userspace software router (tri-color "
                    "strict-priority + WRR, Eq. 11 labels) to a client, "
                    "all on loopback UDP under time.monotonic, and "
                    "compare the converged rate to the Lemma 6 oracle "
                    "r* = C/N + alpha/beta.")
    live.add_argument("--flows", type=int, default=2)
    live.add_argument("--duration", type=float, default=5.0,
                      help="wall-clock streaming seconds")
    live.add_argument("--alpha", type=float, default=20_000.0,
                      help="MKC additive gain (b/s)")
    live.add_argument("--beta", type=float, default=0.5,
                      help="MKC multiplicative gain")
    live.add_argument("--p-thr", type=float, default=0.75,
                      help="target red-queue loss")
    live.add_argument("--sigma", type=float, default=0.5,
                      help="gamma controller gain")
    live.add_argument("--controller", default="mkc", choices=controllers,
                      help="congestion controller")
    live.add_argument("--bottleneck", type=float, default=4_000_000.0,
                      help="bottleneck link rate (b/s); PELS gets the "
                           "WRR share of it")
    live.add_argument("--interval", type=float, default=0.030,
                      help="feedback computation period T (s)")
    live.add_argument("--cross-traffic", default="cbr",
                      choices=["cbr", "none"])
    live.add_argument("--seed", type=int, default=None,
                      help="seed the server-side RNG (cross-traffic wake "
                           "jitter) so the emission schedule reproduces")
    live.add_argument("--tune", action="store_true",
                      help="attach the online meta-controller (PID tuning "
                           "of MKC alpha and gamma sigma)")
    live.add_argument("--json", default="", help="write summary JSON here")

    gwy = sub.add_parser(
        "gateway",
        help="load-test the sharded live gateway (admission control + "
             "router shard processes)",
        description="Spawn a pool of router shard processes, register "
                    "a population of flows through the admission "
                    "gateway (per-tenant token buckets, concurrency "
                    "caps, per-shard capacity budgets, stable-hash "
                    "placement), stream them all from one tenant-"
                    "grouped sender, and report goodput vs the Lemma 6 "
                    "oracle, per-color delay percentiles, admission "
                    "throughput, and CPU per flow.")
    gwy.add_argument("--flows", type=int, default=100,
                     help="flows to register through the gateway")
    gwy.add_argument("--shards", type=int, default=2,
                     help="router shard processes")
    gwy.add_argument("--duration", type=float, default=8.0,
                     help="wall-clock streaming seconds")
    gwy.add_argument("--tenants", type=int, default=4,
                     help="tenants the flows are spread across")
    gwy.add_argument("--flow-share", type=float, default=12_000.0,
                     help="per-flow capacity share sizing each shard's "
                          "bottleneck (b/s)")
    gwy.add_argument("--alpha", type=float, default=1_000.0,
                     help="MKC additive gain (b/s)")
    gwy.add_argument("--beta", type=float, default=0.5,
                     help="MKC multiplicative gain")
    gwy.add_argument("--churn", type=int, default=0,
                     help="flows torn down at half-run (teardown path)")
    gwy.add_argument("--supervise", action="store_true",
                     help="run a ShardSupervisor over the pool (health "
                          "checks, failover with flow re-homing, layered "
                          "overload shedding)")
    gwy.add_argument("--chaos", default="", choices=["", "kill", "stall"],
                     help="inject a live fault mid-run: SIGKILL or "
                          "SIGSTOP the busiest shard (implies the "
                          "sender-side blind-mode watchdog)")
    gwy.add_argument("--chaos-at", type=float, default=None, metavar="S",
                     help="fault fire time in run seconds (default: "
                          "45%% of --duration)")
    gwy.add_argument("--seed", type=int, default=None,
                     help="seed for the run's RNG-driven schedules")
    gwy.add_argument("--json", default="", help="write summary JSON here")

    fld = sub.add_parser("fluid",
                         help="epoch-batched fluid run (paper recurrences, "
                              "no packets: thousand-flow scaling)")
    fld.add_argument("--flows", type=int, default=4)
    fld.add_argument("--duration", type=float, default=60.0)
    fld.add_argument("--capacity", type=float, nargs="+",
                     default=[2_000_000.0], metavar="BPS",
                     help="PELS capacity per router; several values "
                          "build a multi-hop chain")
    fld.add_argument("--alpha", type=float, default=20_000.0,
                     help="MKC additive gain (b/s)")
    fld.add_argument("--beta", type=float, default=0.5,
                     help="MKC multiplicative gain")
    fld.add_argument("--p-thr", type=float, default=0.75,
                     help="target red-queue loss")
    fld.add_argument("--sigma", type=float, default=0.5,
                     help="gamma controller gain")
    fld.add_argument("--rtt", type=float, default=0.040,
                     help="base round-trip propagation delay (s)")
    fld.add_argument("--backend", default=None,
                     choices=["list", "numpy", "auto"],
                     help="array backend (default: list, or "
                          "$REPRO_FLUID_BACKEND)")
    fld.add_argument("--json", default="", help="write summary JSON here")

    srv = sub.add_parser(
        "serve",
        help="run the experiment-fleet service (job queue + workers + "
             "HTTP API + live metric streaming)",
        description="Long-running control plane over the experiment "
                    "fleet: submit experiment jobs over HTTP, N worker "
                    "processes pull from a persistent queue (heartbeats, "
                    "stale-job requeue, crash-isolated execution), "
                    "artifacts and baselines persist in the storage "
                    "directory, and obs metric snapshots stream to "
                    "subscribed clients while jobs run.")
    srv.add_argument("--workers", type=int, default=2, metavar="N",
                     help="worker processes pulling from the queue")
    srv.add_argument("--storage", default="pels-service", metavar="DIR",
                     help="persistent storage directory (jobs, artifacts, "
                          "baselines, streams)")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=7475,
                     help="HTTP port (0 = ephemeral)")
    srv.add_argument("--heartbeat-timeout", type=float, default=2.0,
                     metavar="S", help="heartbeat silence before a "
                     "running job is requeued")

    sbm = sub.add_parser(
        "submit",
        help="submit experiment jobs to a running pels service")
    sbm.add_argument("experiments", nargs="+", metavar="KEY",
                     help="registry keys to submit (see pels experiments "
                          "--list)")
    sbm.add_argument("--fast", action="store_true",
                     help="submit CI-sized runs")
    sbm.add_argument("--priority", type=int, default=0)
    sbm.add_argument("--timeout", type=float, default=None, metavar="S",
                     help="per-attempt wall-clock budget")
    sbm.add_argument("--retries", type=int, default=1, metavar="N")
    sbm.add_argument("--host", default="127.0.0.1")
    sbm.add_argument("--port", type=int, default=7475)
    sbm.add_argument("--wait", action="store_true",
                     help="block until the submitted jobs settle")
    sbm.add_argument("--json", default="", help="write job records here")

    sts = sub.add_parser(
        "status",
        help="service health and job states (optionally one job)")
    sts.add_argument("job", nargs="?", default="",
                     help="job id (omit for the whole service)")
    sts.add_argument("--state", default="",
                     help="filter the job list by state")
    sts.add_argument("--host", default="127.0.0.1")
    sts.add_argument("--port", type=int, default=7475)
    sts.add_argument("--json", default="", help="write the status here")

    art = sub.add_parser(
        "artifacts",
        help="list stored artifacts, or fetch one job's artifact")
    art.add_argument("job", nargs="?", default="",
                     help="job id to fetch (omit to list)")
    art.add_argument("--host", default="127.0.0.1")
    art.add_argument("--port", type=int, default=7475)
    art.add_argument("--out", default="", metavar="PATH",
                     help="write the fetched artifact JSON here")

    exp = sub.add_parser("experiments",
                         help="regenerate the paper's tables and figures")
    exp.add_argument("--fast", action="store_true")
    exp.add_argument("--only", default="")
    exp.add_argument("--list", action="store_true",
                     help="list runnable artifact keys with one-line "
                          "descriptions and exit")
    exp.add_argument("--no-ablations", action="store_true")
    exp.add_argument("--jobs", type=int, default=1, metavar="N")
    exp.add_argument("--chunk", type=int, default=None, metavar="M")
    exp.add_argument("--json", default="")
    exp.add_argument("--timeout", type=float, default=None, metavar="S")
    exp.add_argument("--retries", type=int, default=0, metavar="N")
    exp.add_argument("--retry-backoff", type=float, default=0.5, metavar="S")
    exp.add_argument("--out-dir", default="", metavar="DIR")
    exp.add_argument("--resume", action="store_true")
    exp.add_argument("--metrics-out", default="", metavar="PATH",
                     help="write per-artifact metrics as JSONL here")

    ana = sub.add_parser("analyze",
                         help="closed-form values (Lemmas 1-6)")
    ana.add_argument("--loss", type=float, required=True)
    ana.add_argument("--frame", type=int, default=100,
                     help="FGS frame size H in packets")
    ana.add_argument("--p-thr", type=float, default=0.75)
    ana.add_argument("--capacity", type=float, default=2_000_000.0)
    ana.add_argument("--flows", type=int, default=2)
    ana.add_argument("--alpha", type=float, default=20_000.0)
    ana.add_argument("--beta", type=float, default=0.5)

    trc = sub.add_parser(
        "trace",
        help="trace an experiment as JSONL, or generate a synthetic "
             "video trace",
        description="With an experiment id (e.g. F2, R1), run it with "
                    "the structured tracer and metrics registry active "
                    "and emit the JSONL timeline.  Without one, "
                    "generate a synthetic Foreman-like video trace "
                    "(legacy mode).")
    trc.add_argument("experiment", nargs="?", default="",
                     help="experiment id to trace (omit for the "
                          "synthetic video-trace mode)")
    trc.add_argument("--fast", action="store_true",
                     help="CI-sized run of the traced experiment")
    trc.add_argument("--events", type=int, default=262_144,
                     metavar="N", help="tracer ring capacity (oldest "
                                       "events evicted beyond this)")
    trc.add_argument("--frames", type=int, default=300)
    trc.add_argument("--seed", type=int, default=7)
    trc.add_argument("--out", default="", help="write JSON(L) here "
                                               "(default stdout)")

    plt = sub.add_parser("plot", help="chart a series from a results "
                                      "JSON (see experiments --json)")
    plt.add_argument("results", help="JSON file from experiments --json")
    plt.add_argument("artifact", help="artifact id, e.g. F9")
    plt.add_argument("series", nargs="*",
                     help="series names (default: all in the artifact)")
    plt.add_argument("--width", type=int, default=72)
    plt.add_argument("--height", type=int, default=16)
    return parser


def _cmd_simulate(args) -> int:
    from .core.report import build_report
    from .core.session import PelsScenario, PelsSimulation

    meta_config = None
    if args.tune:
        from .control.meta import MetaControllerConfig
        meta_config = MetaControllerConfig()
    scenario = PelsScenario(
        n_flows=args.flows, duration=args.duration, seed=args.seed,
        alpha_bps=args.alpha, beta=args.beta, p_thr=args.p_thr,
        sigma=args.sigma, controller_name=args.controller,
        cross_traffic=args.cross_traffic, meta_controller=meta_config)
    sim = PelsSimulation(scenario).run()
    report = build_report(sim.view)
    print(report.render())
    if sim.meta is not None:
        print(f"  meta-control: {sim.meta.adjustments} adjustments over "
              f"{sim.meta.steps} epochs")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report.to_dict(), handle, indent=2)
        print(f"  report written to {args.json}")
    return 0


def _cmd_live(args) -> int:
    from .core.report import build_report
    from .live.session import LiveConfig, run_live_session

    config = LiveConfig(
        n_flows=args.flows, duration=args.duration,
        controller_name=args.controller, alpha_bps=args.alpha,
        beta=args.beta, p_thr=args.p_thr, sigma=args.sigma,
        bottleneck_bps=args.bottleneck,
        feedback_interval=args.interval,
        cross_traffic=args.cross_traffic, seed=args.seed,
        tune=args.tune)
    result = run_live_session(config)
    if result.meta is not None:
        print(f"  meta-control: {result.meta.adjustments} adjustments over "
              f"{result.meta.steps} epochs")
    # The live ramp from 128 kb/s eats ~2 s of wall clock; measure the
    # steady state over the final 40% (see experiments/live_exp.py).
    report = build_report(result.view, warmup_fraction=0.6)
    print(report.render())
    oracle = config.lemma6_rate_bps()
    rates = [flow.mean_rate_bps for flow in report.flows]
    mean_rate = sum(rates) / len(rates) if rates else 0.0
    error = abs(mean_rate - oracle) / oracle if oracle else float("nan")
    print(f"  Lemma 6 oracle: {oracle/1e3:.1f} kb/s per flow; live mean "
          f"{mean_rate/1e3:.1f} kb/s (err {error*100:.1f}%)")
    if args.json:
        payload = report.to_dict()
        payload["lemma6_rate_bps"] = oracle
        payload["live_mean_rate_bps"] = mean_rate
        payload["lemma6_error"] = error
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"  report written to {args.json}")
    return 0


def _cmd_gateway(args) -> int:
    from .live.loadgen import LoadConfig, run_load

    chaos_kind = args.chaos
    supervise = args.supervise or bool(chaos_kind)
    config = LoadConfig(flows=args.flows, shards=args.shards,
                        duration=args.duration, tenants=args.tenants,
                        flow_share_bps=args.flow_share,
                        alpha_bps=args.alpha, beta=args.beta,
                        churn_flows=args.churn, seed=args.seed,
                        supervise=supervise,
                        feedback_timeout=0.4 if chaos_kind else 0.0,
                        post_window=min(2.5, args.duration / 3)
                        if chaos_kind else 0.0)

    chaos = None
    if chaos_kind:
        from .faults import FaultSchedule, ShardKill, ShardStall

        fire_at = args.chaos_at if args.chaos_at is not None \
            else 0.45 * config.duration

        def chaos(ctx):
            population = {}
            for decision in ctx.decisions:
                population[decision.shard_slot] = \
                    population.get(decision.shard_slot, 0) + 1
            slot = max(population, key=lambda s: (population[s], -s))
            fault = ShardKill(ctx.shards, slot) if chaos_kind == "kill" \
                else ShardStall(ctx.shards, slot, duration=None)
            return FaultSchedule().add(fire_at, fault)

    result = run_load(config, chaos=chaos)
    print(f"Gateway load: {result.admitted}/{config.flows} flows admitted "
          f"across {config.shards} shard(s), "
          f"{result.elapsed:.1f}s wall clock")
    print(f"  admission           : {result.flows_per_sec:,.0f} flows/s "
          f"({result.registration_seconds*1e3:.1f} ms for the population)")
    if result.rejected:
        print(f"  rejected            : {result.rejected}")
    if result.churned:
        print(f"  churned mid-run     : {result.churned} flow(s)")
    print(f"  aggregate goodput   : "
          f"{result.aggregate_goodput_bps/1e3:,.1f} kb/s "
          f"({result.goodput_vs_oracle*100:.1f}% of the Lemma 6 oracle "
          f"{result.oracle_goodput_bps/1e3:,.1f} kb/s)")
    print(f"  green drops         : {result.green_drops}")
    for color in ("green", "yellow", "red"):
        d = result.delays[color]
        print(f"  {color + ' delay':<20}: p50 {d['p50_ms']:.2f} ms, "
              f"p99 {d['p99_ms']:.2f} ms ({d['count']:.0f} samples)")
    print(f"  CPU                 : {result.cpu_seconds:.2f} s total, "
          f"{result.cpu_seconds_per_flow*1e3:.1f} ms/flow")
    for shard in result.per_shard:
        print(f"  shard {shard.shard_id}: {shard.n_flows} flows, "
              f"{shard.goodput_bps/1e3:,.1f} kb/s "
              f"({shard.goodput_vs_oracle*100:.1f}% of oracle), "
              f"fairness {shard.fairness:.2f}, "
              f"drops {shard.drops}")
    for at, description in result.faults:
        print(f"  fault               : {description} at t={at:.2f}s")
    if result.supervisor is not None:
        report = result.supervisor
        print(f"  supervisor          : {report['ticks']} ticks, "
              f"states {report['states']}, "
              f"shed levels {report['shed_levels']}")
        for record in report["failovers"]:
            print(f"    failover slot {record['slot']}: "
                  f"shard {record['old_shard_id']} -> "
                  f"{record['new_shard_id']} ({record['cause']}), "
                  f"{record['flows_rehomed']} flow(s) re-homed in "
                  f"{record['latency']*1e3:.1f} ms")
        if any(result.shed_packets):
            print(f"    shed packets      : {result.shed_packets} "
                  f"(green/yellow/red/BE)")
        if result.post_window_seconds > 0:
            print(f"    post-recovery     : "
                  f"{result.post_goodput_bps/1e3:,.1f} kb/s over the "
                  f"last {result.post_window_seconds:.1f}s "
                  f"({result.post_goodput_vs_oracle*100:.1f}% of oracle)")
    if args.json:
        payload = {
            "flows": config.flows,
            "shards": config.shards,
            "admitted": result.admitted,
            "rejected": result.rejected,
            "churned": result.churned,
            "flows_per_sec": result.flows_per_sec,
            "aggregate_goodput_bps": result.aggregate_goodput_bps,
            "oracle_goodput_bps": result.oracle_goodput_bps,
            "goodput_vs_oracle": result.goodput_vs_oracle,
            "green_drops": result.green_drops,
            "delays": result.delays,
            "cpu_seconds": result.cpu_seconds,
            "per_shard": [{
                "shard_id": s.shard_id, "n_flows": s.n_flows,
                "capacity_bps": s.capacity_bps,
                "goodput_bps": s.goodput_bps,
                "goodput_vs_oracle": s.goodput_vs_oracle,
                "fairness": s.fairness, "drops": s.drops,
                "cpu_seconds": s.cpu_seconds,
            } for s in result.per_shard],
            "supervisor": result.supervisor,
            "faults": result.faults,
            "shed_packets": result.shed_packets,
            "shed_bytes": result.shed_bytes,
            "post_window_seconds": result.post_window_seconds,
            "post_goodput_bps": result.post_goodput_bps,
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"  summary written to {args.json}")
    return 0


def _cmd_fluid(args) -> int:
    from .fluid import FluidEngine, FluidScenario

    scenario = FluidScenario(
        n_flows=args.flows, duration=args.duration,
        capacities_bps=tuple(args.capacity), alpha_bps=args.alpha,
        beta=args.beta, p_thr=args.p_thr, sigma=args.sigma, rtt_s=args.rtt)
    result = FluidEngine(scenario, backend=args.backend).run()
    expected = scenario.lemma6_rate_bps()
    conv = result.convergence_time(target=expected)
    print(f"Fluid run: {args.flows} flows x {scenario.n_epochs()} epochs "
          f"({args.duration:.0f}s at T = {scenario.feedback_interval*1000:.0f} ms), "
          f"{len(scenario.capacities_bps)} router(s), "
          f"backend {result.backend}")
    print(f"  Lemma 6 r*          : {expected/1e3:.1f} kb/s")
    print(f"  tail mean rate      : {result.tail_mean_rate()/1e3:.1f} kb/s "
          f"(err {result.lemma6_error()*100:.3f}%)")
    print(f"  convergence (±2%)   : "
          f"{'not settled' if conv is None else f'{conv:.1f}s'}")
    print(f"  tail gamma          : {result.tail_gamma():.4f} "
          f"(expected {scenario.expected_gamma():.4f})")
    print(f"  bottleneck router   : {result.bottleneck[-1]}")
    # Wall time goes to stderr: stdout stays byte-stable across hosts.
    print(f"  wall time: {result.wall_time:.3f}s "
          f"({result.epochs_per_second():.0f} epochs/s, "
          f"{result.wall_per_sim_second()*1e3:.2f} ms per simulated s)",
          file=sys.stderr)
    if args.json:
        summary = {
            "n_flows": args.flows,
            "n_epochs": result.n_epochs,
            "backend": result.backend,
            "lemma6_rate_bps": expected,
            "tail_mean_rate_bps": result.tail_mean_rate(),
            "lemma6_error": result.lemma6_error(),
            "convergence_s": conv,
            "tail_gamma": result.tail_gamma(),
            "final_bottleneck": result.bottleneck[-1],
            "wall_time_s": result.wall_time,
        }
        with open(args.json, "w") as handle:
            json.dump(summary, handle, indent=2)
        print(f"  summary written to {args.json}")
    return 0


def _cmd_analyze(args) -> int:
    from .analysis.best_effort import (best_effort_utility,
                                       expected_useful_packets,
                                       optimal_useful_packets)
    from .analysis.pels_model import (gamma_stationary,
                                      pels_utility_lower_bound)
    from .cc.mkc import mkc_equilibrium_loss, mkc_stationary_rate

    p, h = args.loss, args.frame
    print(f"Closed forms at p = {p}, H = {h}, p_thr = {args.p_thr}:")
    print(f"  E[Y] best-effort (Eq. 2)   : "
          f"{expected_useful_packets(p, h):.2f} packets")
    print(f"  E[Y] optimal               : "
          f"{optimal_useful_packets(p, h):.2f} packets")
    print(f"  utility best-effort (Eq. 3): {best_effort_utility(p, h):.4f}")
    print(f"  utility PELS bound (Eq. 6) : "
          f"{pels_utility_lower_bound(p, args.p_thr):.4f}")
    print(f"  gamma* = p/p_thr           : "
          f"{gamma_stationary(p, args.p_thr):.4f}")
    r_star = mkc_stationary_rate(args.capacity, args.flows, args.alpha,
                                 args.beta)
    p_star = mkc_equilibrium_loss(args.capacity, args.flows, args.alpha,
                                  args.beta)
    print(f"  MKC r* (Lemma 6)           : {r_star/1e3:.1f} kb/s for "
          f"{args.flows} flows on {args.capacity/1e6:.1f} mb/s")
    print(f"  MKC equilibrium loss p*    : {p_star:.4f}")
    return 0


def _cmd_trace_experiment(args) -> int:
    """Run one registry experiment with tracing/metrics on; emit JSONL.

    The timeline is a header line describing the run, then every trace
    event still in the ring (oldest first), then every epoch-boundary
    metrics snapshot — one JSON object per line throughout.
    """
    from .experiments.runner import (_registry, _run_one,
                                     _unknown_key_message, failed)
    from .obs.metrics import MetricsRegistry, metrics
    from .obs.trace import Tracer, tracing

    key = args.experiment.strip().upper()
    if key not in _registry():
        print(_unknown_key_message(key), file=sys.stderr)
        return 2
    tracer = Tracer(capacity=args.events)
    registry = MetricsRegistry()
    with tracing(tracer), metrics(registry):
        result = _run_one(key, fast=args.fast)
    header = json.dumps({
        "type": "run",
        "experiment_id": key,
        "title": result.title,
        "failed": failed(result),
        "events": len(tracer),
        "evicted": tracer.evicted(),
        "snapshots": len(registry.snapshots),
    }, sort_keys=True)
    lines = [header]
    lines.extend(tracer.jsonl_lines())
    lines.extend(registry.jsonl_lines())
    if args.out:
        with open(args.out, "w") as handle:
            for line in lines:
                handle.write(line + "\n")
        print(f"{len(lines)} JSONL line(s) for {key} written to "
              f"{args.out}")
    else:
        for line in lines:
            print(line)
    return 1 if failed(result) else 0


def _cmd_trace(args) -> int:
    if args.experiment:
        return _cmd_trace_experiment(args)
    from .video.traces import generate_foreman_like

    trace = generate_foreman_like(n_frames=args.frames, seed=args.seed)
    payload = {
        "name": trace.name,
        "seed": trace.seed,
        "frames": [{"id": f.frame_id, "base_psnr_db": f.base_psnr_db,
                    "complexity": f.complexity, "intra": f.is_intra}
                   for f in trace.frames],
    }
    text = json.dumps(payload, indent=2)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"{args.frames}-frame trace written to {args.out}")
    else:
        print(text)
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from .service.api import ServiceConfig, serve

    if args.workers < 0:
        print("--workers must be non-negative", file=sys.stderr)
        return 2
    config = ServiceConfig(storage_dir=args.storage, workers=args.workers,
                           host=args.host, port=args.port,
                           heartbeat_timeout=args.heartbeat_timeout)
    try:
        asyncio.run(serve(config))
    except KeyboardInterrupt:
        print("-- service stopped --")
    return 0


def _service_client(args):
    from .service.client import ServiceClient
    return ServiceClient(args.host, args.port)


def _cmd_submit(args) -> int:
    from .service.client import ServiceError

    client = _service_client(args)
    batch = [{"key": key, "fast": args.fast, "priority": args.priority,
              "timeout": args.timeout, "retries": args.retries}
             for key in args.experiments]
    try:
        jobs = client.submit(batch)
    except (ServiceError, OSError) as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        return 1
    for job in jobs:
        print(f"{job['job_id']}  {job['params']['key']:<4} "
              f"{job['state']}")
    if args.wait:
        final = client.wait([job["job_id"] for job in jobs])
        for job_id, record in final.items():
            print(f"{job_id}  {record['params']['key']:<4} "
                  f"{record['state']}"
                  + (f"  ({record['error']})" if record.get("error")
                     else ""))
        jobs = list(final.values())
        if any(record["state"] != "done" for record in jobs):
            return 1
    if args.json:
        with open(args.json, "w") as handle:
            json.dump({"jobs": jobs}, handle, indent=2)
        print(f"  job records written to {args.json}")
    return 0


def _cmd_status(args) -> int:
    from .service.client import ServiceError

    client = _service_client(args)
    try:
        if args.job:
            payload = client.job(args.job)
            print(f"{payload['job_id']}  {payload['params'].get('key')}  "
                  f"{payload['state']}  attempts={payload['attempts']} "
                  f"requeues={payload['requeues']}"
                  + (f"  error={payload['error']}" if payload.get("error")
                     else ""))
        else:
            payload = client.health()
            jobs = payload["jobs"]
            print(f"service ok, up {payload['uptime']:.0f}s; jobs: "
                  + ", ".join(f"{state} {count}"
                              for state, count in sorted(jobs.items())
                              if count))
            for worker_id, info in sorted(payload["workers"].items()):
                age = info.get("beat_age")
                print(f"  {worker_id}: "
                      f"{'alive' if info['alive'] else 'dead'} "
                      f"pid={info['pid']}"
                      + (f" beat {age:.1f}s ago" if age is not None
                         else "")
                      + (f" job={info['job']}" if info.get("job") else ""))
            if args.state:
                for job in client.jobs(args.state):
                    print(f"  {job['job_id']}  {job['params'].get('key')}"
                          f"  {job['state']}")
    except (ServiceError, OSError) as exc:
        print(f"status failed: {exc}", file=sys.stderr)
        return 1
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"  status written to {args.json}")
    return 0


def _cmd_artifacts(args) -> int:
    from .service.client import ServiceError

    client = _service_client(args)
    try:
        if not args.job:
            for artifact_id in client.artifacts():
                print(artifact_id)
            return 0
        artifact = client.artifact(args.job)
    except (ServiceError, OSError) as exc:
        print(f"artifacts failed: {exc}", file=sys.stderr)
        return 1
    text = json.dumps(artifact, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"artifact {artifact.get('experiment_id')} "
              f"(schema v{artifact.get('schema_version')}) written to "
              f"{args.out}")
    else:
        print(text)
    return 0


def _cmd_plot(args) -> int:
    from .experiments.ascii_plot import plot_series

    with open(args.results) as handle:
        payload = json.load(handle)
    artifacts = {a["experiment_id"]: a for a in payload.get("artifacts", [])}
    if args.artifact not in artifacts:
        print(f"no artifact {args.artifact!r} in {args.results}; have "
              f"{sorted(artifacts)}", file=sys.stderr)
        return 2
    raw = artifacts[args.artifact].get("series", {})
    wanted = args.series or sorted(raw)
    series = {}
    for name in wanted:
        if name not in raw:
            print(f"artifact {args.artifact} has no series {name!r}; "
                  f"have {sorted(raw)}", file=sys.stderr)
            return 2
        data = raw[name]
        if isinstance(data, dict):
            series[name] = (data["times"], data["values"])
        else:
            series[name] = data
    print(plot_series(series, width=args.width, height=args.height,
                      title=f"[{args.artifact}]"))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


def _dispatch(args) -> int:
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "live":
        return _cmd_live(args)
    if args.command == "gateway":
        return _cmd_gateway(args)
    if args.command == "fluid":
        return _cmd_fluid(args)
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "plot":
        return _cmd_plot(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "submit":
        return _cmd_submit(args)
    if args.command == "status":
        return _cmd_status(args)
    if args.command == "artifacts":
        return _cmd_artifacts(args)
    if args.command == "experiments":
        from .experiments.runner import main as experiments_main
        forwarded: List[str] = []
        if args.list:
            forwarded.append("--list")
        if args.fast:
            forwarded.append("--fast")
        if args.only:
            forwarded.extend(["--only", args.only])
        if args.no_ablations:
            forwarded.append("--no-ablations")
        if args.jobs != 1:
            forwarded.extend(["--jobs", str(args.jobs)])
        if args.chunk is not None:
            forwarded.extend(["--chunk", str(args.chunk)])
        if args.json:
            forwarded.extend(["--json", args.json])
        if args.timeout is not None:
            forwarded.extend(["--timeout", str(args.timeout)])
        if args.retries:
            forwarded.extend(["--retries", str(args.retries)])
        if args.retry_backoff != 0.5:
            forwarded.extend(["--retry-backoff", str(args.retry_backoff)])
        if args.out_dir:
            forwarded.extend(["--out-dir", args.out_dir])
        if args.resume:
            forwarded.append("--resume")
        if args.metrics_out:
            forwarded.extend(["--metrics-out", args.metrics_out])
        return experiments_main(forwarded)
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
