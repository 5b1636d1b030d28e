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

Also runnable as ``python -m repro.cli ...``.  ``pels experiments`` and
``python -m repro.experiments`` are the same parser
(:func:`repro.experiments.runner.add_arguments`).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import typing
from typing import Callable, List, Optional

__all__ = ["main", "build_parser"]


class _VerbParser(argparse.ArgumentParser):
    """One ``pels`` verb; its flags are declared on first use.

    A verb reads the types and defaults of its flags off the config
    record it constructs, and importing every verb's record at start-up
    (the live stack, the experiment registry and numpy behind it) would
    cost each verb — ``pels serve`` most visibly — a quarter of a second
    it has no use for.
    """

    declare: Optional[Callable[[argparse.ArgumentParser], None]] = None

    def declared(self) -> "_VerbParser":
        if self.declare is not None:
            declare, self.declare = self.declare, None
            declare(self)
        return self

    def parse_known_args(self, args=None, namespace=None):
        self.declared()
        return super().parse_known_args(args, namespace)


# ``(flag, record field, help[, add_argument overrides])`` rows: a flag's
# type and default are those of the field (``_add_flags``), and the
# verb's record is built back from the same rows (``_from_flags``).
_ALPHA = ("--alpha", "alpha_bps", "MKC additive gain (b/s)")
_BETA = ("--beta", "beta", "MKC multiplicative gain")
_P_THR = ("--p-thr", "p_thr", "target red-queue loss")
_SIGMA = ("--sigma", "sigma", "gamma controller gain")
_CONTROL = (_ALPHA, _BETA, _P_THR, _SIGMA)
_FLOWS = ("--flows", "n_flows", None)


def _controller_row() -> tuple:
    """``--controller``, its choices read from the registry when the
    verb is declared: a typo fails inside argparse (with the valid
    names listed) instead of deep inside a running session."""
    from .cc import available_controllers
    return ("--controller", "controller_name", "congestion controller",
            {"choices": available_controllers()})


def _simulate_rows() -> tuple:
    return (
        _FLOWS, ("--duration", "duration", None, {"default": 30.0}),
        ("--seed", "seed", None), *_CONTROL, _controller_row(),
        ("--cross-traffic", "cross_traffic", None,
         {"choices": ["cbr", "tcp", "lrd", "none"]}))


def _live_rows() -> tuple:
    return (
        _FLOWS, ("--duration", "duration", "wall-clock streaming seconds"),
        *_CONTROL, _controller_row(),
        ("--bottleneck", "bottleneck_bps",
         "bottleneck link rate (b/s); PELS gets the WRR share of it"),
        ("--interval", "feedback_interval",
         "feedback computation period T (s)"),
        ("--cross-traffic", "cross_traffic", None,
         {"choices": ["cbr", "none"]}),
        ("--seed", "seed", "seed the server-side RNG (cross-traffic wake "
                           "jitter) so the emission schedule reproduces"),
        ("--tune", "tune", "attach the online meta-controller (PID "
                           "tuning of MKC alpha and gamma sigma)"))


_GATEWAY = (
    ("--flows", "flows", "flows to register through the gateway",
     {"default": 100}),
    ("--shards", "shards", "router shard processes", {"default": 2}),
    ("--duration", "duration", "wall-clock streaming seconds"),
    ("--tenants", "tenants", "tenants the flows are spread across"),
    ("--flow-share", "flow_share_bps",
     "per-flow capacity share sizing each shard's bottleneck (b/s)"),
    _ALPHA, _BETA,
    ("--churn", "churn_flows",
     "flows torn down at half-run (teardown path)"),
    ("--seed", "seed", "seed for the run's RNG-driven schedules"))

_FLUID = (
    _FLOWS, ("--duration", "duration", None),
    ("--capacity", "capacities_bps",
     "PELS capacity per router; several values build a multi-hop chain",
     {"metavar": "BPS"}),
    *_CONTROL,
    ("--rtt", "rtt_s", "base round-trip propagation delay (s)"))

_SERVE = (
    ("--workers", "workers", "worker processes pulling from the queue",
     {"metavar": "N"}),
    ("--storage", "storage_dir",
     "persistent storage directory (jobs, artifacts, baselines, streams)",
     {"default": "pels-service", "metavar": "DIR"}),
    ("--host", "host", None),
    ("--port", "port", "HTTP port (0 = ephemeral)", {"default": 7475}),
    ("--heartbeat-timeout", "heartbeat_timeout",
     "heartbeat silence before a running job is requeued",
     {"metavar": "S"}))

_ANALYZE = (("--p-thr", "p_thr", None), ("--alpha", "alpha_bps", None),
            ("--beta", "beta", None))


def _dest(flag: str) -> str:
    return flag.lstrip("-").replace("-", "_")


def _field_type(record: type, name: str):
    """The annotation of ``record``'s field ``name``, evaluated in the
    module that declares it.  One field at a time: a record may type a
    field no flag sets with a name its module imports only for type
    checkers (``LoadConfig.supervisor``)."""
    owner = next(cls for cls in record.__mro__
                 if name in vars(cls).get("__annotations__", {}))
    hint = owner.__annotations__[name]
    if isinstance(hint, str):
        hint = eval(hint, vars(sys.modules[owner.__module__]))
    return hint


def _add_flags(parser: argparse.ArgumentParser, record: type,
               rows) -> None:
    """Add each row's flag with the type and default of ``record``'s
    field: ``bool`` is a switch, ``Optional[X]`` parses as ``X``, a
    ``Tuple[X, ...]`` takes one or more ``X``, ``str`` needs no type."""
    fields = {field.name: field for field in dataclasses.fields(record)}
    for flag, name, help_text, *overrides in rows:
        kind, default = _field_type(record, name), fields[name].default
        if typing.get_origin(kind) is typing.Union:
            kind = typing.get_args(kind)[0]
        options = {"default": default}
        if kind is bool:
            options = {"action": "store_true"}
        elif typing.get_origin(kind) is tuple:
            options.update(type=typing.get_args(kind)[0], nargs="+",
                           default=list(default))
        elif kind is not str:
            options["type"] = kind
        options.update(*overrides)
        parser.add_argument(flag, help=help_text, **options)


def _from_flags(record: type, rows, args, **unflagged):
    """The ``record`` the parsed flags describe."""
    for flag, name, *_ in rows:
        value = getattr(args, _dest(flag))
        unflagged[name] = tuple(value) if isinstance(value, list) else value
    return record(**unflagged)


def _json_flag(parser: argparse.ArgumentParser,
               help_text: str = "write summary JSON here") -> None:
    parser.add_argument("--json", default="", help=help_text)


def _service_flags(parser: argparse.ArgumentParser) -> None:
    """Where ``submit``/``status``/``artifacts`` find the service."""
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7475)


def _write(text: str, path: str, what: str) -> None:
    """``text`` into the file ``path`` (and say so), or to stdout."""
    if path:
        with open(path, "w") as handle:
            handle.write(text)
        print(f"{what} written to {path}")
    else:
        print(text)


def _write_json(payload, path: str, what: str) -> None:
    _write(json.dumps(payload, indent=2), path, f"  {what}")


def _declare_simulate(parser) -> None:
    from .core.session import PelsScenario
    _add_flags(parser, PelsScenario, _simulate_rows())
    parser.add_argument("--tune", action="store_true",
                        help="attach the online meta-controller (PID tuning "
                             "of MKC alpha and gamma sigma within their "
                             "stability-safe ranges)")
    _json_flag(parser)


def _cmd_simulate(args) -> int:
    from .control.meta import MetaControllerConfig
    from .core.report import build_report
    from .core.session import PelsScenario, PelsSimulation

    scenario = _from_flags(
        PelsScenario, _simulate_rows(), args,
        meta_controller=MetaControllerConfig() if args.tune else None)
    sim = PelsSimulation(scenario).run()
    report = build_report(sim.view)
    print(report.render())
    if sim.meta is not None:
        print(f"  meta-control: {sim.meta.adjustments} adjustments over "
              f"{sim.meta.steps} epochs")
    if args.json:
        _write_json(report.to_dict(), args.json, "report")
    return 0


def _declare_live(parser) -> None:
    from .live.session import LiveConfig
    _add_flags(parser, LiveConfig, _live_rows())
    _json_flag(parser)


def _cmd_live(args) -> int:
    from .live.session import LiveConfig, run_live_session

    config = _from_flags(LiveConfig, _live_rows(), args)
    result = run_live_session(config)
    if result.meta is not None:
        print(f"  meta-control: {result.meta.adjustments} adjustments over "
              f"{result.meta.steps} epochs")
    # L1's score: the steady state over the final 40% of the run.
    score = result.score()
    report, oracle = score.report, score.report.rate_theory_bps
    print(report.render())
    print(f"  Lemma 6 oracle: {oracle/1e3:.1f} kb/s per flow; live mean "
          f"{score.mean_rate_bps/1e3:.1f} kb/s "
          f"(err {score.rate_error*100:.1f}%)")
    if args.json:
        _write_json({**report.to_dict(), "lemma6_rate_bps": oracle,
                     "live_mean_rate_bps": score.mean_rate_bps,
                     "lemma6_error": score.rate_error}, args.json, "report")
    return 0


def _declare_gateway(parser) -> None:
    from .live.loadgen import LoadConfig
    _add_flags(parser, LoadConfig, _GATEWAY)
    parser.add_argument("--supervise", action="store_true",
                        help="run a ShardSupervisor over the pool (health "
                             "checks, failover with flow re-homing, "
                             "layered overload shedding)")
    parser.add_argument("--chaos", default="", choices=["", "kill", "stall"],
                        help="inject a live fault mid-run: SIGKILL or "
                             "SIGSTOP the busiest shard (implies the "
                             "sender-side blind-mode watchdog)")
    parser.add_argument("--chaos-at", type=float, default=None, metavar="S",
                        help="fault fire time in run seconds (default: "
                             "45%% of --duration)")
    _json_flag(parser)


def _cmd_gateway(args) -> int:
    from .live.loadgen import LoadConfig, run_load

    # A chaos run is supervised, rides the outage out on the sender's
    # blind-mode watchdog and measures a post-recovery window.
    chaos_kind = args.chaos
    supervisor = None
    if args.supervise or chaos_kind:
        from .live.supervisor import SupervisorConfig
        supervisor = SupervisorConfig()
    config = _from_flags(
        LoadConfig, _GATEWAY, args, supervisor=supervisor,
        feedback_timeout=0.4 if chaos_kind else 0.0,
        post_window=min(2.5, args.duration / 3) if chaos_kind else 0.0)

    chaos = None
    if chaos_kind:
        from .faults import FaultSchedule, ShardKill, ShardStall

        fire_at = args.chaos_at if args.chaos_at is not None \
            else 0.45 * config.duration

        def chaos(ctx):
            slot = ctx.busiest_slots()[0][0]
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
              f"drops {shard.stats.drops}")
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
        _write_json(result.to_dict(), args.json, "summary")
    return 0


def _declare_fluid(parser) -> None:
    from .fluid.scenario import FluidScenario
    _add_flags(parser, FluidScenario, _FLUID)
    parser.add_argument("--backend", default=None,
                        choices=["list", "numpy", "auto"],
                        help="array backend (default: list)")
    _json_flag(parser)


def _cmd_fluid(args) -> int:
    from .fluid import FluidEngine, FluidScenario

    scenario = _from_flags(FluidScenario, _FLUID, args)
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
        _write_json(summary, args.json, "summary")
    return 0


def _declare_analyze(parser) -> None:
    from .core.params import ControlParams
    parser.add_argument("--loss", type=float, required=True)
    parser.add_argument("--frame", type=int, default=100,
                        help="FGS frame size H in packets")
    parser.add_argument("--capacity", type=float, default=2_000_000.0)
    parser.add_argument("--flows", type=int, default=2)
    _add_flags(parser, ControlParams, _ANALYZE)


def _cmd_analyze(args) -> int:
    from .analysis.best_effort import (best_effort_utility,
                                       expected_useful_packets,
                                       optimal_useful_packets)
    from .cc.mkc import mkc_equilibrium_loss, mkc_stationary_rate
    from .core.gamma import gamma_fixed_point, pels_utility_lower_bound

    p, h = args.loss, args.frame
    try:  # every value before any line, so bad input prints none
        ey = expected_useful_packets(p, h)
        ey_opt = optimal_useful_packets(p, h)
        utility = best_effort_utility(p, h)
        bound = pels_utility_lower_bound(p, args.p_thr)
        gamma = gamma_fixed_point(p, args.p_thr)
        r_star = mkc_stationary_rate(args.capacity, args.flows, args.alpha,
                                     args.beta)
        p_star = mkc_equilibrium_loss(args.capacity, args.flows, args.alpha,
                                      args.beta)
    except ValueError as exc:
        print(f"analyze: {exc}", file=sys.stderr)
        return 2
    print(f"Closed forms at p = {p}, H = {h}, p_thr = {args.p_thr}:")
    print(f"  E[Y] best-effort (Eq. 2)   : {ey:.2f} packets")
    print(f"  E[Y] optimal               : {ey_opt:.2f} packets")
    print(f"  utility best-effort (Eq. 3): {utility:.4f}")
    print(f"  utility PELS bound (Eq. 6) : {bound:.4f}")
    print(f"  gamma* = p/p_thr           : {gamma:.4f}")
    print(f"  MKC r* (Lemma 6)           : {r_star/1e3:.1f} kb/s for "
          f"{args.flows} flows on {args.capacity/1e6:.1f} mb/s")
    print(f"  MKC equilibrium loss p*    : {p_star:.4f}")
    return 0


def _declare_trace(parser) -> None:
    parser.add_argument("experiment", nargs="?", default="",
                        help="experiment id to trace (omit for the "
                             "synthetic video-trace mode)")
    parser.add_argument("--fast", action="store_true",
                        help="CI-sized run of the traced experiment")
    parser.add_argument("--events", type=int, default=262_144, metavar="N",
                        help="tracer ring capacity (oldest events evicted "
                             "beyond this)")
    parser.add_argument("--frames", type=int, default=300)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default="",
                        help="write JSON(L) here (default stdout)")


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
    _write(json.dumps(payload, indent=2), args.out,
           f"{args.frames}-frame trace")
    return 0


def _declare_serve(parser) -> None:
    from .service.api import ServiceConfig
    _add_flags(parser, ServiceConfig, _SERVE)


def _cmd_serve(args) -> int:
    from .service.api import ServiceConfig, serve

    if args.workers < 0:
        print("--workers must be non-negative", file=sys.stderr)
        return 2
    config = _from_flags(ServiceConfig, _SERVE, args)
    try:
        serve(config)
    except OSError as exc:  # the start's: a busy port, unusable storage
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("-- service stopped --")
    return 0


def _service_client(args):
    from .service.client import ServiceClient
    return ServiceClient(args.host, args.port)


def _declare_submit(parser) -> None:
    parser.add_argument("experiments", nargs="+", metavar="KEY",
                        help="registry keys to submit (see pels experiments "
                             "--list)")
    parser.add_argument("--fast", action="store_true",
                        help="submit CI-sized runs")
    parser.add_argument("--priority", type=int, default=0)
    parser.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="per-attempt wall-clock budget")
    parser.add_argument("--retries", type=int, default=1, metavar="N")
    _service_flags(parser)
    parser.add_argument("--wait", action="store_true",
                        help="block until the submitted jobs settle")
    _json_flag(parser, "write job records here")


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
        _write_json({"jobs": jobs}, args.json, "job records")
    return 0


def _declare_status(parser) -> None:
    parser.add_argument("job", nargs="?", default="",
                        help="job id (omit for the whole service)")
    parser.add_argument("--state", default="",
                        help="filter the job list by state")
    _service_flags(parser)
    _json_flag(parser, "write the status here")


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
        _write_json(payload, args.json, "status")
    return 0


def _declare_artifacts(parser) -> None:
    parser.add_argument("job", nargs="?", default="",
                        help="job id to fetch (omit to list)")
    _service_flags(parser)
    parser.add_argument("--out", default="", metavar="PATH",
                        help="write the fetched artifact JSON here")


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
    _write(json.dumps(artifact, indent=2, sort_keys=True), args.out,
           f"artifact {artifact.get('experiment_id')} "
           f"(schema v{artifact.get('schema_version')})")
    return 0


def _declare_experiments(parser) -> None:
    from .experiments.runner import add_arguments
    add_arguments(parser)


def _cmd_experiments(args) -> int:
    from .experiments.runner import run_cli
    return run_cli(args)


def _declare_plot(parser) -> None:
    parser.add_argument("results", help="JSON file from experiments --json")
    parser.add_argument("artifact", help="artifact id, e.g. F9")
    parser.add_argument("series", nargs="*",
                        help="series names (default: all in the artifact)")
    parser.add_argument("--width", type=int, default=72)
    parser.add_argument("--height", type=int, default=16)


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


#: ``(verb, flag declaration, command, one-line help, description)``.
_VERBS = (
    ("simulate", _declare_simulate, _cmd_simulate,
     "run a PELS bar-bell session", None),
    ("live", _declare_live, _cmd_live,
     "run the PELS stack over real UDP sockets (wall clock)",
     "Stream synthetic FGS video from a paced server through a "
     "userspace software router (tri-color strict-priority + WRR, Eq. 11 "
     "labels) to a client, all on loopback UDP under time.monotonic, and "
     "compare the converged rate to the Lemma 6 oracle "
     "r* = C/N + alpha/beta."),
    ("gateway", _declare_gateway, _cmd_gateway,
     "load-test the sharded live gateway (admission control + router "
     "shard processes)",
     "Spawn a pool of router shard processes, register a population of "
     "flows through the admission gateway (per-tenant token buckets, "
     "concurrency caps, per-shard capacity budgets, stable-hash "
     "placement), stream them all from one paced sender, and "
     "report goodput vs the Lemma 6 oracle, per-color delay percentiles, "
     "admission throughput, and CPU per flow."),
    ("fluid", _declare_fluid, _cmd_fluid,
     "epoch-batched fluid run (paper recurrences, no packets: "
     "thousand-flow scaling)", None),
    ("serve", _declare_serve, _cmd_serve,
     "run the experiment-fleet service (job queue + workers + HTTP API "
     "+ live metric streaming)",
     "Long-running control plane over the experiment fleet: submit "
     "experiment jobs over HTTP, N worker processes pull from a "
     "persistent queue (heartbeats, stale-job requeue, crash-isolated "
     "execution), artifacts and baselines persist in the storage "
     "directory, and obs metric snapshots stream to subscribed clients "
     "while jobs run."),
    ("submit", _declare_submit, _cmd_submit,
     "submit experiment jobs to a running pels service", None),
    ("status", _declare_status, _cmd_status,
     "service health and job states (optionally one job)", None),
    ("artifacts", _declare_artifacts, _cmd_artifacts,
     "list stored artifacts, or fetch one job's artifact", None),
    ("experiments", _declare_experiments, _cmd_experiments,
     "regenerate the paper's tables and figures", None),
    ("analyze", _declare_analyze, _cmd_analyze,
     "closed-form values (Lemmas 1-6)", None),
    ("trace", _declare_trace, _cmd_trace,
     "trace an experiment as JSONL, or generate a synthetic video trace",
     "With an experiment id (e.g. F2, R1), run it with the structured "
     "tracer and metrics registry active and emit the JSONL timeline.  "
     "Without one, generate a synthetic Foreman-like video trace (legacy "
     "mode)."),
    ("plot", _declare_plot, _cmd_plot,
     "chart a series from a results JSON (see experiments --json)", None),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pels",
        description="PELS (ICDCS 2004) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_VerbParser)
    for verb, declare, command, help_text, description in _VERBS:
        verb_parser = sub.add_parser(verb, help=help_text,
                                     description=description)
        verb_parser.declare = declare
        verb_parser.set_defaults(func=command)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
