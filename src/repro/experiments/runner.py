"""Run every reproduced table and figure and print the report.

Usage::

    python -m repro.experiments                # full runs
    python -m repro.experiments --fast         # CI-sized runs
    python -m repro.experiments --only F7      # one artifact
    python -m repro.experiments --only T1,F7,S1  # several artifacts
    python -m repro.experiments --jobs 4       # experiments in parallel
    python -m repro.experiments --profile out.pstats   # cProfile dump
    python -m repro.experiments --timeout 600 --retries 2   # hardened
    python -m repro.experiments --out-dir runs/ --resume    # restartable

Experiments are independent (each builds its own seeded simulator), so
``--jobs N`` runs N of them at a time, each in a disposable child
process; results come back in the same deterministic order as a serial
run.  Per-experiment wall times go to stderr so stdout stays
byte-stable across hosts.

The runner is hardened against misbehaving experiments: an experiment
that raises yields a structured FAILED artifact (and exit code 1)
instead of killing the sweep, and so does a child that dies outright;
transient errors retry with exponential backoff (``--retries``);
``--timeout`` gives each experiment's child a wall-clock budget and
kills it on expiry; ``--out-dir`` checkpoints each artifact as it
completes and ``--resume`` skips artifacts already checkpointed there.
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time
import traceback
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from pathlib import Path

from ..core import proc
from ..core.retry import retry_call
from .common import ExperimentResult

__all__ = ["EXPERIMENTS", "HOST_FACTS", "describe_registry", "run_all",
           "add_arguments", "run_cli", "main"]

#: Figure/table key -> (module in this package, entry function, one-line
#: description).  Names, not functions: reading the table imports no
#: experiment.  The description is the module docstring's first line
#: (``tests/test_runner_cli.py`` keeps the two in sync).
EXPERIMENTS: Dict[str, Tuple[str, str, str]] = {
    "T1": ("table1", "run",
           "Table 1 — expected number of useful packets, model vs simulation."),
    "F2": ("fig2", "run",
           "Fig. 2 — useful packets and utility vs frame size H (p = 0.1)."),
    "F5": ("fig5", "run",
           "Fig. 5 — stability of the gamma controller vs the gain sigma."),
    "F7": ("fig7", "run",
           "Fig. 7 — gamma evolution and red packet loss in full simulation."),
    "F8": ("fig8", "run",
           "Fig. 8 — green and yellow packet delays under arriving flows."),
    "F9": ("fig9", "run",
           "Fig. 9 — red packet delays (left) and MKC convergence/fairness "
           "(right)."),
    "F10": ("fig10", "run",
            "Fig. 10 — PSNR of reconstructed Foreman: PELS vs best-effort."),
    "X1": ("multihop", "run", "X1 — multi-bottleneck validation (extension)."),
    "X2": ("heterogeneous", "run",
           "X2 — MKC under heterogeneous feedback delays (extension)."),
    "X3": ("rd_smoothing", "run",
           "X3 — R-D-aware constant-quality scaling (extension)."),
    "X4": ("closed_loop_be", "run",
           "X4 — closed-loop best-effort validation of Lemma 1 (extension)."),
    "X5": ("bursts_exp", "run",
           "X5 — loss-burst structure: validating §3's exponential-tail "
           "assumption."),
    "X6": ("deadlines", "run",
           "X6 — decoding deadlines: PELS vs retransmission-based recovery."),
    "X7": ("fec_comparison", "run",
           "X7 — PELS vs FEC-protected best-effort at equal bandwidth."),
    "S1": ("scaling", "run",
           "S1 — fluid-engine scaling sweep: thousand-flow populations "
           "(extension)."),
    "S2": ("capacity", "run",
           "S2 — CDN capacity planning: 10^6 flows over multi-bottleneck "
           "fabrics"),
    "R1": ("chaos", "run",
           "R1 — chaos suite: PELS under faults (robustness extension)."),
    "L1": ("live_exp", "run",
           "L1 — the live stack vs Lemma 6 on simulated time (extension)."),
    "L2": ("live_load", "run",
           "L2 — gateway load: hundreds of live flows across router shards."),
    "L3": ("live_chaos", "run",
           "L3 — chaos under load: the supervised gateway survives a shard "
           "kill."),
    "SV1": ("service_exp", "run",
            "SV1 — service-fleet integration: mixed batch, worker kill, "
            "identical artifacts."),
}

#: ``ablations.ABLATIONS`` by name, in its order; the description is the
#: entry function's docstring's first line.
ABLATIONS: Dict[str, Tuple[str, str, str]] = {
    "A1": ("ablations", "run_sigma_sweep",
           "A1: settle time and overshoot of Eq. (4) across sigma."),
    "A2": ("ablations", "run_pthr_sweep",
           "A2: utility bound and measured red loss across p_thr."),
    "A3": ("ablations", "run_wrr_sweep",
           "A3: the PELS aggregate receives its configured WRR share."),
    "A4": ("ablations", "run_meta_control",
           "A4 — adaptive meta-control: PID-tuned vs paper-fixed parameters."),
    "A5": ("ablations", "run_controller_comparison",
           "A5: rate smoothness of MKC vs AIMD vs TFRC under PELS."),
    "A6": ("ablations", "run_two_priority",
           "A6: tri-color PELS vs a QBSS-like two-priority variant."),
    "A7": ("ablations", "run_robustness",
           "A7: robustness — ACK loss and runtime WRR renegotiation."),
    "A8": ("ablations", "run_red_buffer_sweep",
           "A8: red buffer size vs red delay (loss is buffer-independent)."),
}


#: What "the same artifact" means per key, for ``compare.diverging``.
#: An absent key (or ``()``) is exact: byte-equal but for ``wall_time``.
#: A tuple names metric-prefix families that are host facts (wall time,
#: throughput, RSS), exact otherwise.  ``None`` is live on the wall
#: clock: present, never byte-stable.
HOST_FACTS: Dict[str, Optional[Tuple[str, ...]]] = {
    "S1": ("wall_per_sim_s_", "epochs_per_s_", "peak_rss_bytes_"),
    "S2": ("wall_s_", "epochs_per_s_", "peak_rss_bytes_"),
    "L3": None, "SV1": None}


class _Registry(Mapping[str, Callable[..., ExperimentResult]]):
    """Key -> entry function; a key's module is imported when it is
    looked up, so ``in``, ``len`` and iteration import nothing."""

    def __init__(self, names: Dict[str, Tuple[str, ...]]) -> None:
        self._names = names

    def __getitem__(self, key: str) -> Callable[..., ExperimentResult]:
        module, attr = self._names[key][:2]
        return getattr(importlib.import_module(f"{__package__}.{module}"),
                       attr)

    def __contains__(self, key: object) -> bool:
        return key in self._names

    def __iter__(self) -> Iterator[str]:
        return iter(self._names)

    def __len__(self) -> int:
        return len(self._names)


_REGISTRY: Optional[Mapping[str, Callable[..., ExperimentResult]]] = None


def _registry() -> Mapping[str, Callable[..., ExperimentResult]]:
    """All runnable artifacts: figures/tables plus ablations.

    Built once per process and cached.  Checking or listing keys
    imports nothing; ``_registry()[key]`` imports that key's module
    (an import error raises there, for ``_run_one`` to report as the
    key's structured failure).
    """
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = _Registry({**EXPERIMENTS, **ABLATIONS})
    return _REGISTRY


def _preload(keys: List[str]) -> None:
    """Import the modules of ``keys`` here, so children forked from
    this process inherit them instead of each importing its own.

    A key whose module fails to import is skipped: its run fails in
    ``_run_one``, as that key's structured failure, not here.
    """
    registry = _registry()
    for key in keys:
        try:
            registry[key]
        except Exception:  # noqa: BLE001 - reported by _run_one
            pass


def describe_registry() -> List[Tuple[str, str]]:
    """``(key, one-line description)`` for every runnable artifact.

    This powers ``--list`` and the service API's ``GET /experiments``,
    so clients can discover submittable jobs without reading source.
    The descriptions are the registry tables' third column, so listing
    imports no experiment module.
    """
    return [(key, entry[2])
            for key, entry in {**EXPERIMENTS, **ABLATIONS}.items()]


def _parse_only(only: str) -> Tuple[List[str], List[str]]:
    """Split a comma-separated ``--only`` into (known, unknown) keys.

    Known keys keep the user's order (deduplicated); unknown ones are
    reported back for the error message.
    """
    registry = _registry()
    known: List[str] = []
    unknown: List[str] = []
    for token in only.split(","):
        key = token.strip().upper()
        if not key:
            continue
        if key in registry:
            if key not in known:
                known.append(key)
        else:
            unknown.append(key)
    return known, unknown


def _select(only: str, with_ablations: bool) -> List[str]:
    """Experiment ids to run, in deterministic report order.

    An unknown key anywhere in ``--only`` selects nothing: running the
    valid half of a typo'd list would report success for the wrong set.
    """
    if only:
        known, unknown = _parse_only(only)
        return [] if unknown else known
    keys = list(EXPERIMENTS)
    if with_ablations:
        keys.extend(ABLATIONS)
    return keys


def _unknown_key_message(only: str) -> str:
    """Error text for a bad ``--only``, with near-miss suggestions."""
    import difflib
    registry = sorted(_registry())
    _, unknown = _parse_only(only)
    parts = [] if unknown else [f"no experiment matches {only!r}"]
    for key in unknown:
        close = difflib.get_close_matches(key, registry, n=3, cutoff=0.4)
        hint = f" (did you mean {', '.join(close)}?)" if close else ""
        parts.append(f"no experiment matches {key!r}{hint}")
    parts.append(f"have {registry}")
    return "; ".join(parts)


#: Exception classes treated as transient worker failures: these are
#: environmental (fd exhaustion, pipe breakage, resource pressure), so
#: a bounded retry with backoff is worth it.  Everything else fails the
#: experiment deterministically on the first attempt.
TRANSIENT_ERRORS = (OSError, EOFError, MemoryError, TimeoutError)


def failed(result: ExperimentResult) -> bool:
    """Whether a result is a structured failure entry."""
    return result.metrics.get("failed", 0.0) == 1.0


def _failure_result(key: str, kind: str, message: str,
                    attempts: int, wall_time: float) -> ExperimentResult:
    """Structured failure entry: renders like any artifact, never raises.

    ``metrics["failed"] == 1.0`` is the machine-readable marker (the
    runner's exit code and ``--resume`` both key off it).
    """
    result = ExperimentResult(key, f"FAILED ({kind})")
    result.metrics["failed"] = 1.0
    result.metrics["attempts"] = float(attempts)
    result.note(f"{kind} after {attempts} attempt(s): {message}")
    result.wall_time = wall_time
    return result


def _sweep_kwargs(fn: Callable[..., ExperimentResult], jobs: int,
                  chunk: Optional[int]) -> Dict[str, int]:
    """The subset of {jobs, chunk} an experiment's ``run`` accepts.

    Experiments that sweep many scenarios (S1, S2) parallelize
    internally; the runner forwards its ``--jobs``/``--chunk`` budget
    to them only when it is not already spending it on a process pool
    of experiments.
    """
    import inspect
    try:
        params = inspect.signature(fn).parameters
    except (TypeError, ValueError):  # pragma: no cover - builtins only
        return {}
    kwargs: Dict[str, int] = {}
    if jobs != 1 and "jobs" in params:
        kwargs["jobs"] = jobs
    if chunk is not None and "chunk" in params:
        kwargs["chunk"] = chunk
    return kwargs


def _sweep_budget(jobs: int, n_experiments: int) -> int:
    """Worker budget forwarded into each experiment's internal sweep.

    When the runner's own pool is wider than the experiment list, the
    spare width goes to the sweeps; at minimum every sweep experiment
    gets 2 workers so ``--jobs`` always reaches S1/S2 (the transient
    oversubscription while both pool levels are busy is bounded by
    ``jobs x budget`` and short-lived — experiments finish staggered).
    """
    if jobs <= 1:
        return 1
    return max(2, jobs // max(1, min(jobs, n_experiments)))


def _run_one(key: str, fast: bool, retries: int = 0,
             backoff: float = 0.5, jobs: int = 1,
             chunk: Optional[int] = None) -> ExperimentResult:
    """Execute one experiment; crash-isolated, with bounded retry.

    Module-level so it pickles for the ``--jobs`` process pool.  Any
    exception becomes a structured failure entry rather than
    propagating — one failing experiment must not abort the pool, and
    serial and ``--jobs`` runs must report identically.  Transient
    errors (see TRANSIENT_ERRORS) retry up to ``retries`` times with
    exponential backoff.
    """
    t0 = time.perf_counter()
    attempts = 0

    def attempt() -> ExperimentResult:
        nonlocal attempts
        attempts += 1
        fn = _registry()[key]
        return fn(fast=fast, **_sweep_kwargs(fn, jobs, chunk))

    try:
        result = retry_call(attempt, retries=retries, base=backoff,
                            transient=TRANSIENT_ERRORS)
    except TRANSIENT_ERRORS as exc:
        return _failure_result(
            key, "transient-error", f"{type(exc).__name__}: {exc}",
            attempts, time.perf_counter() - t0)
    except Exception as exc:
        tail = traceback.format_exc().strip().splitlines()[-3:]
        return _failure_result(
            key, "error", f"{type(exc).__name__}: {exc} | "
            + " / ".join(tail), attempts, time.perf_counter() - t0)
    result.wall_time = time.perf_counter() - t0
    return result


class _ChildFailed(Exception):
    """An isolation child ended without a result (carries the
    :class:`~repro.core.proc.Outcome`)."""

    def __init__(self, outcome: proc.Outcome) -> None:
        super().__init__(outcome.kind)
        self.outcome = outcome


def _run_isolated(key: str, fast: bool, timeout: Optional[float],
                  retries: int = 0, backoff: float = 0.5, jobs: int = 1,
                  chunk: Optional[int] = None) -> ExperimentResult:
    """Run one experiment in a disposable child process.

    The child is killed when ``timeout`` expires, so a hung experiment
    cannot stall the sweep; a child that dies without reporting (hard
    crash, OOM kill) yields a structured failure entry instead of
    breaking the sweep.  Timeouts and crashes count as transient and
    honour the same bounded retry as the errors ``_run_one`` retries
    inside the child.  The ``jobs``/``chunk`` sweep budget reaches the
    child's experiment exactly as it would in-process
    (``_sweep_kwargs`` decides).
    """
    t0 = time.perf_counter()

    def attempt() -> ExperimentResult:
        outcome = proc.run_task(
            _run_one, (key, fast, retries, backoff, jobs, chunk),
            deadline=timeout)
        if outcome.kind != "ok":
            raise _ChildFailed(outcome)
        return outcome.value

    try:
        result = retry_call(attempt, retries=retries, base=backoff,
                            transient=(_ChildFailed,))
    except _ChildFailed as exc:
        if exc.outcome.kind == "timeout":
            kind = "timeout"
            message = f"exceeded {timeout:.0f}s wall clock"
        else:
            kind = "worker-died"
            message = (f"isolation process exited without a result "
                       f"(exitcode {exc.outcome.exitcode})")
        return _failure_result(key, kind, message, retries + 1,
                               time.perf_counter() - t0)
    result.wall_time = time.perf_counter() - t0
    return result


def _checkpoint_path(out_dir: str, key: str) -> Path:
    return Path(out_dir) / f"{key}.json"


def _load_checkpoint(out_dir: str, key: str) -> Optional[ExperimentResult]:
    """A previously completed (non-failed) result, or None."""
    from ..service.storage import load_json
    from .export import result_from_dict
    payload = load_json(_checkpoint_path(out_dir, key))
    if payload is None:
        return None  # absent, or corrupt/partial (quarantined): re-run
    try:
        result = result_from_dict(payload)
    except (ValueError, KeyError, TypeError):
        return None
    return None if failed(result) else result


def _write_checkpoint(out_dir: str, key: str,
                      result: ExperimentResult) -> None:
    import json

    from ..service.storage import write_atomic
    from .export import result_to_dict
    path = _checkpoint_path(out_dir, key)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(path, json.dumps(result_to_dict(result), indent=2))


def run_all(fast: bool = False, only: str = "",
            with_ablations: bool = True, jobs: int = 1,
            retries: int = 0, backoff: float = 0.5,
            timeout: Optional[float] = None,
            out_dir: str = "", resume: bool = False,
            chunk: Optional[int] = None) -> List[ExperimentResult]:
    """Run the selected experiments and return their results.

    With ``jobs > 1`` the experiments run ``jobs`` at a time, each in
    a disposable child process; each one owns a seeded simulator, so
    results are the same as a serial run's (``compare.diverging``), in the
    same order.  When only a single experiment is selected, ``jobs``
    (and the sweep granularity ``chunk``) is forwarded *into* it
    instead, so sweep experiments like S1/S2 parallelize over their
    scenario grid.  A ``timeout`` is the per-experiment deadline of
    that same out-of-process path (and selects it even for a serial
    sweep: an in-process experiment cannot be killed).  With
    ``out_dir`` each artifact is checkpointed as it completes;
    ``resume`` skips artifacts already checkpointed there (failed ones
    re-run).
    """
    keys = _select(only, with_ablations)
    done: Dict[str, ExperimentResult] = {}
    if resume and out_dir:
        for key in keys:
            loaded = _load_checkpoint(out_dir, key)
            if loaded is not None:
                done[key] = loaded
    todo = [key for key in keys if key not in done]

    def settle(key: str, result: ExperimentResult) -> None:
        # Indexed by the *submitted* key, not result.experiment_id — a
        # misbehaving experiment may return a mislabeled result, and
        # the sweep's bookkeeping must not depend on experiment
        # correctness.  Checkpointed now, not after the sweep: an
        # interrupted run keeps what it finished.
        done[key] = result
        if out_dir:
            _write_checkpoint(out_dir, key, result)

    if timeout is not None or (jobs > 1 and len(todo) > 1):
        # Thread pool driving per-experiment child processes: threads
        # only babysit pipes, the work happens in the children.
        from concurrent.futures import ThreadPoolExecutor, as_completed
        # Sweep experiments keep their jobs/chunk budget even when a
        # pool runs above them: the grid of an S1/S2 cell is far finer
        # than the experiment list, so starving it of workers costs
        # more than the transient oversubscription while both pools
        # are busy (experiments finish staggered).
        inner = _sweep_budget(jobs, len(todo))
        _preload(todo)
        with ThreadPoolExecutor(max_workers=max(1, jobs)) as pool:
            futures = {pool.submit(_run_isolated, key, fast, timeout,
                                   retries, backoff, inner, chunk): key
                       for key in todo}
            for future in as_completed(futures):
                settle(futures[future], future.result())
    else:
        # Serial and in-process (the byte-identity reference, and what
        # --profile measures): the jobs/chunk budget goes to each
        # experiment's internal scenario sweep instead (no pool above
        # means no nested-pool hazard).
        for key in todo:
            settle(key, _run_one(key, fast, retries, backoff, jobs=jobs,
                                 chunk=chunk))
    return [done[key] for key in keys]


def _is_numeric_series(values) -> bool:
    try:
        items = list(values)
    except TypeError:
        return False
    return bool(items) and all(
        isinstance(v, (int, float)) and not isinstance(v, bool)
        for v in items)


def _is_plottable(data) -> bool:
    """Series of numbers, or a (times, values) pair of number lists.

    Validates *every* element: a series whose tail mixes in strings or
    None (only the head used to be checked) must be skipped, not crash
    ``--plot`` halfway through the report.
    """
    if isinstance(data, tuple) and len(data) == 2:
        times, values = data
        return (_is_numeric_series(times) and _is_numeric_series(values)
                and len(list(times)) == len(list(values)))
    return _is_numeric_series(data)


def _print_timings(results: List[ExperimentResult]) -> None:
    """Per-experiment wall times (stderr keeps stdout deterministic)."""
    total = sum(r.wall_time for r in results)
    print("-- per-experiment wall time --", file=sys.stderr)
    for result in sorted(results, key=lambda r: -r.wall_time):
        share = result.wall_time / total * 100 if total else 0.0
        print(f"   {result.experiment_id:<4} {result.wall_time:7.2f}s"
              f"  {share:5.1f}%", file=sys.stderr)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare the sweep's flags on ``parser`` — the one declaration
    behind both ``python -m repro.experiments`` and ``pels experiments``."""
    parser.description = "Regenerate the paper's tables and figures"
    parser.add_argument("--fast", action="store_true",
                        help="short runs (CI-sized)")
    parser.add_argument("--only", default="",
                        help="run selected artifacts, comma-separated "
                             "(e.g. T1 or T1,F7,S1)")
    parser.add_argument("--list", action="store_true",
                        help="list runnable artifact keys with one-line "
                             "descriptions and exit")
    parser.add_argument("--no-ablations", action="store_true",
                        help="skip the ablation studies")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="run experiments in N worker processes")
    parser.add_argument("--chunk", type=int, default=None, metavar="M",
                        help="scenarios per worker task for sweep "
                             "experiments (S1/S2) when --jobs feeds a "
                             "single experiment's internal sweep")
    parser.add_argument("--json", default="",
                        help="also write all results to this JSON file")
    parser.add_argument("--plot", action="store_true",
                        help="render ASCII charts for recorded series")
    parser.add_argument("--profile", nargs="?", const="repro-profile.pstats",
                        default="", metavar="PATH",
                        help="dump cProfile stats of the run to PATH "
                             "(implies --jobs 1) and print the top "
                             "functions to stderr")
    parser.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="wall-clock budget per experiment; runs each "
                             "one in a disposable child process that is "
                             "killed on expiry")
    parser.add_argument("--retries", type=int, default=0, metavar="N",
                        help="retry transient failures (and timeouts) up "
                             "to N times with exponential backoff")
    parser.add_argument("--retry-backoff", type=float, default=0.5,
                        metavar="S", help="base backoff delay between "
                        "retry attempts (doubles each attempt)")
    parser.add_argument("--metrics-out", default="", metavar="PATH",
                        help="write one JSON line per artifact (id, title, "
                             "failed flag, metrics) to PATH; the same serial "
                             "or --jobs for exact artifacts, S1/S2 but for "
                             "host facts; live ones are not byte-stable")
    parser.add_argument("--out-dir", default="", metavar="DIR",
                        help="checkpoint each artifact to DIR/<KEY>.json "
                             "as it completes")
    parser.add_argument("--resume", action="store_true",
                        help="skip artifacts already checkpointed in "
                             "--out-dir (failed ones re-run)")
    parser.set_defaults(error=parser.error)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    add_arguments(parser)
    return run_cli(parser.parse_args(argv))


def run_cli(args: argparse.Namespace) -> int:
    """Run the sweep a namespace parsed by :func:`add_arguments` asks for."""
    if args.list:
        for key, description in describe_registry():
            print(f"{key:<4} {description}")
        return 0
    if args.jobs < 1:
        args.error("--jobs must be at least 1")
    if args.chunk is not None and args.chunk < 1:
        args.error("--chunk must be at least 1")
    if args.timeout is not None and args.timeout <= 0:
        args.error("--timeout must be positive")
    if args.retries < 0:
        args.error("--retries must be non-negative")
    if args.retry_backoff < 0:
        args.error("--retry-backoff must be non-negative")
    if args.resume and not args.out_dir:
        args.error("--resume requires --out-dir")

    profiler = None
    jobs = args.jobs
    if args.profile:
        import cProfile

        from ..obs.profile import enable_profiling, reset_profile
        if jobs > 1:
            print("-- profiling runs serially; ignoring --jobs --",
                  file=sys.stderr)
            jobs = 1
        # The fluid engines' per-section timings ride along with
        # cProfile (it cannot see inside one function): they merge into
        # the obs accumulator, reported to stderr after the sweep.
        reset_profile()
        enable_profiling()
        profiler = cProfile.Profile()
        profiler.enable()

    t0 = time.time()
    results = run_all(fast=args.fast, only=args.only,
                      with_ablations=not args.no_ablations, jobs=jobs,
                      retries=args.retries, backoff=args.retry_backoff,
                      timeout=args.timeout, out_dir=args.out_dir,
                      resume=args.resume, chunk=args.chunk)
    if profiler is not None:
        profiler.disable()
    if not results:
        print(_unknown_key_message(args.only), file=sys.stderr)
        return 2
    for result in results:
        print(result.render())
        if args.plot and result.series:
            from .ascii_plot import plot_series
            plottable = {name: data for name, data in result.series.items()
                         if _is_plottable(data)}
            if plottable:
                print()
                print(plot_series(plottable,
                                  title=f"[{result.experiment_id}] series"))
        print()
    if args.json:
        from .export import write_json
        write_json(results, args.json)
        print(f"-- results written to {args.json} --")
    if args.metrics_out:
        from .export import write_metrics_jsonl
        count = write_metrics_jsonl(results, args.metrics_out)
        print(f"-- {count} metrics line(s) written to "
              f"{args.metrics_out} --")
    diverging = [
        note for result in results for note in result.notes
        if "DIVERGES" in note]
    failures = [result for result in results if failed(result)]
    # Elapsed seconds go to stderr: stdout must stay byte-identical
    # between serial and --jobs runs (and across hosts).
    print(f"-- {len(results)} artifacts regenerated; "
          f"{len(diverging)} checks diverged --")
    print(f"-- total wall time {time.time() - t0:.1f}s --", file=sys.stderr)
    for note in diverging:
        print("   ", note)
    if failures:
        print(f"-- {len(failures)} experiment(s) FAILED: "
              + ", ".join(r.experiment_id for r in failures) + " --")
    _print_timings(results)
    if profiler is not None:
        import pstats

        from ..obs.profile import disable_profiling, write_profile_report
        profiler.dump_stats(args.profile)
        print(f"-- cProfile stats written to {args.profile} --",
              file=sys.stderr)
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("tottime").print_stats(25)
        write_profile_report(sys.stderr)
        disable_profiling()
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
