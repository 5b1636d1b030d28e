"""Worker processes: pull jobs from the shared queue, run them isolated.

A worker is a plain loop — heartbeat, claim, execute, repeat — started
either as a child process of ``pels serve`` or standalone against the
same storage directory.  An idle pool worker is woken by the service
the moment a job becomes claimable; the idle poll is the fallback.
Execution reuses the runner's hardening recipe from PR 3: the
experiment runs in a *disposable child process* (crash isolation,
enforceable timeouts) whose structured-failure semantics come from
``runner._run_one``.

While a job executes the worker keeps heartbeating (so the queue's
stale-job sweep knows it is alive), polls the record for cooperative
cancellation, and enforces the job's wall-clock timeout.  The child
meanwhile streams live telemetry: an ``obs`` MetricsRegistry is active
for the whole run and a flusher thread appends each new epoch snapshot
to the job's stream file, followed at completion by the exact
``--metrics-out`` JSONL line(s) the runner would have written for the
same experiment — byte-identical, which SV1 pins.

Spawning, babysitting and teardown of that child are
:func:`repro.core.proc.run_task`'s; its orphan rule means a SIGKILLed
worker takes its experiment down with it, so the requeued attempt on
another worker is the only writer of the job's artifact.
"""

from __future__ import annotations

import json
import os
import threading
import time
from typing import TYPE_CHECKING, Callable, List, Optional

from ..core import proc
from .queue import Job, JobQueue
from .storage import FileStorage

if TYPE_CHECKING:  # experiments imports this package (SV1): stay lazy
    from ..experiments.common import ExperimentResult

__all__ = ["run_worker", "worker_main", "pool_worker_main",
           "execute_in_child", "canonical_artifact_bytes"]


def canonical_artifact_bytes(payload: dict,
                             volatile_prefixes: tuple = ()) -> bytes:
    """Canonical serialization for artifact comparison.

    Drops ``wall_time`` — the host-dependent field every exported
    result carries (the export layer's metrics JSONL does the same) —
    and serializes with sorted keys, so two artifacts of the same
    deterministic experiment compare byte-identical no matter which
    worker, host or attempt produced them.

    ``volatile_prefixes`` additionally drops named metric families for
    experiments that record wall-clock facts *inside* their metrics
    (S1's and S2's, declared in ``experiments.runner.HOST_FACTS``):
    everything else still must match to the byte.
    """
    slim = {k: v for k, v in payload.items() if k != "wall_time"}
    if volatile_prefixes and isinstance(slim.get("metrics"), dict):
        slim["metrics"] = {
            k: v for k, v in slim["metrics"].items()
            if not k.startswith(volatile_prefixes)}
    return json.dumps(slim, sort_keys=True).encode()


# -- execution child ---------------------------------------------------------


def _job_child(job_payload: dict, storage_root: str) -> ExperimentResult:
    """Child body: run the experiment, stream snapshots, return result."""
    from ..experiments.runner import _run_one
    from ..experiments.export import metrics_jsonl_lines
    from ..obs.metrics import MetricsRegistry, metrics

    job_id = job_payload["job_id"]
    params = job_payload.get("params", {})
    key = params.get("key", "")
    fast = bool(params.get("fast", False))
    storage = FileStorage(storage_root)

    registry = MetricsRegistry()
    stop = threading.Event()
    seen = 0

    def _drain() -> List[str]:
        nonlocal seen
        try:
            snapshots = list(registry.snapshots)
        except RuntimeError:  # appended mid-copy; next tick gets it
            return []
        fresh, seen = snapshots[seen:], len(snapshots)
        return [json.dumps({"type": "snapshot", "data": record},
                           sort_keys=True) for record in fresh]

    def _flush_loop() -> None:
        while not stop.wait(0.2):
            try:
                storage.append_stream(job_id, _drain())
            except OSError:
                pass

    flusher = threading.Thread(target=_flush_loop, daemon=True)
    flusher.start()
    try:
        with metrics(registry):
            result = _run_one(key, fast)
    finally:
        stop.set()
        flusher.join(timeout=2.0)
    lines = _drain()
    # The runner's --metrics-out line for this artifact, verbatim: the
    # stream's "metrics" events carry the same bytes a direct
    # ``python -m repro.experiments --metrics-out`` run would write.
    lines.extend(json.dumps({"type": "metrics", "line": line})
                 for line in metrics_jsonl_lines([result]))
    try:
        storage.append_stream(job_id, lines)
    except OSError:
        pass
    return result


def execute_in_child(queue: JobQueue, storage: FileStorage, job: Job,
                     beat: Callable[[], None]) -> Job:
    """Run one claimed job in a disposable child; settle the record.

    Returns the settled job.  Child crash or timeout burns a retry via
    ``queue.fail`` (requeue with backoff until the budget is gone);
    cooperative cancellation tears the child down and finalizes the
    record as ``cancelled``.
    """
    from ..experiments.export import result_to_dict
    from ..experiments.runner import _preload, failed

    # The child forks from this process: import the job's experiment
    # here, once per worker and key, not inside every job's latency.
    _preload([job.params.get("key", "")])
    last_cancel_check = 0.0

    def tick() -> bool:
        nonlocal last_cancel_check
        beat()
        now = time.monotonic()
        if now - last_cancel_check < 0.5:
            return False
        last_cancel_check = now
        current = queue.get(job.job_id)
        return current is not None and current.cancel_requested

    outcome = proc.run_task(_job_child, (job.to_dict(), str(storage.root)),
                            deadline=job.timeout, tick=tick)
    if outcome.kind == "cancelled":
        return queue.finish_cancel(job)
    if outcome.kind == "ok":
        return queue.complete(job, result_to_dict(outcome.value),
                              failed_result=failed(outcome.value))
    if outcome.kind == "timeout":
        return queue.fail(
            job, f"timeout: exceeded {job.timeout:.0f}s wall clock")
    return queue.fail(job, f"execution child died without a result "
                           f"(exitcode {outcome.exitcode})")


# -- worker loop -------------------------------------------------------------


def run_worker(storage_dir: str, worker_id: str, *,
               poll_interval: float = 0.2,
               heartbeat_interval: float = 0.5,
               executor: Optional[Callable[..., Job]] = None,
               max_jobs: Optional[int] = None,
               idle_exit: Optional[float] = None,
               stop: Optional[Callable[[], bool]] = None) -> int:
    """Pull-and-execute loop; returns the number of jobs executed.

    ``poll_interval`` is the fallback rescan: how long an idle worker
    waits for a wake before it looks at the queue anyway.  Nobody wakes
    a standalone worker, so there it is the whole idle wait; in a pool
    worker (:func:`pool_worker_main`) it is the net under what no wake
    announces — a retry's ``not_before`` maturing, a job another
    process stored.

    ``executor`` defaults to :func:`execute_in_child`; tests inject a
    fake to exercise the loop without process machinery.  ``max_jobs``
    / ``idle_exit`` / ``stop`` bound the loop for embedding and tests;
    the service runs it unbounded and terminates the process instead.
    """
    return _work(threading.Event(), storage_dir, worker_id, poll_interval,
                 heartbeat_interval, executor, max_jobs, idle_exit, stop)


def _work(wake: threading.Event, storage_dir: str, worker_id: str,
          poll_interval: float, heartbeat_interval: float,
          executor: Optional[Callable[..., Job]] = None,
          max_jobs: Optional[int] = None,
          idle_exit: Optional[float] = None,
          stop: Optional[Callable[[], bool]] = None) -> int:
    """The loop of :func:`run_worker`, idling on ``wake``."""
    # Job children fork from this process: load their harness (runner,
    # export, obs metrics, the pickle their result goes back in) before
    # the first claim, not inside a job's latency.  The experiment
    # itself loads per key: execute_in_child.
    import pickle  # noqa: F401
    from ..experiments import export, runner  # noqa: F401
    from ..obs import metrics  # noqa: F401
    storage = FileStorage(storage_dir)
    queue = JobQueue(storage)
    execute = executor or execute_in_child
    executed = 0
    idle_since = time.monotonic()
    last_beat = 0.0
    current_job: Optional[str] = None

    def beat() -> None:
        nonlocal last_beat
        now = time.monotonic()
        if now - last_beat < heartbeat_interval:
            return
        last_beat = now
        try:
            storage.beat(worker_id, {"at": queue.now(),
                                     "pid": os.getpid(),
                                     "job": current_job})
        except OSError:  # pragma: no cover - disk hiccup
            pass

    while not (stop is not None and stop()):
        beat()
        # Clear, scan, then wait: a wake that lands after the scan
        # began is still set when the wait starts.  Wakes that arrived
        # while a job ran are spent on the scan that follows it anyway.
        wake.clear()
        job = queue.claim_next(worker_id)
        if job is None:
            if idle_exit is not None and \
                    time.monotonic() - idle_since > idle_exit:
                break
            wake.wait(poll_interval)
            continue
        current_job = job.job_id
        try:
            execute(queue, storage, job, beat)
        except Exception as exc:  # noqa: BLE001 - worker must survive
            queue.fail(job, f"worker error: {type(exc).__name__}: {exc}")
        current_job = None
        executed += 1
        idle_since = time.monotonic()
        if max_jobs is not None and executed >= max_jobs:
            break
    return executed


def worker_main(storage_dir: str, worker_id: str,
                poll_interval: float = 0.2,
                heartbeat_interval: float = 0.5) -> None:
    """Process entry point of a standalone worker."""
    try:
        run_worker(storage_dir, worker_id, poll_interval=poll_interval,
                   heartbeat_interval=heartbeat_interval)
    except KeyboardInterrupt:  # pragma: no cover - operator ^C
        pass


def pool_worker_main(conn, storage_dir: str, worker_id: str,
                     poll_interval: float, heartbeat_interval: float) -> None:
    """Entry point of a service-spawned worker (a ``proc.spawn`` target).

    The pipe to the service does two things.  Its EOF is the orphan
    rule: a SIGKILLed service takes its pool (and, through each worker,
    the job children) down with it — ``JobQueue.recover()`` relies on
    nothing running at a cold start.  A byte on it is a wake: the
    service made a job claimable, rescan now.
    """
    wake = proc.exit_with_parent(conn)
    try:
        _work(wake, storage_dir, worker_id, poll_interval,
              heartbeat_interval)
    except KeyboardInterrupt:  # pragma: no cover - operator ^C
        pass
