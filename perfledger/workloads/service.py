"""``service_jobs``: ``pels serve`` driven over HTTP.

``python -m repro.cli serve --workers 1 --storage <tmp> --port 0`` runs
as a subprocess and is driven through ``ServiceClient``: claim -> fork
-> run -> flush plus HTTP and storage overhead, with the ~10 ms ``F2``
fast payload, so the simulator itself is noise here.  (``T1``, ten
times the payload, was tried for the trickle: a job's compute time in
a forked child swings by 40 % between runs of a bad minute on this
host, and with ``T1`` it is half the latency.)

``trickle``  One client submits ``F2`` fast jobs, each a think time
             after the previous one finished — a **closed loop**, no
             queueing.  A plain closed loop phase-locks to the worker's
             0.2 s idle poll and always reads the same wait; an open
             loop samples that wait at random phases, and the median of
             the ~25 jobs a run fits then wanders by +-10 %.  Here the
             think time is ``0.05 s + u * poll`` with ``u`` a seeded
             golden-ratio sequence, so consecutive jobs meet the poll at
             evenly spread phases: the whole wait distribution is
             sampled, without the sampling noise.  Latency is timed
             from the due time; how late submissions ran is reported.
``backlog``  ``F2`` fast jobs in one POST, timed to the last terminal
             state.  The stored-job working set grows, which exposes
             the O(N) scans in ``JobQueue.jobs()`` / ``claim_next``.
             Traced runs only: on a shared host its throughput and CPU
             per job spread by 10-28 % between runs, more than a bound
             can hold, so they are layer rows.

The generator is one process, one thread, one connection at a time.
Every artifact is compared, under ``canonical_artifact_bytes``, with a
direct ``run_all(only=key, fast=True)``.
"""

from __future__ import annotations

import os
import random
import re
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Iterator, List, Tuple

from repro.experiments.export import result_to_dict
from repro.experiments.runner import run_all
from repro.service.api import ServiceConfig
from repro.service.client import ServiceClient
from repro.service.queue import JobQueue
from repro.service.storage import FileStorage
from repro.service.worker import canonical_artifact_bytes

from ..harness import (OUT_DIR, REPO_ROOT, HostSpeed, Lateness, measure,
                       percentile, proc_children, proc_cpu_seconds,
                       proc_peak_rss_mb, tail_percentile)
from ..spans import SpanRecorder
from . import Outcome

__all__ = ["setup", "run", "teardown", "think_times"]

#: The registry experiment both phases submit (fast mode).
JOB_KEY = "F2"
#: Share of ``--seconds`` the trickle schedule spans in an untraced run.
TRICKLE_SHARE = 0.95
#: Backlog jobs per second of ``--seconds`` (150 at the default 10 s).
BACKLOG_PER_SECOND = 15
#: In-process queue cycle: queued jobs in the store, jobs per slice,
#: slices.
STORE_JOBS = 150
CYCLES_PER_SLICE = 2
QUEUE_SLICES = 30
STREAM_POLL_S = 0.02
#: Calibrations between two looks at the backlog's last job (~50 ms)
#: and at an outstanding trickle job (~15 ms).
BACKLOG_CALS_PER_POLL = 12
WATCH_CALS_PER_POLL = 3
READY_TIMEOUT_S = 30.0


#: Fixed part of the think time between a job's completion and the
#: next submission.
THINK_BASE_S = 0.05
GOLDEN_RATIO = 0.6180339887498949


def think_times(seed: int, period_s: float) -> Iterator[float]:
    """Think times ``THINK_BASE_S + u * period_s`` with ``u`` a seeded
    golden-ratio sequence: successive values of ``u`` fill [0, 1)
    evenly, so n consecutive jobs sample the worker's idle-poll period
    at n evenly spread phases instead of n random ones."""
    u = random.Random(seed).random()
    while True:
        yield THINK_BASE_S + u * period_s
        u = (u + GOLDEN_RATIO) % 1.0


@dataclass
class Context:
    process: subprocess.Popen
    client: ServiceClient
    storage_dir: str
    ready_s: float


def setup(workload: str, seed: int) -> Context:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    storage_dir = str(OUT_DIR / f"service-{os.getpid()}")
    shutil.rmtree(storage_dir, ignore_errors=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")] + ([env["PYTHONPATH"]]
                                    if env.get("PYTHONPATH") else []))
    started = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.cli", "serve", "--workers", "1",
         "--storage", storage_dir, "--port", "0"],
        stdout=subprocess.PIPE, env=env, text=True, cwd=str(REPO_ROOT))
    banner = process.stdout.readline()
    match = re.search(r"http://[^:]+:(\d+)", banner)
    if match is None:
        process.kill()
        process.wait()
        raise RuntimeError(f"pels serve did not start: {banner!r}")
    client = ServiceClient(port=int(match.group(1)))
    deadline = time.perf_counter() + READY_TIMEOUT_S
    while True:
        workers = client.health()["workers"]
        if workers and all(w["alive"] for w in workers.values()):
            break
        if time.perf_counter() > deadline:
            raise RuntimeError("pels serve: no live worker")
        time.sleep(0.01)
    return Context(process, client, storage_dir,
                   time.perf_counter() - started)


def teardown(ctx: Context) -> None:
    process = ctx.process
    if process.poll() is None:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    process.stdout.close()
    shutil.rmtree(ctx.storage_dir, ignore_errors=True)


def tree_cpu_seconds(pid: int) -> float:
    """CPU of ``pid`` and its live children, reaped grandchildren
    included: the service, its workers and every finished job child."""
    return proc_cpu_seconds(pid) + sum(proc_cpu_seconds(child)
                                       for child in proc_children(pid))


def tree_peak_rss_mb(pid: int) -> float:
    return max([proc_peak_rss_mb(pid)]
               + [proc_peak_rss_mb(child) for child in proc_children(pid)])


def reference_artifact() -> bytes:
    """Canonical bytes of a direct run of the payload."""
    result = run_all(fast=True, only=JOB_KEY)[0]
    return canonical_artifact_bytes(result_to_dict(result))


@dataclass
class JobTrace:
    """Client and server timestamps of one trickle job (epoch s)."""

    job_id: str
    due: float
    submitted: float
    first_byte: float = 0.0
    started: float = 0.0
    finished: float = 0.0
    artifact: float = 0.0
    ok: bool = False

    def latency_ref_ms(self, speed: HostSpeed) -> float:
        """Due time -> artifact fetched, in reference-host time.  The
        wait for the worker's idle poll is a timer and counts as
        measured; the rest (submit, fork, run, flush, fetch) is compute
        and is scaled by the calibrations taken while the job ran."""
        wait = max(0.0, self.started - self.submitted)
        compute = self.artifact - self.due - wait
        return (wait + compute * speed.scale_between(
            self.started, self.finished)) * 1e3


def trickle(ctx: Context, seed: int, span_s: float, reference: bytes,
            speed: HostSpeed) -> Tuple[List[JobTrace], Lateness]:
    """One client submitting jobs for ``span_s`` seconds, each a
    think time after the previous one finished; returns the traces and
    how late the submissions ran.

    While a job is outstanding the client calibrates into ``speed``
    between looks at its record: the job runs on one core, this
    process samples the host's speed on the other at the same moment,
    which is what scales the job's compute time."""
    client = ctx.client
    lateness = Lateness()
    traces: List[JobTrace] = []
    thinks = think_times(seed, ServiceConfig(storage_dir="").worker_poll)
    deadline = time.time() + span_s
    due = time.time() + 0.05
    while due < deadline:
        wait = due - time.time()
        if wait > 0:
            time.sleep(wait)
        lateness.note(due, time.time())
        job = client.submit([{"key": JOB_KEY, "fast": True}])[0]
        trace = JobTrace(job["job_id"], due, time.time())
        next(client.stream(trace.job_id, poll=STREAM_POLL_S), None)
        trace.first_byte = time.time()
        while True:
            record = client.job(trace.job_id)
            if record["state"] in ("done", "failed", "cancelled"):
                break
            speed.sample(WATCH_CALS_PER_POLL)
        artifact = client.artifact(trace.job_id)
        trace.artifact = time.time()
        trace.started = record["started_at"] or 0.0
        trace.finished = record["finished_at"] or 0.0
        trace.ok = record["state"] == "done" and \
            canonical_artifact_bytes(artifact) == reference
        traces.append(trace)
        due = max(trace.finished, trace.artifact - 0.005) + next(thinks)
    return traces, lateness


@dataclass
class Backlog:
    jobs: int
    wall_s: float
    cpu_s: float
    #: Reference-host seconds per measured second over the phase.
    scale: float
    failed: int
    exec_ms: List[float] = field(default_factory=list)

    @property
    def jobs_per_ref_s(self) -> float:
        return self.jobs / (self.wall_s * self.scale)

    @property
    def cpu_us_per_job(self) -> float:
        return self.cpu_s * self.scale / self.jobs * 1e6


def backlog(ctx: Context, count: int, reference: bytes) -> Backlog:
    client = ctx.client
    pid = ctx.process.pid
    # The claim -> fork -> run -> flush chain is sequential, so the
    # service keeps one core busy; this process calibrates on the other
    # one for the whole phase (a dense, unbiased sample of the host's
    # speed) and looks at the last job between batches of calibrations.
    speed = HostSpeed()
    cpu_before = tree_cpu_seconds(pid)
    started = time.perf_counter()
    jobs = client.submit([{"key": JOB_KEY, "fast": True}] * count)
    last = jobs[-1]["job_id"]
    while client.job(last)["state"] not in ("done", "failed", "cancelled"):
        speed.sample(BACKLOG_CALS_PER_POLL)
    wall = time.perf_counter() - started
    cpu = tree_cpu_seconds(pid) - cpu_before
    failed = 0
    exec_ms = []
    records = {record["job_id"]: record for record in client.jobs()}
    for job in jobs:
        record = records[job["job_id"]]
        if record["state"] != "done" or canonical_artifact_bytes(
                client.artifact(job["job_id"])) != reference:
            failed += 1
            continue
        exec_ms.append((record["finished_at"] - record["started_at"]) * 1e3)
    return Backlog(count, wall, cpu, speed.scale, failed, exec_ms)


def p50(values: List[float]) -> float:
    return percentile(values, 0.5) if values else 0.0


def timed_calls(fn, repeats: int = 20) -> float:
    """Median milliseconds of ``fn()`` against the idle service."""
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - started) * 1e3)
    return p50(samples)


def queue_cycle_cpu_us(root: str) -> List[float]:
    """CPU microseconds (reference-host) one job costs the queue state
    machine — ``submit`` + ``claim_next`` + ``complete`` on a
    ``FileStorage`` holding ``STORE_JOBS`` queued jobs — one sample per
    slice of ``CYCLES_PER_SLICE`` jobs, calibrated on both sides.

    The in-process form of what the backlog pays per job for the
    stored-job working set (the O(N) scan in ``JobQueue.jobs()`` /
    ``claim_next``), without fork, HTTP or a second process.
    """
    shutil.rmtree(root, ignore_errors=True)
    try:
        jobs = JobQueue(FileStorage(root))
        params = {"key": JOB_KEY, "fast": True}
        artifact = {"experiment_id": JOB_KEY, "metrics": {"x": 1.0}}
        for _ in range(STORE_JOBS):
            jobs.submit(params=params)

        def cycle() -> None:
            for _ in range(CYCLES_PER_SLICE):
                jobs.submit(params=params)
                jobs.complete(jobs.claim_next("ledger"), artifact)

        return [measure([cycle]).cpu_ref_s / CYCLES_PER_SLICE * 1e6
                for _ in range(QUEUE_SLICES)]
    finally:
        shutil.rmtree(root, ignore_errors=True)


def run(ctx: Context, seconds: float, seed: int, traced: bool) -> Outcome:
    outcome = Outcome()
    client = ctx.client
    reference = reference_artifact()

    # Untraced: the trickle takes the whole run (the median latency of
    # n jobs wanders by ~100 ms / sqrt(n)).  Traced: a shorter trickle,
    # then the backlog.
    speed = HostSpeed()
    traces, lateness = trickle(
        ctx, seed, seconds * (0.5 if traced else TRICKLE_SHARE),
        reference, speed)
    failed = sum(not t.ok for t in traces)
    outcome.attempted = len(traces)
    latency_ms = [(t.artifact - t.due) * 1e3 for t in traces]
    tail_label, tail_value = tail_percentile(latency_ms)
    outcome.notes.append(
        f"trickle: {len(traces)} {JOB_KEY} jobs, one client (closed "
        f"loop, stratified think time), latency {tail_label} = "
        f"{tail_value:.1f} ms, submissions late by at most "
        f"{lateness.max_s * 1e3:.2f} ms")

    outcome.raw = {"latency_ms_p50": p50(latency_ms),
                   "trickle_scale": speed.scale,
                   "exec_ms_p50": p50([(t.finished - t.started) * 1e3
                                       for t in traces])}
    if not traced:
        span_s = max(t.artifact for t in traces) - min(t.due for t in traces)
        outcome.samples = {
            "work_per_s": [sum(t.ok for t in traces) / span_s],
            "latency_ms_p50": [p50([t.latency_ref_ms(speed)
                                    for t in traces])],
            "peak_rss_mb": [tree_peak_rss_mb(ctx.process.pid)],
        }
        outcome.failed = failed
        if failed:
            outcome.notes.append(
                f"GATE FAILED: {failed} trickle jobs not done or artifact "
                f"differs from the direct run")
        return outcome

    load = backlog(ctx, max(1, round(BACKLOG_PER_SECOND * seconds)),
                   reference)
    outcome.attempted += load.jobs
    outcome.failed = failed + load.failed
    if outcome.failed:
        outcome.notes.append(
            f"GATE FAILED: {failed} trickle and {load.failed} backlog jobs "
            f"not done or artifact differs from the direct run")
    outcome.notes.append(
        f"backlog: {load.jobs} {JOB_KEY} jobs in {load.wall_s:.2f} s "
        f"raw, tree CPU {load.cpu_s:.2f} s")
    outcome.raw.update(backlog_wall_s=load.wall_s, backlog_cpu_s=load.cpu_s,
                       backlog_scale=load.scale)

    recorder = SpanRecorder()
    stage_names = ("ledger.svc.submit", "service.worker.queue_wait",
                   "service.worker.exec", "ledger.svc.fetch")
    for trace in traces:
        recorder.trace_id = trace.job_id
        root = recorder.add("ledger.svc.job", trace.due, trace.artifact)
        edges = (trace.due, trace.submitted, trace.started, trace.finished,
                 trace.artifact)
        for name, start, end in zip(stage_names, edges, edges[1:]):
            recorder.add(name, start, end, parent=root)
        recorder.add("service.stream.first_byte", trace.due,
                     trace.first_byte, parent=root)
    total = recorder.total("ledger.svc.job")
    some_job = traces[0].job_id
    outcome.layers = {
        "service.worker.queue_wait_ms_p50":
            p50([(t.started - t.submitted) * 1e3 for t in traces]),
        "service.worker.exec_ms_p50":
            p50([(t.finished - t.started) * 1e3 for t in traces]),
        "service.worker.exec_ms_p50_backlog": p50(load.exec_ms),
        "service.stream.first_byte_ms_p50":
            p50([(t.first_byte - t.due) * 1e3 for t in traces]),
        "service.api.submit_share":
            recorder.total("ledger.svc.submit") / total,
        "service.worker.queue_wait_share":
            recorder.total("service.worker.queue_wait") / total,
        "service.worker.exec_share":
            recorder.total("service.worker.exec") / total,
        "service.api.fetch_share":
            recorder.total("ledger.svc.fetch") / total,
        "service.api.healthz_ms": timed_calls(client.health),
        "service.api.submit_ms":
            p50([(t.submitted - t.due) * 1e3 for t in traces]),
        "service.api.get_job_ms":
            timed_calls(lambda: client.job(some_job)),
        "service.api.stream_poll_ms":
            timed_calls(lambda: list(client.stream(some_job))),
        "service.queue.backlog_jobs_per_s": load.jobs_per_ref_s,
        "service.queue.backlog_cpu_us_per_job": load.cpu_us_per_job,
        "service.queue.cycle_cpu_us_at_150": p50(
            queue_cycle_cpu_us(ctx.storage_dir + "-queue")),
        "service.api.ready_ms": ctx.ready_s * 1e3,
        "ledger.svc_gen_late_ms_max": lateness.max_s * 1e3,
        "ledger.accounted_share": sum(
            recorder.total(name) for name in stage_names) / total,
        # Spans are rebuilt from timestamps after the run: the traced
        # and the untraced run execute the same code.
        "ledger.trace_overhead_share": 0.0,
    }
    outcome.recorder = recorder
    return outcome
