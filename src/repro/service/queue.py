"""Persistent job queue: the service's state machine of record.

A :class:`Job` moves ``queued -> running -> done | failed | cancelled``.
Every transition is persisted through the storage backend before it is
acted on, so a service restart reconstructs the queue exactly: done
jobs keep their artifacts, queued jobs wait, and running jobs whose
worker disappeared are requeued (see :meth:`JobQueue.requeue_stale`).

Ownership is decided by the storage claim primitive (O_EXCL file
creation on the filesystem backend), not by the record itself: N
worker processes scanning the same directory race, exactly one wins,
and the loser moves on to the next candidate.  The record's ``worker``
field is bookkeeping written *after* the claim succeeds.

Failure budgets are split in two, mirroring the runner's philosophy:

* ``attempts``/``max_retries`` — the job itself misbehaved (its child
  process crashed or timed out).  Burnt by :meth:`fail`, retried with
  the shared exponential backoff until the budget is gone.
* ``requeues``/``MAX_REQUEUES`` — the *worker* died under the job
  (SIGKILL, OOM, host loss).  Not the job's fault, so it does not
  burn a retry; the separate cap keeps a job that reliably kills its
  workers from cycling forever.
"""

from __future__ import annotations

import os
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

from ..core.retry import backoff_delay
from .storage import TERMINAL_STATES, StorageBackend

__all__ = ["JOB_STATES", "TERMINAL_STATES", "MAX_REQUEUES", "Job",
           "JobQueue"]

JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: Worker-death requeues tolerated before the job is declared failed.
MAX_REQUEUES = 3

_COUNTER = iter(range(1, 1 << 62))


def _new_job_id(now: float) -> str:
    """Unique, sortable-by-submission id (time + counter + entropy).

    The per-process counter sits before the random suffix so ids
    minted in the same millisecond still sort in submission order —
    the queue's FIFO tie-break relies on it.
    """
    return (f"j{int(now * 1000):013d}"
            f"-{next(_COUNTER):06d}-{os.urandom(3).hex()}")


@dataclass
class Job:
    """One unit of work: run a registry experiment, keep its artifact."""

    job_id: str
    kind: str = "experiment"
    #: Experiment parameters: ``key`` (registry id), ``fast`` flag.
    params: Dict = field(default_factory=dict)
    state: str = "queued"
    #: Larger runs first; ties break on submission order (job_id).
    priority: int = 0
    #: Wall-clock budget for one execution attempt (None = unlimited).
    timeout: Optional[float] = None
    #: Child-crash/timeout retries left to burn (see module docstring).
    max_retries: int = 1
    retry_backoff: float = 0.5
    attempts: int = 0
    requeues: int = 0
    worker: Optional[str] = None
    error: Optional[str] = None
    cancel_requested: bool = False
    #: Earliest wall-clock time a retry may be claimed (exponential
    #: backoff between execution attempts, shared policy from
    #: :mod:`repro.core.retry`).
    not_before: float = 0.0
    submitted_at: float = 0.0
    started_at: Optional[float] = None
    finished_at: Optional[float] = None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "Job":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        return cls(**{k: v for k, v in payload.items() if k in known})

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES


class JobQueue:
    """Queue operations over a storage backend; safe across processes.

    Several queue instances (the API process, every worker process)
    operate on the same backend concurrently.  The claim primitive
    serializes ownership; record saves are atomic; scans tolerate
    records appearing, finishing and vanishing mid-iteration.

    ``now`` is the job service's one clock.  It reads epoch seconds,
    not an interval clock: records, heartbeats and ``not_before`` are
    compared across processes and across restarts.
    """

    def __init__(self, storage: StorageBackend,
                 now: Callable[[], float] = time.time) -> None:
        self.storage = storage
        self.now = now

    # -- submission & lookup ----------------------------------------------

    def submit(self, kind: str = "experiment", params: Optional[dict] = None,
               priority: int = 0, timeout: Optional[float] = None,
               max_retries: int = 1, retry_backoff: float = 0.5) -> Job:
        now = self.now()
        job = Job(job_id=_new_job_id(now), kind=kind,
                  params=dict(params or {}), priority=priority,
                  timeout=timeout, max_retries=max_retries,
                  retry_backoff=retry_backoff, submitted_at=now)
        self._save(job)
        self._log(job, "queued")
        return job

    def get(self, job_id: str) -> Optional[Job]:
        payload = self.storage.load_job(job_id)
        return Job.from_dict(payload) if payload else None

    def jobs(self, state: Optional[str] = None) -> List[Job]:
        out = []
        for job_id in self.storage.list_job_ids():
            job = self.get(job_id)
            if job is not None and (state is None or job.state == state):
                out.append(job)
        return out

    def counts(self) -> Dict[str, int]:
        counts = {state: 0 for state in JOB_STATES}
        for job in self.jobs():
            counts[job.state] = counts.get(job.state, 0) + 1
        return counts

    def _open_jobs(self) -> Iterator[Job]:
        """The non-terminal jobs in claim order, loaded one at a time.

        Read off the storage's open-job index, which may run ahead of
        the records.  An entry whose record is terminal was left by a
        writer that died between saving it and dropping the entry;
        terminal is absorbing, so it is dropped here.  An entry with
        no record is a submit in flight (or one that died there) and
        is left alone: only :meth:`recover`, which runs alone, can
        tell the two apart.
        """
        for job_id in self.storage.open_job_ids():
            job = self.get(job_id)
            if job is None:
                continue
            if job.terminal:
                self.storage.drop_open_job(job_id)
                continue
            yield job

    # -- worker side -------------------------------------------------------

    def claim_next(self, worker_id: str) -> Optional[Job]:
        """Claim the best queued job, or None if the queue is drained.

        Candidates come off the open-job index in its order (priority
        desc, job id asc) and only as far as the first one claimed;
        the O_EXCL claim decides races.  The stream is reset on claim
        so subscribers see exactly one attempt's worth of events.
        """
        now = self.now()
        for job in self._open_jobs():
            if job.state != "queued" or job.not_before > now:
                continue
            if not self.storage.try_claim(job.job_id, worker_id):
                continue
            # Re-read under the claim: the record may have moved on
            # (cancelled, or requeued-and-finished) while we scanned.
            current = self.get(job.job_id)
            if current is None or current.state != "queued":
                self.storage.release_claim(job.job_id)
                continue
            current.state = "running"
            current.worker = worker_id
            current.attempts += 1
            current.started_at = self.now()
            self._save(current)
            self.storage.reset_stream(current.job_id)
            self._log(current, "running",
                      worker=worker_id, attempt=current.attempts)
            return current
        return None

    def complete(self, job: Job, artifact: dict,
                 failed_result: bool = False) -> Job:
        """Store the artifact, then mark the job terminal.

        Artifact-before-state ordering is what makes restart recovery
        lossless: a ``done`` record always has its artifact on disk.
        ``failed_result`` marks a structured FAILED artifact from the
        runner — deterministic experiment failures are terminal (a
        retry would reproduce them), unlike infrastructure failures
        which go through :meth:`fail`.
        """
        self.storage.save_artifact(job.job_id, artifact)
        if failed_result:
            job.error = "experiment reported a structured failure"
        return self._finish(job, "failed" if failed_result else "done",
                            artifact=True)

    def fail(self, job: Job, error: str) -> Job:
        """Burn a retry on an execution failure; requeue or go terminal."""
        job.error = error
        if job.attempts > job.max_retries or job.cancel_requested:
            return self._finish(job, "failed", error=error)
        job.state = "queued"
        job.worker = None
        job.not_before = self.now() + backoff_delay(
            job.attempts - 1, job.retry_backoff)
        self._save(job)
        self.storage.release_claim(job.job_id)
        self._log(job, "queued", retry=True, error=error)
        return job

    # -- control plane -----------------------------------------------------

    def cancel(self, job_id: str) -> Optional[Job]:
        """Cancel a job: immediate when queued, cooperative when running.

        A running job's worker polls ``cancel_requested`` between
        heartbeats and kills the execution child; the worker then
        finalizes the record through :meth:`finish_cancel`.
        """
        job = self.get(job_id)
        if job is None or job.terminal:
            return job
        job.cancel_requested = True
        if job.state == "queued":
            # Take the claim so no worker starts it under our feet; if
            # a worker wins the race the flag makes it stop early.
            if self.storage.try_claim(job_id, "cancel"):
                current = self.get(job_id)
                if current is not None and current.state == "queued":
                    current.cancel_requested = True
                    return self._finish(current, "cancelled")
                self.storage.release_claim(job_id)
        self._save(job)
        return job

    def finish_cancel(self, job: Job) -> Job:
        return self._finish(job, "cancelled")

    def requeue_stale(self, heartbeat_timeout: float) -> List[Job]:
        """Requeue running jobs whose worker stopped heartbeating.

        A worker killed mid-job leaves a ``running`` record and a
        silent heartbeat file; once the silence exceeds the timeout
        the job goes back to ``queued`` (worker-death budget, not the
        retry budget) for any live worker to pick up.
        """
        now = self.now()
        requeued = []
        for job in self._open_jobs():
            if job.state != "running":
                continue
            # Read after the record: a worker beats before it claims, so
            # the claim this record shows has its beat in this read.
            beat = self.storage.heartbeats().get(job.worker or "")
            if beat is None or \
                    not now - beat.get("at", 0.0) <= heartbeat_timeout:
                requeued.append(self._requeue(job, cause="stale-heartbeat"))
        return requeued

    def recover(self) -> List[Job]:
        """Requeue every running job; for service (re)start only.

        On a cold start nothing can legitimately be running, so any
        ``running`` record is an interrupted attempt from the previous
        incarnation.  Requeueing (rather than failing) them is what
        makes kill-the-service-and-restart lossless.

        This is also where the open-job index is made exact, from the
        one full scan the queue ever does: open records get the entry
        they lack (a directory written before the index existed has
        none), entries of terminal or missing records go.
        """
        stale = set(self.storage.open_job_ids())
        recovered = []
        for job in self.jobs():
            if job.terminal:
                continue
            if job.state == "running":
                recovered.append(self._requeue(job, cause="service-restart"))
            else:
                # A canceller that died mid-cancel still holds it.
                self.storage.release_claim(job.job_id)
                if job.job_id not in stale:
                    self._save(job)
            stale.discard(job.job_id)
        for job_id in stale:
            self.storage.drop_open_job(job_id)
        return recovered

    def _requeue(self, job: Job, cause: str) -> Job:
        job.requeues += 1
        if job.cancel_requested:
            return self.finish_cancel(job)
        if job.requeues > MAX_REQUEUES:
            job.error = f"exceeded {MAX_REQUEUES} worker-death requeues"
            return self._finish(job, "failed", cause=cause)
        job.state = "queued"
        job.worker = None
        self._save(job)
        # Logged while the dead worker's claim still fences the job: a
        # claim resets the stream, so the next attempt's stream cannot
        # get this line after its own "running".
        self._log(job, "queued", cause=cause, requeues=job.requeues)
        self.storage.release_claim(job.job_id)
        return job

    # -- internals ---------------------------------------------------------

    def _finish(self, job: Job, state: str, **detail) -> Job:
        """Make ``job`` terminal: save it, drop its claim, log it."""
        job.state = state
        job.finished_at = self.now()
        self._save(job)
        self.storage.release_claim(job.job_id)
        self._log(job, state, **detail)
        return job

    def _save(self, job: Job) -> None:
        self.storage.save_job(job.job_id, job.to_dict())

    def _log(self, job: Job, state: str, **detail) -> None:
        """Append a lifecycle event to the job's stream."""
        import json
        record = {"type": "state", "state": state, "t": self.now()}
        record.update(detail)
        try:
            self.storage.append_stream(job.job_id,
                                       [json.dumps(record, sort_keys=True)])
        except OSError:  # pragma: no cover - stream loss is non-fatal
            pass
