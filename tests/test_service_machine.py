"""The job service as a state machine, on the queue's one clock.

``JobQueue(storage, now=clock)`` is the service's only time source and
``ExperimentService._route`` / ``_sweep`` are plain calls, so the whole
control plane runs here with no process, no socket, no event loop and
no sleep.  An un-started service (no workers) owns the API's queue view;
workers A and B share a second view of the same store, as a worker
process would.  Time moves only when a rule moves it.

The machine keeps its own expectation of every job (state, attempts,
requeues, worker, cancel flag) and checks each record against it after
every step, plus the invariants the service promises: no job lost,
terminal states absorbing, both budgets monotone and bounded, one
artifact write per job at most, and an open-job index never behind the
records.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from typing import Dict, List, Optional

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.core.retry import backoff_delay
from repro.service.api import ExperimentService, ServiceConfig
from repro.service.queue import (JOB_STATES, MAX_REQUEUES, TERMINAL_STATES,
                                 Job, JobQueue)
from repro.service.storage import FileStorage

#: Epoch seconds the clock starts at (any value works; ids embed it).
EPOCH = 1.7e9
HEARTBEAT_TIMEOUT = ServiceConfig("unused").heartbeat_timeout
#: Submissions use the API's default retry backoff.
RETRY_BACKOFF = 0.5
SLOTS = ("A", "B")
#: The store writes a sweep makes, where a racing claim may land.
WRITES = ("save_job", "append_stream", "release_claim")


class Clock:
    """A hand-advanced epoch clock."""

    def __init__(self, t: float = EPOCH) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t


def _service(root: str, clock: Clock) -> ExperimentService:
    service = ExperimentService(ServiceConfig(storage_dir=root, workers=0))
    service.queue = JobQueue(service.storage, now=clock)
    return service


def _call(service: ExperimentService, method: str, target: str,
          body: Optional[dict] = None, headers: Optional[dict] = None):
    raw = json.dumps(body).encode() if body is not None else b""
    return service._route(method, target, headers or {}, raw)


class TestRouting:
    """The router is a function of the request: no socket, no loop."""

    def test_routes_without_a_socket(self, tmp_path):
        clock = Clock()
        service = _service(str(tmp_path / "store"), clock)
        status, payload = _call(service, "POST", "/jobs", {
            "experiments": [{"key": "F2", "fast": True}, {"key": "t1"}]})
        assert status == 201
        first, second = [job["job_id"] for job in payload["jobs"]]
        assert first < second

        status, payload = _call(service, "GET", "/jobs?state=queued")
        assert status == 200
        assert [job["job_id"] for job in payload["jobs"]] == [first, second]
        assert _call(service, "GET", "/jobs?state=running") == \
            (200, {"jobs": []})

        status, payload = _call(service, "GET", f"/jobs/{second}")
        assert status == 200
        assert payload["params"] == {"key": "T1", "fast": False}
        assert payload["submitted_at"] == EPOCH

        status, payload = _call(service, "POST", f"/jobs/{first}/cancel")
        assert (status, payload["state"]) == (200, "cancelled")
        assert payload["finished_at"] == EPOCH

        assert _call(service, "GET", "/jobs/nope")[0] == 404
        assert _call(service, "DELETE", "/jobs")[0] == 405
        assert _call(service, "GET", "/jobs?state=lost")[0] == 400
        assert _call(service, "POST", "/jobs", {"key": "NOPE"})[0] == 400

    def test_stream_upgrade_is_decided_not_performed(self, tmp_path):
        service = _service(str(tmp_path / "store"), Clock())
        _, payload = _call(service, "POST", "/jobs", {"key": "F2"})
        job_id = payload["jobs"][0]["job_id"]
        upgrade = {"upgrade": "websocket",
                   "sec-websocket-key": "dGhlIHNhbXBsZSBub25jZQ=="}
        assert _call(service, "GET", f"/jobs/{job_id}/stream?offset=3",
                     headers=upgrade) == (101, {
                         "job_id": job_id, "offset": 3,
                         "accept": "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="})
        del upgrade["sec-websocket-key"]
        assert _call(service, "GET", f"/jobs/{job_id}/stream",
                     headers=upgrade)[0] == 400

    def test_health_reads_the_queue_clock(self, tmp_path):
        clock = Clock()
        service = _service(str(tmp_path / "store"), clock)
        service.started_at = service.queue.now()
        clock.t += 42.0
        status, payload = _call(service, "GET", "/healthz")
        assert status == 200 and payload["uptime"] == 42.0


class JobServiceMachine(RuleBasedStateMachine):

    def __init__(self) -> None:
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="pels-machine-")
        self.clock = Clock()
        self.service = _service(self.root, self.clock)
        self.storage = FileStorage(self.root)
        self.workers = JobQueue(self.storage, now=self.clock)
        self.artifact_writes: Dict[str, int] = {}
        save_artifact = self.storage.save_artifact

        def counting_save(job_id: str, payload: dict) -> None:
            self.artifact_writes[job_id] = \
                self.artifact_writes.get(job_id, 0) + 1
            save_artifact(job_id, payload)

        self.storage.save_artifact = counting_save
        #: Every submitted id, in submission order.
        self.ids: List[str] = []
        #: What each record should read: state, attempts, requeues,
        #: worker, cancel_requested, max_retries.
        self.model: Dict[str, dict] = {}
        #: Terminal states and the budgets as last seen.
        self.seen: Dict[str, tuple] = {}
        #: Each slot's current worker incarnation and the job it runs.
        self.incarnation = {slot: 1 for slot in SLOTS}
        self.held: Dict[str, Optional[Job]] = {slot: None for slot in SLOTS}
        #: Last heartbeat per worker id, as the store holds it.
        self.beats: Dict[str, float] = {}

    def teardown(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)

    # -- helpers -------------------------------------------------------------

    def worker_id(self, slot: str) -> str:
        return f"{slot}{self.incarnation[slot]}"

    def beat(self, slot: str) -> None:
        held = self.held[slot]
        self.storage.beat(self.worker_id(slot), {
            "at": self.workers.now(), "pid": 0,
            "job": held.job_id if held else None})
        self.beats[self.worker_id(slot)] = self.clock()

    def retire(self, slot: str) -> None:
        """The slot's worker is gone; the service spawns a fresh one."""
        self.incarnation[slot] += 1
        self.held[slot] = None

    def settle_requeued(self, job_ids: List[str]) -> None:
        """Expect what the queue does to jobs whose worker is gone."""
        for job_id in job_ids:
            expected = self.model[job_id]
            expected["requeues"] += 1
            if expected["cancel"]:
                expected["state"] = "cancelled"
            elif expected["requeues"] > MAX_REQUEUES:
                expected["state"] = "failed"
            else:
                expected.update(state="queued", worker=None)

    def take(self, slot: str) -> Optional[Job]:
        """The worker loop's turn: beat, then claim."""
        self.beat(slot)
        job = self.workers.claim_next(self.worker_id(slot))
        self.held[slot] = job
        return job

    def expect_claimed(self, slot: str, job: Job) -> None:
        expected = self.model[job.job_id]
        expected.update(state="running", worker=self.worker_id(slot))
        expected["attempts"] += 1

    def record(self, job_id: str) -> Job:
        job = self.service.queue.get(job_id)
        assert job is not None, f"job {job_id} lost"
        return job

    # -- rules ---------------------------------------------------------------

    @rule(n=st.integers(1, 3), retries=st.integers(0, 2))
    def submit(self, n: int, retries: int) -> None:
        status, payload = _call(self.service, "POST", "/jobs", {
            "experiments": [{"key": "F2", "fast": True, "retries": retries}]
            * n})
        assert status == 201
        for job in payload["jobs"]:
            assert job["state"] == "queued"
            self.ids.append(job["job_id"])
            self.model[job["job_id"]] = {
                "state": "queued", "attempts": 0, "requeues": 0,
                "worker": None, "cancel": False, "max_retries": retries}
        assert self.ids == sorted(self.ids), "ids sort by submission"

    @rule(slot=st.sampled_from(SLOTS))
    def claim(self, slot: str) -> None:
        if self.held[slot] is not None:
            return
        now = self.clock()
        claimable = [job_id for job_id in self.ids
                     if self.model[job_id]["state"] == "queued"
                     and self.record(job_id).not_before <= now]
        job = self.take(slot)
        if not claimable:
            assert job is None
            return
        assert job is not None and job.job_id == claimable[0]
        assert job.state == "running" and job.started_at == now
        self.expect_claimed(slot, job)

    @rule(slot=st.sampled_from(SLOTS))
    def heartbeat(self, slot: str) -> None:
        self.beat(slot)

    @rule(dt=st.sampled_from([0.1, RETRY_BACKOFF + 0.1,
                              HEARTBEAT_TIMEOUT + 0.1, 4 * RETRY_BACKOFF]))
    def advance(self, dt: float) -> None:
        self.clock.t += dt

    @rule(striker=st.sampled_from((None,) + SLOTS),
          writes=st.integers(1, 6))
    def sweep(self, striker: Optional[str], writes: int) -> None:
        """A sweep pass; an idle ``striker`` runs its claim right after
        the pass's ``writes``-th store write, as a worker process may."""
        now = self.clock()
        running = [job_id for job_id in self.ids
                   if self.model[job_id]["state"] == "running"]
        stale = [job_id for job_id in running
                 if not now - self.beats.get(self.model[job_id]["worker"],
                                             -1e18) <= HEARTBEAT_TIMEOUT]
        holders = dict(self.held)
        struck: List[Job] = []
        storage = self.service.storage
        if striker is not None and self.held[striker] is None:
            done = 0

            def counted(real):
                def write(*args):
                    nonlocal done
                    result = real(*args)
                    done += 1
                    if done == writes:
                        struck.extend(filter(None, [self.take(striker)]))
                    return result
                return write

            for name in WRITES:
                setattr(storage, name, counted(getattr(storage, name)))
        try:
            self.service._sweep()
        finally:
            for name in WRITES:
                storage.__dict__.pop(name, None)
        self.settle_requeued(stale)
        for slot, job in holders.items():
            if job is not None and job.job_id in stale:
                self.retire(slot)
        for job in struck:
            self.expect_claimed(striker, job)

    @precondition(lambda self: any(self.held.values()))
    @rule(slot=st.sampled_from(SLOTS), structured_failure=st.booleans())
    def complete(self, slot: str, structured_failure: bool) -> None:
        job = self.held[slot]
        if job is None:
            return
        self.workers.complete(job, {"experiment_id": "F2"},
                              failed_result=structured_failure)
        self.model[job.job_id]["state"] = \
            "failed" if structured_failure else "done"
        self.held[slot] = None

    @precondition(lambda self: any(self.held.values()))
    @rule(slot=st.sampled_from(SLOTS))
    def child_crash(self, slot: str) -> None:
        job = self.held[slot]
        # ``fail`` reads the worker's copy of the cancel flag, so a crash
        # after a cancel request would requeue the job and drop the
        # request; the worker is modelled noticing the cancel first.
        if job is None or self.model[job.job_id]["cancel"]:
            return
        expected = self.model[job.job_id]
        self.workers.fail(job, "execution child died without a result")
        if expected["attempts"] <= expected["max_retries"]:
            expected.update(state="queued", worker=None)
            assert self.record(job.job_id).not_before == \
                self.clock() + backoff_delay(expected["attempts"] - 1,
                                             RETRY_BACKOFF)
        else:
            expected["state"] = "failed"
        self.held[slot] = None

    @precondition(lambda self: self.ids)
    @rule(pick=st.integers(0, 1 << 16))
    def cancel(self, pick: int) -> None:
        job_id = self.ids[pick % len(self.ids)]
        expected = self.model[job_id]
        status, payload = _call(self.service, "POST",
                                f"/jobs/{job_id}/cancel")
        assert status == 200
        if expected["state"] == "queued":
            expected.update(state="cancelled", cancel=True)
        elif expected["state"] == "running":
            expected["cancel"] = True
        assert payload["state"] == expected["state"]

    @precondition(lambda self: any(self.held.values()))
    @rule(slot=st.sampled_from(SLOTS))
    def notice_cancel(self, slot: str) -> None:
        job = self.held[slot]
        if job is None or not self.record(job.job_id).cancel_requested:
            return
        self.workers.finish_cancel(job)
        self.model[job.job_id]["state"] = "cancelled"
        self.held[slot] = None

    @rule(slot=st.sampled_from(SLOTS))
    def stop_beating(self, slot: str) -> None:
        """The worker dies; its job stays ``running`` until a sweep."""
        self.retire(slot)

    @rule()
    def recover(self) -> None:
        """Restart: nothing runs at a cold start, then ``recover()``."""
        for slot in SLOTS:
            self.retire(slot)
        running = [job_id for job_id in self.ids
                   if self.model[job_id]["state"] == "running"]
        moved = self.service.queue.recover()
        assert sorted(job.job_id for job in moved) == running
        self.settle_requeued(running)

    # -- invariants ----------------------------------------------------------

    @invariant()
    def records_match_the_model(self) -> None:
        for job_id in self.ids:
            job, expected = self.record(job_id), self.model[job_id]
            assert job.state in JOB_STATES
            assert (job.state, job.attempts, job.requeues) == (
                expected["state"], expected["attempts"],
                expected["requeues"]), job_id
            if not job.terminal:
                assert job.worker == expected["worker"]
                assert job.cancel_requested == expected["cancel"]

    @invariant()
    def terminal_absorbing_budgets_monotone(self) -> None:
        for job_id in self.ids:
            job = self.record(job_id)
            before = self.seen.get(job_id)
            if before is not None:
                state, attempts, requeues = before
                assert state not in TERMINAL_STATES or job.state == state
                assert job.attempts >= attempts
                assert job.requeues >= requeues
            # Every claim counts an attempt, a worker death's included.
            assert job.attempts <= job.max_retries + 1 + job.requeues
            assert job.requeues <= MAX_REQUEUES + (1 if job.terminal else 0)
            self.seen[job_id] = (job.state, job.attempts, job.requeues)

    @invariant()
    def artifacts_written_at_most_once(self) -> None:
        assert all(n == 1 for n in self.artifact_writes.values())
        for job_id in self.ids:
            if self.model[job_id]["state"] == "done":
                assert self.storage.load_artifact(job_id) is not None

    @invariant()
    def a_running_stream_holds_one_attempt(self) -> None:
        """A claim resets the stream, so a running job's state lines
        are its own ``running`` alone."""
        for job_id in self.ids:
            if self.model[job_id]["state"] == "running":
                lines, _ = self.storage.read_stream(job_id)
                states = [json.loads(line).get("state") for line in lines]
                assert states == ["running"], (job_id, states)

    @invariant()
    def open_index_never_behind(self) -> None:
        listed = set(self.storage.open_job_ids())
        for job_id in self.ids:
            if not self.record(job_id).terminal:
                assert job_id in listed, job_id


TestJobServiceMachine = JobServiceMachine.TestCase
TestJobServiceMachine.settings = settings(
    deadline=None, stateful_step_count=30,
    suppress_health_check=[HealthCheck.too_slow])


@pytest.mark.parametrize("writes", [1, 2, 3])
@pytest.mark.parametrize("jobs", [1, 2])
def test_a_claim_racing_the_sweep(jobs, writes):
    """Two interleavings the machine found, pinned.  Worker A's job goes
    stale; B claims right after the sweep's ``writes``-th store write.

    With one job: the requeue's ``queued`` line must not land after B's
    ``running`` (SV1 once read ``['queued', 'running', 'done']``), so
    it is logged while A's claim still fences the job.  With two: B's
    claim of the second job, newer than the sweep's first heartbeat
    read, must not be taken for a dead worker's.
    """
    machine = JobServiceMachine()
    checks = [machine.records_match_the_model,
              machine.terminal_absorbing_budgets_monotone,
              machine.artifacts_written_at_most_once,
              machine.a_running_stream_holds_one_attempt,
              machine.open_index_never_behind]
    try:
        machine.submit(n=jobs, retries=0)
        machine.claim(slot="A")
        machine.advance(dt=HEARTBEAT_TIMEOUT + 0.1)
        machine.sweep(striker="B", writes=writes)
        assert machine.held["B"] is not None or writes < 3
        for check in checks:
            check()
    finally:
        machine.teardown()
