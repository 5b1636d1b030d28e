"""The open-job index: ``claim_next`` chooses from it, the claim decides.

``FileStorage`` keeps one ``open/<priority>~<job_id>`` entry per
non-terminal job — linked before the record on the first save, removed
after the terminal record is saved — and ``claim_next``,
``requeue_stale`` and ``recover`` read the queue off it.  Four fences:

* a differential against :class:`FullScanQueue` — the three methods as
  they were when every call re-read every stored record — over
  generated operation sequences;
* a fault matrix: die after each filesystem step of ``submit`` and of
  every terminal transition, then show the survivors converge;
* a storage directory written before the index existed;
* eight processes racing for the jobs of one store.
"""

from __future__ import annotations

import multiprocessing
import os
import pathlib
import shutil
import tempfile
import time
from typing import List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import runner
from repro.experiments.common import ExperimentResult
from repro.experiments.service_exp import _Fleet
from repro.service import storage as storage_module
from repro.service.api import ServiceConfig
from repro.service.client import ServiceClient
from repro.service.queue import MAX_REQUEUES, TERMINAL_STATES, Job, JobQueue
from repro.service.storage import FileStorage


class FullScanQueue(JobQueue):
    """The reference: ``claim_next`` / ``requeue_stale`` / ``recover``
    exactly as they were before the index, each a scan of every record
    in the store through ``jobs()``."""

    def claim_next(self, worker_id: str) -> Optional[Job]:
        now = time.time()
        candidates = sorted(
            (j for j in self.jobs("queued") if j.not_before <= now),
            key=lambda j: (-j.priority, j.job_id))
        for job in candidates:
            if not self.storage.try_claim(job.job_id, worker_id):
                continue
            current = self.get(job.job_id)
            if current is None or current.state != "queued":
                self.storage.release_claim(job.job_id)
                continue
            current.state = "running"
            current.worker = worker_id
            current.attempts += 1
            current.started_at = time.time()
            self._save(current)
            self.storage.reset_stream(current.job_id)
            self._log(current, "running",
                      worker=worker_id, attempt=current.attempts)
            return current
        return None

    def requeue_stale(self, heartbeat_timeout: float,
                      now: Optional[float] = None) -> List[Job]:
        now = time.time() if now is None else now
        beats = self.storage.heartbeats()
        requeued = []
        for job in self.jobs("running"):
            beat = beats.get(job.worker or "")
            alive = beat is not None and now - beat.get("at", 0.0) \
                <= heartbeat_timeout
            if alive:
                continue
            requeued.append(self._requeue(job, cause="stale-heartbeat"))
        return requeued

    def recover(self) -> List[Job]:
        return [self._requeue(job, cause="service-restart")
                for job in self.jobs("running")]


def open_records(storage: FileStorage) -> List[str]:
    """Ids of the non-terminal records, by the full scan."""
    return [job_id for job_id in storage.list_job_ids()
            if (storage.load_job(job_id) or {}).get("state")
            not in TERMINAL_STATES]


# -- differential -------------------------------------------------------------

WORKERS = ("w1", "w2", "w3")
#: Never matures within a test / matures at once.
BACKOFFS = (3600.0, 0.0)

operations = st.one_of(
    st.tuples(st.just("submit"), st.integers(-2, 2), st.integers(0, 2),
              st.sampled_from(BACKOFFS)),
    st.tuples(st.just("submit"), st.integers(-2, 2), st.integers(0, 2),
              st.sampled_from(BACKOFFS)),
    st.tuples(st.just("claim"), st.sampled_from(WORKERS)),
    st.tuples(st.just("claim"), st.sampled_from(WORKERS)),
    st.tuples(st.just("complete"), st.integers(0, 7), st.booleans()),
    st.tuples(st.just("fail"), st.integers(0, 7)),
    st.tuples(st.just("cancel"), st.integers(0, 15)),
    st.tuples(st.just("finish_cancel"), st.integers(0, 7)),
    st.tuples(st.just("beat"), st.sampled_from(WORKERS)),
    st.tuples(st.just("requeue_stale")),
    st.tuples(st.just("recover")),
)


class Side:
    """One queue implementation on its own store.  Job ids differ
    between the two sides (they embed the clock), so jobs are spoken of
    by submission ordinal."""

    def __init__(self, root: str, queue_class) -> None:
        self.storage = FileStorage(root)
        self.queue_class = queue_class
        self.queue = queue_class(self.storage)
        self.ids: List[str] = []
        #: Ordinals each worker holds, as the claims were handed out.
        self.held: List[Job] = []

    def ordinal(self, job: Optional[Job]) -> Optional[int]:
        return None if job is None else self.ids.index(job.job_id)

    def snapshot(self) -> list:
        return [(job.state, job.priority, job.attempts, job.requeues,
                 job.worker, job.cancel_requested, job.error)
                for job in map(self.queue.get, self.ids)]

    def apply(self, op: tuple):
        """Run ``op``; what it returned, in ordinals."""
        queue, name = self.queue, op[0]
        if name == "submit":
            job = queue.submit(params={"key": "X"}, priority=op[1],
                               max_retries=op[2], retry_backoff=op[3])
            self.ids.append(job.job_id)
            return None
        if name == "claim":
            job = queue.claim_next(op[1])
            if job is not None:
                self.held.append(job)
            return self.ordinal(job)
        if name in ("complete", "fail", "finish_cancel"):
            if not self.held:
                return None
            job = self.held.pop(op[1] % len(self.held))
            # A holder learns of a cancel request by re-reading.
            job.cancel_requested = queue.get(job.job_id).cancel_requested
            if name == "complete":
                queue.complete(job, {"experiment_id": "X"},
                               failed_result=op[2])
            elif name == "fail":
                queue.fail(job, "child died")
            else:
                queue.finish_cancel(job)
            return self.ordinal(job)
        if name == "cancel":
            if not self.ids:
                return None
            job_id = self.ids[op[1] % len(self.ids)]
            before = queue.get(job_id).state
            queue.cancel(job_id)
            if before == "queued":  # settled on the spot: nobody holds it
                self.held = [j for j in self.held if j.job_id != job_id]
            return None
        if name == "beat":
            self.storage.beat(op[1], {"at": time.time()})
            return None
        if name == "requeue_stale":
            moved = queue.requeue_stale(3600.0)
        else:
            self.queue = queue = self.queue_class(
                FileStorage(self.storage.root))
            moved = queue.recover()
        gone = {job.job_id for job in moved}
        self.held = [j for j in self.held if j.job_id not in gone]
        return sorted(self.ordinal(job) for job in moved)


@settings(deadline=None, max_examples=60)
@given(st.lists(operations, min_size=1, max_size=40))
def test_indexed_queue_matches_the_full_scan(ops):
    root = tempfile.mkdtemp(prefix="pels-index-")
    try:
        indexed = Side(os.path.join(root, "indexed"), JobQueue)
        reference = Side(os.path.join(root, "reference"), FullScanQueue)
        settled = {}
        for op in ops:
            assert indexed.apply(op) == reference.apply(op), op
            snapshot = indexed.snapshot()
            assert snapshot == reference.snapshot(), op
            # Never an open job the index does not list.
            listed = indexed.storage.open_job_ids()
            assert set(open_records(indexed.storage)) <= set(listed), op
            assert len(listed) == len(set(listed))
            # Terminal is absorbing.
            for ordinal, record in enumerate(snapshot):
                if record[0] in TERMINAL_STATES:
                    assert settled.setdefault(ordinal, record) == record, op
        # A cold start leaves the index exact.
        indexed.apply(("recover",))
        assert sorted(indexed.storage.open_job_ids()) == \
            open_records(indexed.storage)
    finally:
        shutil.rmtree(root, ignore_errors=True)


class TestIndexOrder:
    def test_listing_is_the_claim_order(self, tmp_path):
        queue = JobQueue(FileStorage(tmp_path))
        jobs = [queue.submit(params={"key": "X"}, priority=priority)
                for priority in (0, -1, 10, 0, 2, -10, 10)]
        expected = sorted(jobs, key=lambda j: (-j.priority, j.job_id))
        assert queue.storage.open_job_ids() == [j.job_id for j in expected]
        assert [queue.claim_next("w").job_id for _ in jobs] == \
            [j.job_id for j in expected]

    def test_only_the_claimed_record_is_loaded(self, tmp_path, monkeypatch):
        storage = FileStorage(tmp_path)
        queue = JobQueue(storage)
        for _ in range(50):  # history: terminal, off the index
            queue.submit(params={"key": "X"})
            queue.complete(queue.claim_next("w"), {"experiment_id": "X"})
        waiting = [queue.submit(params={"key": "X"}) for _ in range(50)]
        loaded = []
        real = FileStorage.load_job
        monkeypatch.setattr(
            FileStorage, "load_job",
            lambda self, job_id: loaded.append(job_id) or real(self, job_id))
        assert queue.claim_next("w").job_id == waiting[0].job_id
        # Once to choose it, once again under the claim.
        assert loaded == [waiting[0].job_id] * 2

    def test_foreign_files_in_the_index_are_ignored(self, tmp_path):
        storage = FileStorage(tmp_path)
        (tmp_path / "open" / "README").write_text("not an entry")
        job = JobQueue(storage).submit(params={"key": "X"})
        assert storage.open_job_ids() == [job.job_id]

    def test_record_id_need_not_match_the_payload(self, tmp_path):
        # The perf ledger stores a copy of a record under another name.
        storage = FileStorage(tmp_path)
        payload = JobQueue(storage).submit(params={"key": "X"}).to_dict()
        storage.save_job("probe", payload)
        assert storage.load_job("probe") == payload
        assert sorted(storage.open_job_ids()) == \
            sorted([payload["job_id"], "probe"])
        storage.save_job("probe", dict(payload, state="done"))
        assert storage.open_job_ids() == [payload["job_id"]]


# -- fault matrix -------------------------------------------------------------


class Crash(Exception):
    """The process died here.  Not an ``OSError``: nothing may absorb
    it the way ``JobQueue._log`` absorbs a failed stream append."""


class CrashAfter:
    """Let ``steps`` filesystem steps of the storage layer happen, then
    raise — *after* the last one took effect.  A step is one call that
    changes the directory tree: create, write, rename, unlink."""

    def __init__(self, steps: Optional[int]) -> None:
        self.patch = pytest.MonkeyPatch()
        self.steps = steps
        self.taken = 0

    def _counted(self, real, release=lambda result: None):
        """``real``, counted; ``release`` frees what the dying process
        would have taken with it (this one lives on)."""
        def step(*args, **kwargs):
            result = real(*args, **kwargs)
            self.taken += 1
            if self.taken == self.steps:
                release(result)
                raise Crash(f"after step {self.taken}")
            return result
        return step

    def __enter__(self) -> "CrashAfter":
        patch = self.patch.setattr
        patch(os, "link", self._counted(os.link))
        patch(os, "unlink", self._counted(os.unlink))
        patch(pathlib.Path, "write_text",
              self._counted(pathlib.Path.write_text))
        patch(pathlib.Path, "replace", self._counted(pathlib.Path.replace))
        patch(storage_module, "open",
              self._counted(open, lambda handle: handle.close()),
              raising=False)
        return self

    def __exit__(self, *exc) -> None:
        self.patch.undo()


def _submit(queue: JobQueue, job: Optional[Job]) -> None:
    queue.submit(params={"key": "X"})


def _requeue_to_failed(queue: JobQueue, job: Job) -> None:
    queue.requeue_stale(2.0)  # no heartbeat at all: the worker is dead


TRANSITIONS = {
    "complete": lambda q, job: q.complete(job, {"experiment_id": "X"}),
    "complete-failed-result": lambda q, job: q.complete(
        job, {"experiment_id": "X"}, failed_result=True),
    "fail-terminal": lambda q, job: q.fail(job, "child died"),
    "finish-cancel": lambda q, job: q.finish_cancel(job),
    "requeue-past-the-cap": _requeue_to_failed,
}


def _running_job(root) -> tuple:
    """A store with job A running (held by w1) and job B queued."""
    queue = JobQueue(FileStorage(root))
    first = queue.submit(params={"key": "X"}, max_retries=0)
    second = queue.submit(params={"key": "X"})
    held = queue.claim_next("w1")
    assert held.job_id == first.job_id
    return queue, held, second


def _steps_of(tmp_path, prepare, act) -> int:
    prepared = prepare(tmp_path / "dry-run")
    with CrashAfter(None) as counter:
        act(*prepared)
    return counter.taken


def _drain(queue: JobQueue, worker_id: str) -> List[str]:
    claimed = []
    while True:
        job = queue.claim_next(worker_id)
        if job is None:
            return claimed
        claimed.append(job.job_id)


def _assert_converged(root, was_running: Optional[str]) -> None:
    """After the crash: survivors on the same directory lose nothing
    and hand nothing out twice; a restart leaves the index exact."""
    storage = FileStorage(root)
    queue = JobQueue(storage)
    assert set(open_records(storage)) <= set(storage.open_job_ids())
    states = {job.job_id: job.state for job in queue.jobs()}
    claimable = sorted(i for i, s in states.items() if s == "queued")
    # Another worker of the same incarnation: every queued job once,
    # the job whose holder died not at all.
    assert sorted(_drain(queue, "w2")) == claimable
    assert was_running not in claimable
    # No terminal record is still listed once a scan has walked past;
    # an entry whose record never landed waits for the restart.
    leftover = set(storage.open_job_ids()) - set(open_records(storage))
    assert all(storage.load_job(job_id) is None for job_id in leftover)

    # The next incarnation: what was running is requeued, once.
    restarted = JobQueue(FileStorage(root))
    recovered = {job.job_id for job in restarted.recover()}
    assert recovered == {i for i, s in states.items() if s != "queued"
                         and s not in TERMINAL_STATES} | set(claimable)
    assert sorted(storage.open_job_ids()) == open_records(storage)
    again = _drain(restarted, "w3")
    assert len(again) == len(set(again))
    assert sorted(again) == open_records(storage)
    for job in restarted.jobs():  # nothing lost: settled or in hand
        assert job.terminal or job.job_id in again


class TestFaultMatrix:
    def test_submit_dying_after_each_step(self, tmp_path):
        prepare = lambda root: (JobQueue(FileStorage(root)), None)  # noqa
        total = _steps_of(tmp_path, prepare, _submit)
        assert total >= 4  # temp file, entry, rename, stream
        for steps in range(1, total + 1):
            root = tmp_path / f"submit-{steps}"
            queue, _ = prepare(root)
            queue.submit(params={"key": "X"})  # an acknowledged job
            with CrashAfter(steps):
                with pytest.raises(Crash):
                    _submit(queue, None)
            storage = FileStorage(root)
            # The entry precedes the record, at every step.
            assert set(open_records(storage)) <= set(storage.open_job_ids())
            _assert_converged(root, None)

    @pytest.mark.parametrize("name", sorted(TRANSITIONS))
    def test_terminal_transition_dying_after_each_step(self, name,
                                                       tmp_path):
        act = TRANSITIONS[name]

        def prepare(root):
            queue, held, _ = _running_job(root)
            if name == "requeue-past-the-cap":
                held.requeues = MAX_REQUEUES
                queue._save(held)
            return queue, held

        total = _steps_of(tmp_path, prepare, act)
        assert total >= 3  # temp file, rename, entry
        for steps in range(1, total + 1):
            root = tmp_path / f"{name}-{steps}"
            queue, held = prepare(root)
            with CrashAfter(steps):
                with pytest.raises(Crash):
                    act(queue, held)
            state = queue.get(held.job_id).state
            assert state in TERMINAL_STATES or state == "running"
            _assert_converged(
                root, held.job_id if state == "running" else None)

    def test_cancel_of_a_queued_job_dying_after_each_step(self, tmp_path):
        def prepare(root):
            queue = JobQueue(FileStorage(root))
            return queue, queue.submit(params={"key": "X"})

        act = lambda queue, job: queue.cancel(job.job_id)  # noqa: E731
        total = _steps_of(tmp_path, prepare, act)
        for steps in range(1, total + 1):
            root = tmp_path / f"cancel-{steps}"
            queue, job = prepare(root)
            with CrashAfter(steps):
                with pytest.raises(Crash):
                    act(queue, job)
            storage = FileStorage(root)
            assert set(open_records(storage)) <= set(storage.open_job_ids())
            # The canceller's claim may outlive it; a restart clears it.
            restarted = JobQueue(FileStorage(root))
            assert restarted.recover() == []
            assert sorted(storage.open_job_ids()) == open_records(storage)
            record = restarted.get(job.job_id)
            if record.state == "queued":
                assert _drain(restarted, "w2") == [job.job_id]
            else:
                assert record.state == "cancelled"
                assert _drain(restarted, "w2") == []


# -- migration ----------------------------------------------------------------


def _ok_run(fast=False):
    result = ExperimentResult("OK", "works")
    result.metrics["value"] = 42.0
    return result


class TestPreIndexDirectory:
    def _old_layout(self, root) -> dict:
        """Records as an earlier version left them: no ``open/``."""
        queue = JobQueue(FileStorage(root))
        done = queue.submit(params={"key": "OK"})
        queue.complete(queue.claim_next("w-old"), {"experiment_id": "OK"})
        interrupted = queue.submit(params={"key": "OK"})
        assert queue.claim_next("w-old").job_id == interrupted.job_id
        waiting = [queue.submit(params={"key": "OK"}, priority=p)
                   for p in (0, 3)]
        shutil.rmtree(root / "open")
        return {"done": done, "interrupted": interrupted,
                "waiting": waiting}

    def test_recover_rebuilds_the_index(self, tmp_path):
        jobs = self._old_layout(tmp_path)
        storage = FileStorage(tmp_path)
        queue = JobQueue(storage)
        assert storage.open_job_ids() == []
        assert [j.job_id for j in queue.recover()] == \
            [jobs["interrupted"].job_id]
        low, high = jobs["waiting"]
        assert storage.open_job_ids() == [
            high.job_id, jobs["interrupted"].job_id, low.job_id]
        assert _drain(queue, "w") == storage.open_job_ids()

    def test_served_after_start(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner, "_REGISTRY", {"OK": _ok_run})
        jobs = self._old_layout(tmp_path)
        open_ids = [jobs["interrupted"].job_id] + \
            [job.job_id for job in jobs["waiting"]]
        config = ServiceConfig(storage_dir=str(tmp_path), workers=1, port=0)
        with _Fleet(config) as fleet:
            client = ServiceClient(port=fleet.port)
            final = client.wait(open_ids, timeout=60)
            assert all(r["state"] == "done" for r in final.values())
            assert final[jobs["interrupted"].job_id]["requeues"] == 1
            assert sorted(client.artifacts()) == sorted(
                open_ids + [jobs["done"].job_id])
            assert fleet.service.storage.open_job_ids() == []


# -- claim race ---------------------------------------------------------------


def _claim_all(root, worker_id, results):
    results.put((worker_id, _drain(JobQueue(FileStorage(root)), worker_id)))


class TestClaimRace:
    def test_eight_processes_one_owner_per_job(self, tmp_path):
        queue = JobQueue(FileStorage(tmp_path))
        submitted = [queue.submit(params={"key": "X"}, priority=n % 3).job_id
                     for n in range(40)]
        ctx = multiprocessing.get_context()
        results = ctx.Queue()
        procs = [ctx.Process(target=_claim_all,
                             args=(str(tmp_path), f"w{i:03d}", results))
                 for i in range(8)]
        for process in procs:
            process.start()
        claims = dict(results.get(timeout=60) for _ in procs)
        for process in procs:
            process.join()
        claimed = [job_id for ids in claims.values() for job_id in ids]
        assert sorted(claimed) == sorted(submitted)  # each exactly once
        for worker_id, ids in claims.items():
            for job_id in ids:
                assert queue.get(job_id).worker == worker_id
                assert queue.storage.claim_owner(job_id) == worker_id
