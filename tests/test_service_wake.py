"""The event-driven claim path: a submitted job wakes an idle worker.

Three layers, each tested where it lives: the pipe
(``proc.Child.wake`` -> the event ``proc.exit_with_parent`` returns),
the worker loop (``worker._work`` idling on that event, driven directly
with a scripted event and no sleeps) and the service (who sends, how
often, and that sending cannot stall the API).  The last class runs
real services and real workers.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time
from pathlib import Path

import pytest

from repro.core import proc
from repro.experiments import runner
from repro.experiments.service_exp import _Fleet
from repro.service import worker as worker_module
from repro.service.api import ServiceConfig
from repro.service.client import ServiceClient
from repro.service.queue import JobQueue
from repro.service.storage import FileStorage, write_atomic
from repro.service.worker import run_worker

pytestmark = pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                                reason="needs Linux /proc")

#: Far beyond any test's needs: a wait this long is a hang.
FOREVER = 60.0


@pytest.fixture()
def storage(tmp_path):
    return FileStorage(tmp_path / "store")


@pytest.fixture()
def queue(storage):
    return JobQueue(storage)


def _until(predicate, within: float = 30.0):
    deadline = time.monotonic() + within
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.005)
    raise AssertionError("condition not met in time")


# -- the pipe -----------------------------------------------------------------


def _announce(pid_file: str) -> None:
    write_atomic(Path(pid_file), str(os.getpid()))


def _announced(pid_file: str):
    try:
        with open(pid_file) as handle:
            return int(handle.read())
    except FileNotFoundError:
        return None


def _waits_for_wake(conn, pid_file):
    wake = proc.exit_with_parent(conn)
    wake.wait(FOREVER)
    _announce(pid_file)
    time.sleep(FOREVER)


def _stopped_under_watch(conn, pid_file):
    proc.exit_with_parent(conn)
    _announce(pid_file)
    os.kill(os.getpid(), signal.SIGSTOP)
    time.sleep(FOREVER)


def _stopped(pid: int) -> bool:
    with open(f"/proc/{pid}/stat") as handle:
        return handle.read().rpartition(")")[2].split()[0] == "T"


def _fill(conn) -> int:
    """Write to ``conn``'s descriptor until the kernel refuses."""
    os.set_blocking(conn.fileno(), False)
    sent = 0
    try:
        while True:
            sent += os.write(conn.fileno(), b"\0")
    except BlockingIOError:
        return sent


class TestPipe:
    def test_wake_sets_the_childs_event(self, tmp_path):
        pid_file = str(tmp_path / "pid")
        child = proc.spawn(_waits_for_wake, (pid_file,))
        try:
            assert _announced(pid_file) is None
            child.wake()
            assert _until(lambda: _announced(pid_file)) == child.pid
        finally:
            child.kill()

    def test_eof_still_ends_a_child_that_was_sent_tokens(self, tmp_path):
        pid_file = str(tmp_path / "pid")
        child = proc.spawn(_waits_for_wake, (pid_file,))
        for _ in range(50):
            child.wake()
        _until(lambda: _announced(pid_file))
        child.conn.close()
        _until(lambda: child.exitcode is not None, within=FOREVER)
        assert child.exitcode == proc.ORPHAN_EXIT
        child.reap()

    def test_wake_on_a_full_pipe_returns_at_once(self, tmp_path):
        pid_file = str(tmp_path / "pid")
        child = proc.spawn(_stopped_under_watch, (pid_file,))
        try:
            _until(lambda: _announced(pid_file) and _stopped(child.pid))
            assert _fill(child.conn) > 0
            started = time.monotonic()
            for _ in range(1000):
                child.wake()
            assert time.monotonic() - started < 1.0
            assert child.alive
        finally:
            child.kill()

    def test_wake_of_a_reaped_child_is_a_no_op(self, tmp_path):
        child = proc.spawn(_stopped_under_watch, (str(tmp_path / "pid"),))
        child.kill()
        child.wake()


# -- the worker loop, driven directly -----------------------------------------


class ScriptedEvent(threading.Event):
    """An event that never sleeps: ``wait`` answers at once — true if
    set, false as if the timeout had run out — and notes what it was
    asked.  ``on_timeout`` runs at each simulated expiry."""

    def __init__(self, on_timeout=lambda: None) -> None:
        super().__init__()
        self.waits = []
        self.on_timeout = on_timeout

    def wait(self, timeout=None):
        self.waits.append((timeout, self.is_set()))
        if self.is_set():
            return True
        self.on_timeout()
        return False


def _complete(queue, storage, job, beat):
    return queue.complete(job, {"experiment_id": job.params["key"]})


def _counting_claims(monkeypatch, before=lambda n: None):
    """Count ``claim_next`` calls; ``before(n)`` runs inside the n-th
    one, after the real scan — where a racing submit would land."""
    real = JobQueue.claim_next
    calls = []

    def claim_next(self, worker_id):
        job = real(self, worker_id)
        calls.append(job)
        before(len(calls))
        return job

    monkeypatch.setattr(JobQueue, "claim_next", claim_next)
    return calls


class TestWorkerLoop:
    def test_token_between_scan_and_wait_is_not_lost(self, queue, storage,
                                                     monkeypatch):
        wake = ScriptedEvent(
            on_timeout=lambda: pytest.fail("slept through a pending wake"))

        def racing_submit(n):
            if n == 1:  # the scan saw an empty queue; now the job lands
                queue.submit(params={"key": "X"})
                wake.set()

        calls = _counting_claims(monkeypatch, racing_submit)
        executed = worker_module._work(
            wake, str(storage.root), "w001", FOREVER, FOREVER,
            executor=_complete, max_jobs=1)
        assert executed == 1
        assert [job is not None for job in calls] == [False, True]
        assert wake.waits == [(FOREVER, True)]

    def test_no_wake_source_claims_at_the_fallback_rescan(
            self, queue, storage, monkeypatch):
        wake = ScriptedEvent(
            on_timeout=lambda: queue.submit(params={"key": "X"}))
        calls = _counting_claims(monkeypatch)
        executed = worker_module._work(
            wake, str(storage.root), "w001", 0.2, FOREVER,
            executor=_complete, max_jobs=1)
        assert executed == 1
        assert len(calls) == 2
        assert wake.waits == [(0.2, False)]  # one full poll, unsignalled

    def test_standalone_run_worker_polls(self, queue, storage):
        looks = []

        def stop():
            looks.append(None)
            if len(looks) == 2:  # it has idled once: nobody woke it
                queue.submit(params={"key": "X"})
            return False

        assert run_worker(str(storage.root), "w001", poll_interval=0.01,
                          executor=_complete, max_jobs=1, stop=stop) == 1
        assert len(looks) == 2

    def test_tokens_while_busy_coalesce_into_one_rescan(
            self, queue, storage, monkeypatch):
        queue.submit(params={"key": "X"})
        idled = []
        wake = ScriptedEvent(on_timeout=lambda: idled.append(None))
        calls = _counting_claims(monkeypatch)

        def busy(q, s, job, beat):
            for _ in range(25):  # the service announces 25 batches
                wake.set()
            return _complete(q, s, job, beat)

        worker_module._work(wake, str(storage.root), "w001", 0.2, FOREVER,
                            executor=busy, stop=lambda: bool(idled))
        # The job, then one look at the queue, then a full idle wait.
        assert [job is not None for job in calls] == [True, False]
        assert wake.waits == [(0.2, False)]

    def test_idle_worker_scans_once_per_poll(self, storage, monkeypatch):
        idled = []
        wake = ScriptedEvent(on_timeout=lambda: idled.append(None))
        calls = _counting_claims(monkeypatch)
        worker_module._work(wake, str(storage.root), "w001", 0.2, FOREVER,
                            stop=lambda: len(idled) >= 10)
        assert len(calls) == len(wake.waits) == 10
        assert {timeout for timeout, _ in wake.waits} == {0.2}


# -- the service --------------------------------------------------------------


class RecordingWorker:
    """Stands in for a ``proc.Child`` in ``ExperimentService.workers``."""

    alive = True
    pid = 0

    def __init__(self) -> None:
        self.wakes = 0

    def wake(self) -> None:
        self.wakes += 1

    def reap(self, wait: float = 0.0):
        return 0


class FullPipeWorker(RecordingWorker):
    """A ``proc.Child`` over a real socket nobody reads, filled up."""

    def __init__(self) -> None:
        super().__init__()
        ours, self._theirs = socket.socketpair()
        self.child = proc.Child(None, proc.Channel(ours.detach()))
        _fill(self.child.conn)

    def wake(self) -> None:
        super().wake()
        with pytest.raises(BlockingIOError):
            os.write(self.child.conn.fileno(), b"\0")
        self.child.wake()

    def close(self) -> None:
        self.child.conn.close()
        self._theirs.close()


def _ok_run(fast=False):
    from repro.experiments.common import ExperimentResult
    result = ExperimentResult("OK", "works")
    result.metrics["value"] = 42.0
    return result


@pytest.fixture()
def idle_fleet(tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "_REGISTRY", {"OK": _ok_run})
    config = ServiceConfig(storage_dir=str(tmp_path / "store"), workers=0,
                           port=0, sweep_interval=0.02)
    with _Fleet(config) as fleet:
        yield fleet


class TestServiceSends:
    def test_quiet_when_idle_one_token_per_batch(self, idle_fleet):
        service = idle_fleet.service
        pool = {"w001": RecordingWorker(), "w002": RecordingWorker()}
        service.workers.update(pool)
        client = ServiceClient(port=idle_fleet.port)
        try:
            for _ in range(5):  # requests and sweeps, nothing claimable
                client.health()
                client.jobs()
                time.sleep(0.02)
            assert [w.wakes for w in pool.values()] == [0, 0]
            jobs = client.submit([{"key": "OK"}] * 150)
            assert len(jobs) == 150
            assert [w.wakes for w in pool.values()] == [1, 1]
            client.submit([{"key": "OK"}])
            assert [w.wakes for w in pool.values()] == [2, 2]
        finally:
            service.workers.clear()

    def test_stale_requeue_wakes_the_pool(self, idle_fleet):
        service = idle_fleet.service
        service.queue.submit(params={"key": "OK"})
        service.queue.claim_next("w-dead")  # never heartbeats
        survivor = RecordingWorker()
        service.workers["w001"] = survivor
        try:
            _until(lambda: service.queue.jobs("queued"))
            _until(lambda: survivor.wakes >= 1)
        finally:
            service.workers.clear()

    def test_recovered_jobs_wake_the_pool_at_start(self, tmp_path,
                                                   monkeypatch):
        store = str(tmp_path / "store")
        before = JobQueue(FileStorage(store))
        before.submit(params={"key": "OK"})
        before.claim_next("w-previous-incarnation")
        woken = []
        monkeypatch.setattr(proc.Child, "wake",
                            lambda self: woken.append(self.pid))
        with _Fleet(ServiceConfig(storage_dir=store, workers=2,
                                  port=0)) as fleet:
            pids = [w.pid for w in fleet.service.workers.values()]
            assert sorted(woken) == sorted(pids)

    def test_full_pipe_does_not_stall_the_api(self, idle_fleet):
        service = idle_fleet.service
        stuck = FullPipeWorker()
        service.workers["w001"] = stuck
        client = ServiceClient(port=idle_fleet.port, timeout=10.0)
        try:
            started = time.monotonic()
            client.submit([{"key": "OK"}] * 3)
            assert client.health()["status"] == "ok"
            assert time.monotonic() - started < 5.0
            assert stuck.wakes == 1
        finally:
            service.workers.clear()
            stuck.close()


class TestRealWorkers:
    def test_default_poll_job_starts_at_once(self, tmp_path):
        """``worker_poll`` left at its 0.2 s default: seven ``F2`` jobs,
        each submitted while the worker idles, at think times spread
        over the poll period as the ledger's are.  A worker that had to
        poll for them would start the median job ~100 ms late."""
        config = ServiceConfig(storage_dir=str(tmp_path / "store"),
                               workers=1, port=0)
        assert config.worker_poll == 0.2
        waits, totals = [], []
        with _Fleet(config) as fleet:
            client = ServiceClient(port=fleet.port)
            _until(lambda: client.health()["workers"]["w001"]["beat_age"]
                   is not None)
            for n in range(7):
                time.sleep(0.03 + 0.2 * ((n * 0.618) % 1.0))
                started = time.monotonic()
                job = client.submit([{"key": "F2", "fast": True}])[0]
                record = client.wait([job["job_id"]], timeout=60,
                                     poll=0.05)[job["job_id"]]
                totals.append(time.monotonic() - started)
                assert record["state"] == "done"
                waits.append(record["started_at"] - record["submitted_at"])
        assert sorted(waits)[3] < 0.05, waits
        assert sorted(totals)[3] < 0.15, totals

    def test_stopped_worker_does_not_stall_the_service(self, tmp_path,
                                                       monkeypatch):
        monkeypatch.setattr(runner, "_REGISTRY", {"OK": _ok_run})
        config = ServiceConfig(storage_dir=str(tmp_path / "store"),
                               workers=1, port=0, heartbeat_timeout=60.0)
        with _Fleet(config) as fleet:
            client = ServiceClient(port=fleet.port, timeout=10.0)
            worker = fleet.service.workers["w001"]
            os.kill(worker.pid, signal.SIGSTOP)
            try:
                _until(lambda: _stopped(worker.pid))
                assert _fill(worker.conn) > 0  # it reads nothing now
                started = time.monotonic()
                job = client.submit([{"key": "OK"}])[0]
                for _ in range(20):
                    assert client.health()["status"] == "ok"
                assert time.monotonic() - started < 5.0
                assert client.job(job["job_id"])["state"] == "queued"
            finally:
                os.kill(worker.pid, signal.SIGCONT)
            # Resumed, it drains the pipe and finds the job.
            final = client.wait([job["job_id"]], timeout=60)
            assert final[job["job_id"]]["state"] == "done"

    def test_sigkilled_service_with_tokens_in_flight(self, tmp_path,
                                                     orphans):
        # The orphan cascade of test_service_api.TestOrphanRule, with
        # the job submitted through the waking path and a burst of
        # tokens unread in each worker's pipe when the service dies.
        pids = orphans.after_sigkill(
            "import os, time\n"
            "from repro.experiments import runner\n"
            "from repro.service.api import ExperimentService, "
            "ServiceConfig\n"
            "def slow(fast=False):\n"
            "    print(os.getpid(), flush=True)\n"
            "    time.sleep(60)\n"
            "runner._REGISTRY = {'SLOW': slow}\n"
            f"config = ServiceConfig(storage_dir={str(tmp_path)!r}, "
            "workers=2)\n"
            "service = ExperimentService(config).start()\n"
            "print(*[w.pid for w in service.workers.values()], flush=True)\n"
            "service._submit({'key': 'SLOW'})\n"
            "for _ in range(100):\n"
            "    service._wake_workers()\n"
            "service.clock.run()\n", lines=2)
        assert len(pids) == 3  # two workers, then the job child
        assert orphans.survivors(pids, within=5.0) == []
