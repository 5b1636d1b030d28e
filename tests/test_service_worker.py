"""Service workers: the pull loop and child-process execution.

The loop is tested with an injected fake executor (no process
machinery); the execution paths — success, crash, timeout, cooperative
cancel — run real disposable children against a monkeypatched registry
(the default ``fork`` start method propagates the patch, as the runner
hardening suite established).
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.experiments import runner
from repro.experiments.common import ExperimentResult
from repro.service.queue import JobQueue
from repro.service.storage import FileStorage
from repro.service.worker import (canonical_artifact_bytes, execute_in_child,
                                  run_worker)


def _ok_run(fast=False):
    result = ExperimentResult("OK", "works")
    result.metrics["value"] = 42.0
    return result


def _boom_run(fast=False):
    # _run_one converts raised exceptions into structured FAILED
    # artifacts, so a *hard* death is the only way to exercise the
    # worker's crash path.
    import os
    os._exit(7)


def _slow_run(fast=False):
    time.sleep(30.0)
    return ExperimentResult("SLOW", "never finishes in these tests")


def _structured_failure_run(fast=False):
    result = ExperimentResult("SAD", "reports failure")
    result.metrics["failed"] = 1.0
    return result


def _forking_run(fast=False):
    # A job with a child of its own, as the live gateway's shard
    # processes are: spawned, answered, reaped.
    from repro.core import proc
    child = proc.spawn(lambda conn: conn.send(42))
    value = child.conn.recv() if child.conn.poll(30.0) else None
    result = ExperimentResult("FORK", "forks and reaps a child")
    result.metrics.update(value=value, exitcode=child.reap(proc.GRACE))
    return result


@pytest.fixture()
def patched_registry(monkeypatch):
    monkeypatch.setattr(runner, "_REGISTRY", {
        "OK": _ok_run, "BOOM": _boom_run, "SLOW": _slow_run,
        "SAD": _structured_failure_run, "FORK": _forking_run})


@pytest.fixture()
def storage(tmp_path):
    return FileStorage(tmp_path / "store")


@pytest.fixture()
def queue(storage):
    return JobQueue(storage)


class TestCanonicalArtifactBytes:
    def test_wall_time_is_dropped(self):
        a = {"experiment_id": "T1", "wall_time": 1.0, "metrics": {"x": 1.0}}
        b = {"experiment_id": "T1", "wall_time": 99.0, "metrics": {"x": 1.0}}
        assert canonical_artifact_bytes(a) == canonical_artifact_bytes(b)

    def test_real_differences_still_differ(self):
        a = {"experiment_id": "T1", "metrics": {"x": 1.0}}
        b = {"experiment_id": "T1", "metrics": {"x": 2.0}}
        assert canonical_artifact_bytes(a) != canonical_artifact_bytes(b)

    def test_volatile_metric_families_filtered(self):
        a = {"metrics": {"loss": 0.1, "wall_s_run": 5.0}}
        b = {"metrics": {"loss": 0.1, "wall_s_run": 7.7}}
        volatile = ("wall_s_",)
        assert canonical_artifact_bytes(a, volatile) == \
            canonical_artifact_bytes(b, volatile)
        assert canonical_artifact_bytes(a) != canonical_artifact_bytes(b)

    def test_key_order_is_canonical(self):
        assert canonical_artifact_bytes({"b": 1, "a": 2}) == \
            canonical_artifact_bytes({"a": 2, "b": 1})


class TestExecuteInChild:
    def test_success_completes_with_artifact_and_stream(
            self, patched_registry, queue, storage):
        queue.submit(params={"key": "OK", "fast": True})
        job = queue.claim_next("w001")
        settled = execute_in_child(queue, storage, job, beat=lambda: None)
        assert settled.state == "done"
        artifact = storage.load_artifact(job.job_id)
        assert artifact["experiment_id"] == "OK"
        assert artifact["metrics"]["value"] == 42.0
        lines, _ = storage.read_stream(job.job_id)
        events = [json.loads(line) for line in lines]
        metrics_events = [e for e in events if e.get("type") == "metrics"]
        assert len(metrics_events) == 1
        assert json.loads(metrics_events[0]["line"])["experiment_id"] == "OK"

    def test_a_job_that_spawns_and_reaps_a_child_completes(
            self, patched_registry, queue, storage):
        queue.submit(params={"key": "FORK", "fast": True})
        job = queue.claim_next("w001")
        settled = execute_in_child(queue, storage, job, beat=lambda: None)
        assert settled.state == "done"
        artifact = storage.load_artifact(job.job_id)
        assert artifact["metrics"] == {"value": 42, "exitcode": 0}

    def test_crash_burns_a_retry_and_requeues(self, patched_registry,
                                              queue, storage):
        queue.submit(params={"key": "BOOM"}, max_retries=1,
                     retry_backoff=0.0)
        job = queue.claim_next("w001")
        settled = execute_in_child(queue, storage, job, beat=lambda: None)
        assert settled.state == "queued"
        assert settled.attempts == 1
        assert "died" in settled.error
        assert storage.load_artifact(job.job_id) is None

    def test_structured_failure_is_terminal(self, patched_registry,
                                            queue, storage):
        queue.submit(params={"key": "SAD"}, max_retries=3)
        job = queue.claim_next("w001")
        settled = execute_in_child(queue, storage, job, beat=lambda: None)
        assert settled.state == "failed"
        assert settled.attempts == 1  # deterministic failure: no retry
        assert storage.load_artifact(job.job_id) is not None

    def test_timeout_kills_the_child(self, patched_registry, queue,
                                     storage):
        queue.submit(params={"key": "SLOW"}, timeout=0.5, max_retries=0)
        job = queue.claim_next("w001")
        start = time.monotonic()
        settled = execute_in_child(queue, storage, job, beat=lambda: None)
        assert time.monotonic() - start < 10.0
        assert settled.state == "failed"
        assert "timeout" in settled.error

    def test_cooperative_cancel_tears_down_mid_run(self, patched_registry,
                                                   queue, storage):
        job_record = queue.submit(params={"key": "SLOW"})
        job = queue.claim_next("w001")
        canceller = threading.Timer(0.4,
                                    lambda: queue.cancel(job_record.job_id))
        canceller.start()
        try:
            start = time.monotonic()
            settled = execute_in_child(queue, storage, job,
                                       beat=lambda: None)
        finally:
            canceller.cancel()
        assert settled.state == "cancelled"
        assert time.monotonic() - start < 10.0


class TestRunWorkerLoop:
    def test_drains_queue_with_injected_executor(self, queue, storage):
        for key in ("A", "B", "C"):
            queue.submit(params={"key": key})
        executed = []

        def fake_executor(q, s, job, beat):
            executed.append(job.params["key"])
            return q.complete(job, {"experiment_id": job.params["key"]})

        count = run_worker(str(storage.root), "w001",
                           executor=fake_executor, max_jobs=3)
        assert count == 3
        assert executed == ["A", "B", "C"]
        assert all(job.state == "done" for job in queue.jobs())

    def test_idle_exit_returns_on_empty_queue(self, storage):
        start = time.monotonic()
        count = run_worker(str(storage.root), "w001",
                           poll_interval=0.01, idle_exit=0.1)
        assert count == 0
        assert time.monotonic() - start < 5.0

    def test_stop_callable_halts_the_loop(self, queue, storage):
        queue.submit(params={"key": "X"})
        assert run_worker(str(storage.root), "w001",
                          executor=lambda *a: None, stop=lambda: True) == 0
        assert queue.jobs("queued")  # untouched

    def test_heartbeats_are_written(self, storage):
        run_worker(str(storage.root), "w007", poll_interval=0.01,
                   heartbeat_interval=0.0, idle_exit=0.05)
        beats = storage.heartbeats()
        assert "w007" in beats
        assert beats["w007"]["pid"] > 0

    def test_executor_exception_fails_the_job(self, queue, storage):
        queue.submit(params={"key": "X"}, max_retries=0)

        def broken_executor(q, s, job, beat):
            raise OSError("executor blew up")

        count = run_worker(str(storage.root), "w001",
                           executor=broken_executor, max_jobs=1)
        assert count == 1
        job = queue.jobs()[0]
        assert job.state == "failed"
        assert "executor blew up" in job.error
