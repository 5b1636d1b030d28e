"""Hardened experiment runner: crash isolation, retries, timeout, resume.

The registry is monkeypatched with misbehaving experiments; the default
``fork`` start method propagates the patch into pool workers and
isolation children, so the failure paths are exercised for real.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core import proc
from repro.experiments import runner
from repro.experiments.common import ExperimentResult
from repro.experiments.runner import (_run_isolated, _run_one,
                                      _sweep_budget, failed, main, run_all)


def _ok_run(fast=False):
    result = ExperimentResult("OK", "works")
    result.metrics["value"] = 42.0
    return result


def _boom_run(fast=False):
    raise RuntimeError("deliberate crash")


def _registry_with(monkeypatch, **extra):
    registry = {"OK": _ok_run, "BOOM": _boom_run}
    registry.update(extra)
    monkeypatch.setattr(runner, "_REGISTRY", registry)
    return registry


class TestCrashIsolation:
    def test_serial_failure_is_structured_not_raised(self, monkeypatch):
        _registry_with(monkeypatch)
        results = run_all(only="OK,BOOM")
        assert [r.experiment_id for r in results] == ["OK", "BOOM"]
        assert not failed(results[0])
        assert failed(results[1])
        assert results[1].metrics["attempts"] == 1.0
        assert any("deliberate crash" in n for n in results[1].notes)

    def test_jobs_pool_survives_a_crashing_experiment(self, monkeypatch):
        _registry_with(monkeypatch)
        results = run_all(only="OK,BOOM", jobs=2)
        by_id = {r.experiment_id: r for r in results}
        assert not failed(by_id["OK"])
        assert by_id["OK"].metrics["value"] == 42.0
        assert failed(by_id["BOOM"])

    def test_serial_and_pool_report_failures_identically(self, monkeypatch):
        _registry_with(monkeypatch)
        serial = run_all(only="OK,BOOM")
        pooled = run_all(only="OK,BOOM", jobs=2)
        assert [r.render() for r in serial] == [r.render() for r in pooled]

    def test_exit_code_1_when_any_experiment_fails(self, monkeypatch,
                                                   capsys):
        _registry_with(monkeypatch)
        assert main(["--only", "OK,BOOM"]) == 1
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert "1 experiment(s) FAILED: BOOM" in out

    def test_exit_code_0_without_failures(self, monkeypatch, capsys):
        _registry_with(monkeypatch)
        assert main(["--only", "OK"]) == 0

    def test_jobs_without_timeout_survive_a_hard_crash(self, monkeypatch,
                                                       capsys):
        # A pool worker that died used to raise BrokenProcessPool and
        # abort the sweep; --jobs children are now crash-isolated with
        # or without a deadline.
        def die(fast=False):
            os._exit(3)

        _registry_with(monkeypatch, DIE=die)
        results = run_all(only="OK,DIE,BOOM", jobs=2)
        assert [failed(r) for r in results] == [False, True, True]
        assert results[0].metrics["value"] == 42.0
        assert "worker-died" in results[1].title
        assert any("exitcode 3" in n for n in results[1].notes)
        assert main(["--only", "OK,DIE", "--jobs", "2"]) == 1
        assert "1 experiment(s) FAILED: DIE" in capsys.readouterr().out


class TestRetries:
    def test_transient_error_retries_then_succeeds(self, monkeypatch):
        calls = []

        def flaky(fast=False):
            calls.append(1)
            if len(calls) < 3:
                raise OSError("resource pressure")
            return _ok_run(fast)

        _registry_with(monkeypatch, FLAKY=flaky)
        result = _run_one("FLAKY", True, retries=2, backoff=0.0)
        assert not failed(result)
        assert len(calls) == 3

    def test_retries_exhausted_yields_transient_failure(self, monkeypatch):
        def always(fast=False):
            raise OSError("still broken")

        _registry_with(monkeypatch, ALWAYS=always)
        result = _run_one("ALWAYS", True, retries=1, backoff=0.0)
        assert failed(result)
        assert result.metrics["attempts"] == 2.0
        assert "transient-error" in result.title

    def test_non_transient_error_fails_without_retry(self, monkeypatch):
        calls = []

        def boom(fast=False):
            calls.append(1)
            raise ValueError("logic bug")

        _registry_with(monkeypatch, B=boom)
        result = _run_one("B", True, retries=5, backoff=0.0)
        assert failed(result)
        assert len(calls) == 1


class TestIsolation:
    def test_timeout_kills_a_hung_experiment(self, monkeypatch):
        def hang(fast=False):
            time.sleep(60.0)

        _registry_with(monkeypatch, HANG=hang)
        t0 = time.perf_counter()
        result = _run_isolated("HANG", True, timeout=0.5)
        assert time.perf_counter() - t0 < 0.5 + proc.GRACE + 1.5
        assert failed(result)
        assert "timeout" in result.title

    def test_hard_crash_yields_worker_died_failure(self, monkeypatch):
        def die(fast=False):
            os._exit(3)

        _registry_with(monkeypatch, DIE=die)
        result = _run_isolated("DIE", True, timeout=30.0)
        assert failed(result)
        assert "worker-died" in result.title

    def test_isolated_success_returns_the_result(self, monkeypatch):
        _registry_with(monkeypatch)
        result = _run_isolated("OK", True, timeout=30.0)
        assert not failed(result)
        assert result.metrics["value"] == 42.0

    def test_timeout_reaches_a_child_that_ignores_sigterm(self,
                                                          monkeypatch):
        # Measured at 8.01 s before core/proc.py: terminate() and then
        # an unbounded join() waited out the whole sleep.
        def stubborn(fast=False):
            import signal
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
            time.sleep(60.0)

        _registry_with(monkeypatch, STUBBORN=stubborn)
        t0 = time.perf_counter()
        result = _run_isolated("STUBBORN", True, timeout=1.0)
        assert time.perf_counter() - t0 < 1.0 + proc.GRACE + 1.5
        assert "timeout" in result.title

    def test_isolation_child_dies_with_a_sigkilled_runner(self, orphans):
        pids = orphans.after_sigkill(
            "import os, time\n"
            "from repro.experiments import runner\n"
            "def slow(fast=False):\n"
            "    print(os.getpid(), flush=True)\n"
            "    time.sleep(60)\n"
            "runner._REGISTRY = {'SLOW': slow}\n"
            "runner.run_all(only='SLOW', timeout=600.0)\n")
        assert len(pids) == 1
        assert orphans.survivors(pids, within=5.0) == []

    def test_run_all_with_timeout_handles_mixed_outcomes(self, monkeypatch):
        def hang(fast=False):
            time.sleep(60.0)

        _registry_with(monkeypatch, HANG=hang)
        results = run_all(only="OK,HANG", jobs=2, timeout=1.0)
        by_id = {r.experiment_id: r for r in results}
        assert not failed(by_id["OK"])
        assert failed(by_id["HANG"])


def _sweepy_run(fast=False, jobs=1, chunk=None):
    """Records the jobs/chunk budget the runner handed it."""
    result = ExperimentResult("SWEEPY", "sweep")
    result.metrics["jobs"] = float(jobs)
    result.metrics["chunk"] = float(chunk if chunk is not None else -1)
    return result


class TestSweepBudgetForwarding:
    """--jobs/--chunk must reach sweep experiments on every branch."""

    def test_budget_math(self):
        assert _sweep_budget(1, 5) == 1  # serial: no pool to split
        assert _sweep_budget(8, 2) == 4
        assert _sweep_budget(16, 4) == 4
        # The pool is as wide as the experiment list (or narrower):
        # sweeps still get a floor of 2 workers, never 0 or 1.
        assert _sweep_budget(4, 4) == 2
        assert _sweep_budget(2, 8) == 2

    def test_serial_single_selection_forwards_full_budget(self,
                                                          monkeypatch):
        _registry_with(monkeypatch, SWEEPY=_sweepy_run)
        result = run_all(only="SWEEPY", jobs=4, chunk=3)[0]
        assert result.metrics["jobs"] == 4.0
        assert result.metrics["chunk"] == 3.0

    def test_parallel_pool_forwards_sweep_budget(self, monkeypatch):
        _registry_with(monkeypatch, SWEEPY=_sweepy_run)
        results = run_all(only="OK,SWEEPY", jobs=4, chunk=2)
        by_id = {r.experiment_id: r for r in results}
        assert by_id["SWEEPY"].metrics["jobs"] == _sweep_budget(4, 2)
        assert by_id["SWEEPY"].metrics["chunk"] == 2.0
        # OK's run() takes neither kwarg; _sweep_kwargs filters them.
        assert not failed(by_id["OK"])

    def test_timeout_isolation_forwards_sweep_budget(self, monkeypatch):
        _registry_with(monkeypatch, SWEEPY=_sweepy_run)
        results = run_all(only="OK,SWEEPY", jobs=4, chunk=2, timeout=30.0)
        by_id = {r.experiment_id: r for r in results}
        assert by_id["SWEEPY"].metrics["jobs"] == _sweep_budget(4, 2)
        assert by_id["SWEEPY"].metrics["chunk"] == 2.0

    def test_serial_default_budget_stays_one(self, monkeypatch):
        _registry_with(monkeypatch, SWEEPY=_sweepy_run)
        result = run_all(only="OK,SWEEPY")[1]
        assert result.metrics["jobs"] == 1.0
        assert result.metrics["chunk"] == -1.0


class TestCheckpointResume:
    def test_out_dir_checkpoints_each_artifact(self, monkeypatch, tmp_path):
        _registry_with(monkeypatch)
        run_all(only="OK,BOOM", out_dir=str(tmp_path))
        assert (tmp_path / "OK.json").exists()
        assert (tmp_path / "BOOM.json").exists()

    def test_interrupted_sweep_keeps_what_it_finished(self, monkeypatch,
                                                      tmp_path):
        # Checkpoints used to be written after the whole sweep
        # returned: an interrupt left an empty directory.
        def interrupt(fast=False):
            raise KeyboardInterrupt

        _registry_with(monkeypatch, INT=interrupt)
        with pytest.raises(KeyboardInterrupt):
            run_all(only="OK,INT", out_dir=str(tmp_path))
        assert os.listdir(tmp_path) == ["OK.json"]

        def poisoned(fast=False):
            raise AssertionError("must not re-run a checkpointed artifact")

        _registry_with(monkeypatch, OK=poisoned, INT=_ok_run)
        results = run_all(only="OK,INT", out_dir=str(tmp_path),
                          resume=True)
        assert [failed(r) for r in results] == [False, False]
        assert results[0].metrics["value"] == 42.0

    def test_jobs_checkpoint_each_artifact_as_it_arrives(self, monkeypatch,
                                                         tmp_path):
        def waits_for_ok(fast=False):
            # Returns only once OK's checkpoint is on disk (or gives
            # up): written at the end of the sweep, it never would be.
            deadline = time.monotonic() + 30.0
            while not (tmp_path / "OK.json").exists() \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            result = ExperimentResult("WAITS", "saw OK's checkpoint?")
            result.metrics["saw"] = float((tmp_path / "OK.json").exists())
            return result

        _registry_with(monkeypatch, WAITS=waits_for_ok)
        results = run_all(only="WAITS,OK", jobs=2, out_dir=str(tmp_path))
        assert results[0].metrics["saw"] == 1.0

    def test_resume_skips_completed_artifacts(self, monkeypatch, tmp_path):
        _registry_with(monkeypatch)
        run_all(only="OK", out_dir=str(tmp_path))

        def poisoned(fast=False):
            raise AssertionError("must not re-run a checkpointed artifact")

        _registry_with(monkeypatch, OK=poisoned)
        results = run_all(only="OK", out_dir=str(tmp_path), resume=True)
        assert not failed(results[0])
        assert results[0].metrics["value"] == 42.0

    def test_resume_reruns_failed_artifacts(self, monkeypatch, tmp_path):
        _registry_with(monkeypatch)
        first = run_all(only="BOOM", out_dir=str(tmp_path))
        assert failed(first[0])

        _registry_with(monkeypatch, BOOM=_ok_run)
        results = run_all(only="BOOM", out_dir=str(tmp_path), resume=True)
        assert not failed(results[0])

    def test_corrupt_checkpoint_is_rerun(self, monkeypatch, tmp_path):
        _registry_with(monkeypatch)
        (tmp_path / "OK.json").write_text("{ not json")
        results = run_all(only="OK", out_dir=str(tmp_path), resume=True)
        assert not failed(results[0])

    def test_resume_requires_out_dir(self):
        with pytest.raises(SystemExit) as exc:
            main(["--resume", "--only", "F2"])
        assert exc.value.code == 2

    def test_bad_timeout_and_retries_rejected(self):
        for argv in (["--timeout", "0", "--only", "F2"],
                     ["--retries", "-1", "--only", "F2"],
                     ["--retry-backoff", "-1", "--only", "F2"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2


def _break_entry(monkeypatch, key="X7"):
    """Point ``key`` at a module that does not exist."""
    names = {**runner.EXPERIMENTS, **runner.ABLATIONS,
             key: ("no_such_experiment", "run")}
    monkeypatch.setattr(runner, "_REGISTRY", runner._Registry(names))


class TestUnimportableEntry:
    """A key resolves only when it runs, so an entry whose module fails
    to import fails that key alone, as a structured failure."""

    def test_run_all_reports_a_structured_error(self, monkeypatch):
        _break_entry(monkeypatch)
        [result] = run_all(fast=True, only="X7")
        assert failed(result)
        assert result.title == "FAILED (error)"
        assert any("No module named" in note for note in result.notes)

    def test_the_pool_parent_leaves_it_to_the_child(self, monkeypatch):
        _break_entry(monkeypatch)
        results = run_all(fast=True, only="X7,A1", jobs=2)
        assert [failed(r) for r in results] == [True, False]
        assert any("No module named" in note for note in results[0].notes)

    def test_other_keys_still_run(self, monkeypatch, capsys):
        _break_entry(monkeypatch)
        assert main(["--fast", "--only", "F2"]) == 0
        assert "0 checks diverged" in capsys.readouterr().out

    def test_service_job_fails_and_the_worker_keeps_claiming(
            self, monkeypatch, tmp_path):
        from repro.service.queue import JobQueue
        from repro.service.storage import FileStorage
        from repro.service.worker import run_worker

        _break_entry(monkeypatch)
        storage = FileStorage(tmp_path / "store")
        queue = JobQueue(storage)
        broken = queue.submit(params={"key": "X7", "fast": True},
                              max_retries=3)
        fine = queue.submit(params={"key": "A1", "fast": True})
        assert run_worker(str(storage.root), "w001", max_jobs=2) == 2
        record = queue.get(broken.job_id)
        assert record.state == "failed"
        assert record.attempts == 1  # deterministic: no retry
        notes = storage.load_artifact(broken.job_id)["notes"]
        assert any("No module named" in note for note in notes)
        assert queue.get(fine.job_id).state == "done"
