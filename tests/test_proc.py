"""The supervised-child primitive (``core/proc.py``) against real children.

A fault matrix: every way a child can end must yield the right outcome
kind with a real exit code, leave no process behind and no descriptor
open.  Nothing here sleeps to synchronise: a child announces itself by
writing its pid to a file, the parent notices from ``tick()``; sleeps
inside targets are the *work* a fault interrupts, and every bound is
far above what the operation takes.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core import proc
from repro.service.storage import write_atomic

pytestmark = pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                                reason="needs Linux /proc")

#: Far beyond any test's needs; a child still alive after this is a bug.
FOREVER = 60.0


def _announce(pid_file: str) -> None:
    write_atomic(Path(pid_file), str(os.getpid()))


def _announced(pid_file: str):
    try:
        with open(pid_file) as handle:
            return int(handle.read())
    except FileNotFoundError:
        return None


def _returns(pid_file, value):
    _announce(pid_file)
    return value


def _raises(pid_file):
    _announce(pid_file)
    raise ValueError("deliberate")


def _exits(pid_file, code, after=0.0):
    _announce(pid_file)
    time.sleep(after)
    os._exit(code)


def _sleeps(pid_file):
    _announce(pid_file)
    time.sleep(FOREVER)


def _ignores_sigterm(pid_file):
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    _announce(pid_file)
    time.sleep(FOREVER)


def _stops_itself(pid_file):
    _announce(pid_file)
    os.kill(os.getpid(), signal.SIGSTOP)
    time.sleep(FOREVER)


def _returns_unpicklable(pid_file):
    _announce(pid_file)
    return threading.Lock()


def _dies_leaving_a_descendant(pid_file, descendant_file):
    """Crash while a descendant still holds this child's pipe end."""
    _announce(pid_file)
    if os.fork() == 0:
        _announce(descendant_file)
        time.sleep(FOREVER)
        os._exit(0)
    while _announced(descendant_file) is None:
        time.sleep(0.001)
    os._exit(5)


def _hold(conn, pid_file):
    """A ``spawn`` target (it gets the pipe end): report in, then idle."""
    _announce(pid_file)
    conn.send("up")
    time.sleep(FOREVER)


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.fixture
def pid_file(tmp_path, orphans):
    """Where the child announces its pid; afterwards that pid must be
    gone — reaped, not a zombie of ours — whatever the test did."""
    path = str(tmp_path / "child.pid")
    yield path
    pid = _announced(path)
    assert pid is not None, "the child never ran"
    assert not os.path.exists(f"/proc/{pid}"), "child not reaped"


class TestOutcomes:
    def test_return_value_comes_back(self, pid_file):
        outcome = proc.run_task(_returns, (pid_file, {"x": 21}))
        assert outcome == ("ok", {"x": 21}, 0)

    def test_raise_is_a_death_with_exit_code_1(self, pid_file, capfd):
        outcome = proc.run_task(_raises, (pid_file,))
        assert (outcome.kind, outcome.exitcode) == ("died", 1)
        assert "ValueError: deliberate" in capfd.readouterr().err

    def test_hard_exit_reports_its_code(self, pid_file):
        outcome = proc.run_task(_exits, (pid_file, 3))
        assert (outcome.kind, outcome.exitcode) == ("died", 3)

    def test_sigkill_from_outside(self, pid_file):
        def tick() -> bool:
            pid = _announced(pid_file)
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
            return False

        t0 = time.monotonic()
        outcome = proc.run_task(_sleeps, (pid_file,), tick=tick)
        assert (outcome.kind, outcome.exitcode) == ("died", -signal.SIGKILL)
        assert time.monotonic() - t0 < 10.0

    def test_deadline_terminates(self, pid_file):
        t0 = time.monotonic()
        outcome = proc.run_task(_sleeps, (pid_file,), deadline=0.3)
        assert (outcome.kind, outcome.exitcode) == ("timeout",
                                                    -signal.SIGTERM)
        assert time.monotonic() - t0 < 0.3 + proc.GRACE

    def test_deadline_on_a_sigterm_ignoring_child(self, pid_file):
        # Measured hole 2: terminate() then an unbounded join() waited
        # out the child's whole sleep.
        t0 = time.monotonic()
        outcome = proc.run_task(_ignores_sigterm, (pid_file,), deadline=1.0)
        assert (outcome.kind, outcome.exitcode) == ("timeout",
                                                    -signal.SIGKILL)
        assert time.monotonic() - t0 < 1.0 + proc.GRACE + 1.5

    def test_deadline_on_a_sigstopped_child(self, pid_file):
        # SIGTERM stays pending on a stopped process; only the SIGKILL
        # rung ends it.
        t0 = time.monotonic()
        outcome = proc.run_task(_stops_itself, (pid_file,), deadline=0.3)
        assert (outcome.kind, outcome.exitcode) == ("timeout",
                                                    -signal.SIGKILL)
        assert time.monotonic() - t0 < 0.3 + 2 * proc.GRACE + 1.5

    def test_unpicklable_value_is_a_death(self, pid_file, capfd):
        outcome = proc.run_task(_returns_unpicklable, (pid_file,))
        assert (outcome.kind, outcome.exitcode) == ("died", 1)
        assert "pickle" in capfd.readouterr().err

    def test_large_value_does_not_deadlock(self, pid_file):
        # The pipe holds ~64 KiB: the child blocks in send() until the
        # parent reads, so the parent must recv before it joins.
        blob = bytes(range(256)) * 4096
        t0 = time.monotonic()
        outcome = proc.run_task(_returns, (pid_file, blob))
        assert outcome.kind == "ok" and outcome.value == blob
        assert time.monotonic() - t0 < 10.0

    def test_tick_can_cancel(self, pid_file):
        ticks = []

        def tick() -> bool:
            ticks.append(1)
            return _announced(pid_file) is not None

        t0 = time.monotonic()
        outcome = proc.run_task(_sleeps, (pid_file,), tick=tick)
        assert (outcome.kind, outcome.exitcode) == ("cancelled",
                                                    -signal.SIGTERM)
        assert ticks
        assert time.monotonic() - t0 < 10.0

    def test_death_is_seen_past_a_descendant_holding_the_pipe(
            self, pid_file, tmp_path, orphans):
        descendant_file = str(tmp_path / "descendant.pid")
        t0 = time.monotonic()
        outcome = proc.run_task(_dies_leaving_a_descendant,
                                (pid_file, descendant_file))
        elapsed = time.monotonic() - t0
        assert orphans.survivors([_announced(descendant_file)],
                                 within=0.0) != [], "descendant went early"
        assert (outcome.kind, outcome.exitcode) == ("died", 5)
        assert elapsed < 10.0


class TestNoLeaks:
    def test_fifty_tasks_leave_no_descriptor_open(self, tmp_path):
        pid_file = str(tmp_path / "child.pid")
        proc.run_task(_returns, (pid_file, 0))  # warm lazy imports
        before = _open_fds()
        for i in range(50):
            fn, args = ((_returns, (pid_file, i)) if i % 5
                        else (_exits, (pid_file, 3)))
            assert proc.run_task(fn, args).kind == ("ok" if i % 5
                                                    else "died")
        assert _open_fds() == before
        assert not proc._parent_ends

    def test_handle_reap_and_kill_are_idempotent(self, pid_file):
        before = _open_fds()
        child = proc.spawn(_hold, (pid_file,), daemon=True)
        assert child.conn.recv() == "up" and child.alive
        assert child.kill() == -signal.SIGKILL
        assert not child.alive
        assert child.kill() == -signal.SIGKILL
        assert child.reap() == -signal.SIGKILL
        assert child.conn.closed
        del child  # the Process object owns its sentinel until freed
        assert _open_fds() == before


class TestForkFromThreads:
    def test_a_death_is_reported_while_a_racing_sibling_runs(self,
                                                             tmp_path):
        # Measured hole 1: a sibling forked between Pipe() and the
        # parent closing the child's end held that end open, so the
        # death surfaced only when the sibling ended, 6 s later.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for rep in range(20):
                self._race(str(tmp_path / f"die{rep}"),
                           str(tmp_path / f"sib{rep}"))
        finally:
            sys.setswitchinterval(interval)

    @staticmethod
    def _race(die_file: str, sibling_file: str) -> None:
        barrier = threading.Barrier(2)
        reported = threading.Event()
        result = {}

        def dies() -> None:
            barrier.wait()
            t0 = time.monotonic()
            result["outcome"] = proc.run_task(_exits, (die_file, 3, 0.1))
            result["elapsed"] = time.monotonic() - t0
            reported.set()

        def sibling() -> None:
            barrier.wait()
            result["sibling"] = proc.run_task(_exits, (sibling_file, 0, 6.0),
                                              tick=reported.is_set)

        threads = [threading.Thread(target=fn) for fn in (sibling, dies)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(FOREVER)
            assert not thread.is_alive()
        outcome = result["outcome"]
        assert (outcome.kind, outcome.exitcode) == ("died", 3)
        assert result["elapsed"] < 2.0
        assert result["sibling"].kind == "cancelled"


class TestOrphanRule:
    def test_a_task_child_exits_with_its_parent(self, orphans):
        pids = orphans.after_sigkill(
            "import os, time\n"
            "from repro.core import proc\n"
            "def work():\n"
            "    print(os.getpid(), flush=True)\n"
            "    time.sleep(60)\n"
            "proc.run_task(work)\n")
        assert len(pids) == 1
        assert orphans.survivors(pids, within=5.0) == []

    def test_the_rule_cascades_to_grandchildren(self, orphans):
        pids = orphans.after_sigkill(
            "import os, time\n"
            "from repro.core import proc\n"
            "def inner():\n"
            "    print(os.getpid(), flush=True)\n"
            "    time.sleep(60)\n"
            "def outer():\n"
            "    print(os.getpid(), flush=True)\n"
            "    proc.run_task(inner)\n"
            "proc.run_task(outer)\n", lines=2)
        assert len(pids) == 2
        assert orphans.survivors(pids, within=5.0) == []

    def test_a_sweep_takes_its_chunk_children_down(self, orphans):
        # S1/S2 fan chunks out below the experiment child; a --timeout
        # kill or a service cancel of that child must not leave them
        # integrating (a ProcessPoolExecutor's workers did).
        pids = orphans.after_sigkill(
            "import os, time\n"
            "from repro.experiments import sweep\n"
            "from repro.fluid.scenario import FluidScenario\n"
            "def slow(*chunk):\n"
            "    print(os.getpid(), flush=True)\n"
            "    time.sleep(60)\n"
            "sweep._run_chunk = slow\n"
            "sweep.sweep_fluid([FluidScenario(), FluidScenario()],\n"
            "                  jobs=2, chunk=1)\n", lines=2)
        assert len(pids) == 2
        assert orphans.survivors(pids, within=proc.GRACE) == []

