"""Shared fixtures for the PELS reproduction test suite."""

from __future__ import annotations

import os
import random
import select
import signal
import subprocess
import sys
import tempfile
import time
from typing import List

import pytest

from repro.core.session import PelsScenario, PelsSimulation
from repro.live.session import LiveConfig, SimulatedSession
from repro.sim.engine import Simulator

try:
    from hypothesis import settings
except ImportError:  # the live-load CI job installs no hypothesis
    pass
else:
    #: ``pytest --hypothesis-profile=ci``: the depth CI runs the
    #: differential and peek properties at (tier-1 keeps the default).
    settings.register_profile("ci", max_examples=2000, deadline=None)


def pytest_addoption(parser) -> None:
    parser.addoption(
        "--live", action="store_true", default=False,
        help="run wall-clock loopback tests (real UDP sockets, repro.live)")
    parser.addoption(
        "--shuffle-seed", type=int, default=None, metavar="N",
        help="deterministically shuffle test order with this seed "
             "(order-dependence smoke test; CI uses pytest-randomly)")


def pytest_collection_modifyitems(config, items) -> None:
    """Skip ``live``-marked tests unless ``--live`` was passed, and
    optionally shuffle the collection order.

    Tier-1 stays fast and deterministic; the live tests bind real
    sockets and sleep real seconds, so they are opt-in (the CI ``live``
    job runs ``pytest --live -m live``).

    ``--shuffle-seed N`` reorders the collected items with a private
    ``random.Random(N)`` — a no-install stand-in for pytest-randomly
    that flushes out hidden inter-test state (module-level caches,
    leaked registries).  Same seed, same order, so a failure found
    shuffled is reproducible.
    """
    seed = config.getoption("--shuffle-seed")
    if seed is not None:
        random.Random(seed).shuffle(items)
    if config.getoption("--live"):
        return
    skip_live = pytest.mark.skip(reason="needs --live (wall-clock UDP test)")
    for item in items:
        if "live" in item.keywords:
            item.add_marker(skip_live)


def pytest_report_header(config) -> list[str]:
    seed = config.getoption("--shuffle-seed")
    if seed is None:
        return []
    return [f"shuffle-seed: {seed} (test order deterministically shuffled)"]


@pytest.fixture
def sim() -> Simulator:
    """A fresh seeded simulator."""
    return Simulator(seed=123)


@pytest.fixture(scope="session")
def converged_two_flow() -> PelsSimulation:
    """A converged 2-flow PELS run shared by read-only integration tests.

    Session-scoped because it takes ~1.5 s to simulate; tests must not
    mutate it.
    """
    scenario = PelsScenario(n_flows=2, duration=40.0, seed=7)
    return PelsSimulation(scenario).run()


@pytest.fixture(scope="session")
def converged_four_flow() -> PelsSimulation:
    """A converged 4-flow PELS run (p* ~ 7.4%) for integration tests."""
    scenario = PelsScenario(n_flows=4, duration=60.0, seed=11)
    return PelsSimulation(scenario).run()


#: Binary fractions, so every instant of a simulated live session is
#: exact: the pacer wheel's tick, 8 ticks per Eq. 11 epoch (T = 1/32 s),
#: 32 epochs a second, and a backlog timer of half a tick.
TICK = 1 / 256


@pytest.fixture(scope="session")
def loopback():
    """``loopback(delay, **config)``: a whole live stack (server ->
    router -> client -> ACKs) on a Simulator, on the clock above, each
    hop ``delay`` simulated seconds long.  Cross traffic is the
    server's own CBR at one 500-byte datagram per tick on average
    (1.024 mb/s), which keeps the Internet FIFO backlogged so WRR holds
    PELS to its share."""
    return lambda delay=0.0, **overrides: SimulatedSession(LiveConfig(
        feedback_interval=TICK * 8, pace_tick=TICK, service_tick=TICK / 2,
        cbr_rate_bps=1_024_000.0, seed=1, **overrides), delay)


class OrphanProbe:
    """Did a process outlive the death of its owner?  (Linux ``/proc``.)"""

    def __init__(self) -> None:
        self._owners: List[subprocess.Popen] = []

    @staticmethod
    def gone(pid: int) -> bool:
        """No such process, or only its zombie (an orphan's exit status
        waits on whatever reaper the container has; it runs nothing)."""
        try:
            with open(f"/proc/{pid}/stat") as handle:
                return handle.read().rpartition(")")[2].split()[0] == "Z"
        except OSError:
            return True

    def survivors(self, pids: List[int], within: float) -> List[int]:
        """The pids still running ``within`` seconds from now (polled,
        so the common case returns at once); they are killed, so a
        failing assertion leaks nothing into the rest of the session."""
        deadline = time.monotonic() + within
        while True:
            left = [pid for pid in pids if not self.gone(pid)]
            if not left or time.monotonic() > deadline:
                break
            time.sleep(0.01)
        for pid in left:
            os.kill(pid, signal.SIGKILL)
        return left

    def after_sigkill(self, code: str, lines: int = 1,
                      within: float = 30.0) -> List[int]:
        """Run ``code`` in a fresh interpreter until it has printed
        ``lines`` lines of pids (its descendants'), SIGKILL it, and
        return those pids.

        A script that has not printed them ``within`` seconds (it
        raised, say, and now waits at exit on the non-daemonic children
        that hold its stdout) fails the test with its stderr, after its
        whole process group — the script and everything it started —
        is killed."""
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        out = b""
        deadline = time.monotonic() + within
        with tempfile.TemporaryFile() as stderr:
            owner = subprocess.Popen([sys.executable, "-c", code], env=env,
                                     stdout=subprocess.PIPE, stderr=stderr,
                                     start_new_session=True)
            self._owners.append(owner)
            while out.count(b"\n") < lines:
                left = deadline - time.monotonic()
                ready = left > 0 and \
                    select.select([owner.stdout], [], [], left)[0]
                chunk = os.read(owner.stdout.fileno(), 4096) if ready \
                    else b""
                if not chunk:  # deadline or EOF
                    os.killpg(owner.pid, signal.SIGKILL)
                    owner.wait(timeout=30.0)
                    stderr.seek(0)
                    pytest.fail(f"the script printed {out!r} in "
                                f"{within:.0f} s; stderr:\n"
                                f"{stderr.read().decode()}")
                out += chunk
        pids = [int(token) for line in out.splitlines()[:lines]
                for token in line.split()]
        owner.kill()
        owner.wait(timeout=30.0)
        return pids

    def close(self) -> None:
        for owner in self._owners:
            owner.kill()
            owner.wait(timeout=30.0)
            owner.stdout.close()


@pytest.fixture
def orphans():
    probe = OrphanProbe()
    yield probe
    probe.close()
