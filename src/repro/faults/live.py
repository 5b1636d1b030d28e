"""Fault injection for the live (wall-clock) gateway stack.

:class:`~repro.faults.schedule.FaultSchedule` can torture the
simulator; these injectors point the same deterministic machinery at
real processes and sockets.  ``FaultSchedule.install`` only needs a
``sim``-shaped object (``now``, ``call_at``, ``call_later``, ``rng``,
``tracer``), and a live run's :class:`~repro.core.clock.SelectorClock`
already schedules (``call_at`` in clock time, on its own timer heap),
so :class:`AsyncFaultDriver` is that clock plus a seeded RNG and the
tracer: schedules built for the simulator install unchanged against
wall time, and fire through the same timers as the stack they break.

The live taxonomy mirrors real operational failures:

* :class:`ShardKill` — SIGKILL a shard process (host OOM, a segfault).
  The supervisor must notice the exit and fail over.
* :class:`ShardStall` — SIGSTOP the process for a while (GC-of-death,
  a noisy neighbor stealing the core).  The process stays *alive*, so
  only the heartbeat path can catch it; SIGCONT restores it unless the
  supervisor SIGKILLed it first.
* :class:`SocketBlackhole` — re-aim selected flows' datagrams at a
  bound-but-never-read socket (a silent middlebox drop).  Senders keep
  transmitting into the void; feedback starvation and blind mode are
  the only defense.

Every injector is idempotent about already-dead processes
(``ProcessLookupError`` is swallowed): a fault firing after the
supervisor already replaced the shard is a no-op, not a crash of the
experiment harness.
"""

from __future__ import annotations

import os
import random
import signal
import socket
from typing import List, Optional, Sequence, Tuple

from ..core.clock import Clock
from ..obs.trace import current_tracer
from .schedule import Fault

__all__ = ["AsyncFaultDriver", "ShardKill", "ShardStall",
           "SocketBlackhole"]


class AsyncFaultDriver:
    """A ``Simulator``-shaped view of a live clock, for fault schedules.

    ``FaultSchedule.install`` and the injectors' ``apply`` only touch
    ``sim.now`` / ``sim.call_at`` / ``sim.call_later`` / ``sim.rng`` /
    ``sim.tracer``: the first three are the clock's own, the driver
    adds the other two.  Schedule times are clock times (a
    :class:`~repro.core.clock.WallClock` reads 0 at construction, so
    "kill at t=6" means six wall seconds after the clock was built; one
    already past fires at once).  A fault still armed when the run's
    clock stops for good never fires.
    """

    def __init__(self, clock: Clock, seed: int = 0) -> None:
        self.clock = clock
        self.call_at = clock.call_at
        self.call_later = clock.call_later
        self.rng = random.Random(seed)
        self.tracer = current_tracer()

    @property
    def now(self) -> float:
        return self.clock.now


def _kill(pid: Optional[int], sig: int) -> bool:
    if pid is None:
        return False
    try:
        os.kill(pid, sig)
        return True
    except ProcessLookupError:
        return False


class ShardKill(Fault):
    """SIGKILL the shard process currently occupying a pool slot.

    ``shards`` is the *live* list (``gateway.shards``), resolved at
    fire time — if a failover already swapped the slot, the kill hits
    whichever process holds it now, exactly as a real host fault would.
    """

    def __init__(self, shards: Sequence, index: int) -> None:
        self.shards = shards
        self.index = index

    def apply(self, sim) -> None:
        shard = self.shards[self.index]
        _kill(getattr(shard, "pid", None), signal.SIGKILL)

    def describe(self) -> str:
        return f"shard-kill:slot{self.index}"


class ShardStall(Fault):
    """SIGSTOP a shard for ``duration`` seconds (then SIGCONT).

    The process never exits, so crash detection stays silent — only
    heartbeat silence gives it away.  The SIGCONT is skipped if the
    process is gone by then (the supervisor SIGKILLs hung shards).
    With ``duration=None`` the stall is permanent.
    """

    def __init__(self, shards: Sequence, index: int,
                 duration: Optional[float] = 2.0) -> None:
        if duration is not None and duration <= 0:
            raise ValueError("stall duration must be positive")
        self.shards = shards
        self.index = index
        self.duration = duration

    def apply(self, sim) -> None:
        shard = self.shards[self.index]
        pid = getattr(shard, "pid", None)
        if _kill(pid, signal.SIGSTOP) and self.duration is not None:
            sim.call_later(self.duration, _kill, pid, signal.SIGCONT)

    def describe(self) -> str:
        span = "forever" if self.duration is None else f"{self.duration}s"
        return f"shard-stall:slot{self.index}:{span}"


class SocketBlackhole(Fault):
    """Silently swallow selected flows' downstream traffic.

    Re-aims each flow's shard-bound datagrams at a socket this fault
    binds and never reads — from the sender's perspective the path
    simply stops acknowledging (no ICMP, no error).  After
    ``duration`` seconds the original destination is restored, but
    only for flows still pointing at the hole: a flow the supervisor
    re-homed mid-blackhole keeps its new (correct) destination.
    """

    def __init__(self, server, flow_ids: Sequence[int],
                 duration: float = 2.0) -> None:
        if duration <= 0:
            raise ValueError("blackhole duration must be positive")
        self.server = server
        self.flow_ids = list(flow_ids)
        self.duration = duration
        self._hole: Optional[socket.socket] = None

    def apply(self, sim) -> None:
        self._hole = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._hole.bind(("127.0.0.1", 0))
        hole_addr = self._hole.getsockname()
        saved: List[Tuple[int, tuple]] = []
        for flow_id in self.flow_ids:
            flow = self.server.flows.get(flow_id)
            if flow is None:
                continue
            saved.append((flow_id, flow.dst_addr))
            self.server.retarget_flow(flow_id, hole_addr)
        sim.call_later(self.duration, self._restore, hole_addr, saved)

    def _restore(self, hole_addr, saved) -> None:
        for flow_id, old_addr in saved:
            flow = self.server.flows.get(flow_id)
            if flow is not None and flow.dst_addr == tuple(hole_addr):
                self.server.retarget_flow(flow_id, old_addr)
        if self._hole is not None:
            self._hole.close()
            self._hole = None

    def describe(self) -> str:
        return f"socket-blackhole:{len(self.flow_ids)}flows:{self.duration}s"
