"""The clock abstraction shared by the simulator and the live stack.

Every control-plane component in this reproduction — the MKC rate
controller (Eq. 8), the gamma controller (Eq. 4), the feedback
freshness tracker (Section 5.2) and the Eq. 11 virtual-loss computer —
is a pure function of the loss samples and timestamps it is handed.
None of them schedules events or reads a global clock; they take ``now``
as an argument.  That contract is what lets the same controller objects
run both inside the discrete-event :class:`~repro.sim.engine.Simulator`
and against the wall clock in :mod:`repro.live`.

The clock is also the one place the live components keep time.  The
router's Eq. 11 epoch and backlog timer, the sender's pacer wheel and
cross traffic, and the shard supervisor's poll are steps re-armed with
two fire-and-forget calls — ``call_later(delay, fn, *args)`` and
``call_at(when, fn, *args)``, ``when`` in the clock's own time — so who
drives them is whoever the clock is.  Four implementations, each
satisfying what it can:

* :class:`~repro.sim.engine.Simulator` — ``now`` and both timer calls,
  on its event heap in virtual time: a live stack on a simulator clock
  runs deterministically, with no socket and no sleep;
* :class:`WallClock` — ``now`` from ``time.monotonic`` (origin at
  construction, immune to NTP steps) and both timer calls on the
  running asyncio loop: the server, client, gateway, load generator
  and single-process session;
* :class:`SelectorClock` — the same ``now``, with both timer calls on
  its own heap and readers on one selector, run by its own
  :meth:`~SelectorClock.run`: a router shard process, which runs no
  asyncio loop;
* :class:`ManualClock` — ``now`` only, hand-advanced: enough for the
  synchronous steps (``advance``, ``close_epoch``, ``tick``) of a
  component that is never started.
"""

from __future__ import annotations

import time
from heapq import heappop, heappush
from typing import Protocol, runtime_checkable

__all__ = ["Clock", "WallClock", "SelectorClock", "ManualClock"]


@runtime_checkable
class Clock(Protocol):
    """Anything exposing monotonic seconds as ``.now``.

    Satisfied structurally by :class:`~repro.sim.engine.Simulator`
    (virtual time), :class:`WallClock` (real time) and
    :class:`ManualClock` (test time) — callers holding a ``Clock``
    cannot tell which world they run in, which is the point.  A started
    live component also arms timers on it (``call_later``/``call_at``,
    see the module docstring), which the first two provide.
    """

    @property
    def now(self) -> float:  # pragma: no cover - protocol signature
        ...


class WallClock:
    """Real time in seconds since construction, timers on asyncio.

    Backed by ``time.monotonic`` so the origin is stable under system
    clock adjustments; starting at zero keeps live timestamps in the
    same magnitude range as simulator timestamps, so series recorded
    against either clock render and compare identically.  The timer
    calls need a running event loop (asyncio is imported on first
    construction, not by the simulator's import of this module).
    """

    __slots__ = ("_origin", "_running_loop")

    def __init__(self) -> None:
        from asyncio import get_running_loop

        self._origin = time.monotonic()
        self._running_loop = get_running_loop

    @property
    def now(self) -> float:
        return time.monotonic() - self._origin

    def call_later(self, delay: float, fn, *args) -> None:
        """Run ``fn(*args)`` ``delay`` seconds from now."""
        self._running_loop().call_later(delay, fn, *args)

    def call_at(self, when: float, fn, *args) -> None:
        """Run ``fn(*args)`` at clock time ``when``.

        The loop's own clock has another origin, so the deadline is
        translated through the time left until it; one already past
        fires on the next loop iteration.
        """
        self._running_loop().call_later(when - self.now, fn, *args)


class SelectorClock:
    """Real time since construction, timers on a heap, readers on a selector.

    A real-time driver with the :class:`~repro.sim.engine.Simulator`'s
    timer contract and nothing else: ``now`` as :class:`WallClock`
    reads it, ``call_later``/``call_at`` push ``(when, seq, fn, args)``
    on one heap, and ``add_reader(fd, fn)`` registers ``fn()`` to run
    when ``fd`` is readable.  :meth:`run` turns until :meth:`stop`:
    each turn is one ``select`` with the time left to the earliest
    deadline as its timeout, then the ready readers, then the timers
    that were due when the ``select`` returned.  :meth:`close` releases
    the selector.

    The ordering is asyncio's: a timer armed during a turn waits for
    the next ``select`` even if its deadline has passed, so a chain of
    zero-delay timers cannot starve a readable fd; equal deadlines fire
    in the order they were armed.  A callback that raises ends
    :meth:`run` with that exception; nothing is logged and skipped.
    ``selectors`` is imported on construction, so the simulator's
    import of this module does not load it.
    """

    __slots__ = ("_origin", "_heap", "_seq", "_selector", "_read",
                 "_running")

    def __init__(self) -> None:
        from selectors import EVENT_READ, DefaultSelector

        self._origin = time.monotonic()
        self._heap: list = []
        self._seq = 0
        self._selector = DefaultSelector()
        self._read = EVENT_READ
        self._running = False

    @property
    def now(self) -> float:
        return time.monotonic() - self._origin

    def call_later(self, delay: float, fn, *args) -> None:
        """Run ``fn(*args)`` ``delay`` seconds from now."""
        self.call_at(time.monotonic() - self._origin + delay, fn, *args)

    def call_at(self, when: float, fn, *args) -> None:
        """Run ``fn(*args)`` at clock time ``when`` (past: next turn)."""
        self._seq += 1
        heappush(self._heap, (when, self._seq, fn, args))

    def add_reader(self, fd: int, fn) -> None:
        """Run ``fn()`` on every turn that finds ``fd`` readable."""
        self._selector.register(fd, self._read, fn)

    def remove_reader(self, fd: int) -> None:
        """Stop watching ``fd``; a no-op if it is not watched."""
        try:
            self._selector.unregister(fd)
        except (KeyError, ValueError):
            pass

    def close(self) -> None:
        """Release the selector; the driver cannot run again."""
        self._selector.close()

    def stop(self) -> None:
        """End :meth:`run` once the running callback returns; timers
        not yet run stay armed for the next :meth:`run`."""
        self._running = False

    def run(self) -> None:
        """Turn until :meth:`stop`; a callback's exception propagates."""
        heap = self._heap
        select, monotonic = self._selector.select, time.monotonic
        origin = self._origin
        due: list = []
        self._running = True
        try:
            while self._running:
                timeout = max(heap[0][0] - (monotonic() - origin), 0.0) \
                    if heap else None
                ready = select(timeout)
                end = monotonic() - origin
                while heap and heap[0][0] <= end:
                    due.append(heappop(heap))
                for key, _ in ready:
                    key.data()
                    if not self._running:
                        break
                due.reverse()
                while due and self._running:
                    _, _, fn, args = due.pop()
                    fn(*args)
        finally:
            self._running = False
            for entry in due:
                heappush(heap, entry)


class ManualClock:
    """A clock that only moves when told to (unit tests)."""

    __slots__ = ("now",)

    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def advance(self, dt: float) -> float:
        if dt < 0:
            raise ValueError("clocks do not run backwards")
        self.now += dt
        return self.now
