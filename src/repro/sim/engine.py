"""Discrete-event simulation engine.

This module is the foundation of the ns2-substitute simulator used by the
PELS reproduction.  It provides a classic event-heap design, tuned for
dispatch throughput:

* :class:`Simulator` owns the virtual clock and the event heap.  Heap
  entries are plain ``[time, seq, callback, args]`` lists so that heap
  sifting compares floats and ints natively in C instead of calling a
  generated dataclass ``__lt__``.
* :class:`Event` is a small handle wrapping a heap entry; cancellation
  nulls the entry's callback slot (lazy deletion) and the dispatcher
  skips nulled entries.  When cancelled entries outnumber live ones the
  heap is compacted eagerly, so pathological cancel-heavy workloads
  (e.g. per-ACK TCP timer re-arming) cannot grow the heap unboundedly.
* :class:`Process` is a tiny convenience base class for components that
  need a reference to the simulator and periodic timers.

Hot paths that never cancel their events should use
:meth:`Simulator.call_later` / :meth:`Simulator.call_at`, which skip the
handle allocation entirely.

Time is measured in seconds (float).  Determinism is guaranteed by a
monotonically increasing sequence number that breaks ties between events
scheduled for the same instant, and by requiring all randomness to flow
through :attr:`Simulator.rng` (a seeded ``random.Random``).
"""

from __future__ import annotations

import heapq
import itertools
import random
import sys
from heapq import heapify as _heapify, heappop as _heappop, heappush as _heappush
from typing import Any, Callable, Optional

from ..obs.trace import current_tracer as _current_tracer

__all__ = ["Event", "Simulator", "Process", "SimulationError"]

_INF = float("inf")

# Heap entry layout (a list so cancellation can null the callback slot
# in place): index of each field.
_TIME, _SEQ, _CALLBACK, _ARGS = 0, 1, 2, 3

#: Minimum number of cancelled entries before an eager heap compaction
#: is considered; below this the lazy-deletion path is cheaper.
_DRAIN_MIN = 64


class SimulationError(RuntimeError):
    """Raised on invalid scheduling operations (e.g. scheduling in the past)."""


class Event:
    """Handle for a scheduled callback, supporting cancellation.

    Events are ordered by ``(time, seq)`` so that simultaneous events
    fire in scheduling order, which keeps runs reproducible.  The handle
    wraps the underlying heap entry; :meth:`cancel` marks the entry so
    the dispatcher skips it (lazy deletion).
    """

    __slots__ = ("_sim", "_entry", "cancelled")

    def __init__(self, sim: "Simulator", entry: list) -> None:
        self._sim = sim
        self._entry = entry
        self.cancelled = False

    @property
    def time(self) -> float:
        """Scheduled firing time."""
        return self._entry[_TIME]

    @property
    def seq(self) -> int:
        """Tie-breaking sequence number (scheduling order)."""
        return self._entry[_SEQ]

    def cancel(self) -> None:
        """Mark the event so the dispatcher skips it (lazy deletion).

        Idempotent; cancelling an event that already fired is a no-op.
        """
        if self.cancelled:
            return
        self.cancelled = True
        entry = self._entry
        if entry[_CALLBACK] is not None:
            entry[_CALLBACK] = None
            self._sim._note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self._entry[_TIME]:.6f} seq={self._entry[_SEQ]} {state}>"


class Simulator:
    """Event-heap discrete-event simulator.

    Parameters
    ----------
    seed:
        Seed for the simulator-owned random number generator.  Every
        stochastic component must draw from :attr:`rng` (or a generator
        split from it) so that a run is fully determined by its seed.
    """

    def __init__(self, seed: int = 1) -> None:
        self._heap: list[list] = []
        # Plain int rather than itertools.count(): the two hot schedule
        # paths below bump it inline, saving a builtin call per event.
        self._seq = 0
        self._stale = 0  # cancelled entries still sitting in the heap
        self.now = 0.0
        self._running = False
        self.rng = random.Random(seed)
        self.events_dispatched = 0
        self._id_counters: dict = {}
        # Opt-in observability, captured at construction time (off by
        # default).  The active tracer gets this simulator as its clock
        # so sim-less components (queues, schedulers) can stamp events.
        self.tracer = _current_tracer()
        if self.tracer is not None:
            self.tracer.bind_clock(self)

    def next_id(self, namespace: str = "node", start: int = 0) -> int:
        """Allocate a monotonically increasing id in ``namespace``.

        Per-simulator (rather than process-global) so ids embedded in
        reports — node ids, router feedback ids — are a function of the
        scenario alone, identical across serial runs and ``--jobs``
        worker processes.  ``start`` seeds the namespace on first use.
        """
        counter = self._id_counters.get(namespace)
        if counter is None:
            counter = self._id_counters[namespace] = itertools.count(start)
        return next(counter)

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Returns the :class:`Event` handle, which may later be cancelled.
        Callers that never cancel should prefer :meth:`call_later`,
        which skips the handle allocation.
        """
        if not delay >= 0:  # negative — or NaN, which would unorder the heap
            raise SimulationError(
                f"cannot schedule {delay:.6f}s from now: in the past or NaN")
        seq = self._seq
        self._seq = seq + 1
        entry = [self.now + delay, seq, callback, args]
        _heappush(self._heap, entry)
        return Event(self, entry)

    def schedule_at(self, when: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute time ``when``."""
        return self.schedule(when - self.now, callback, *args)

    def call_later(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule` without an :class:`Event` handle.

        The fast path for hot components (links, sources) whose events
        are never cancelled.
        """
        if not delay >= 0:  # negative — or NaN, which would unorder the heap
            raise SimulationError(
                f"cannot schedule {delay:.6f}s from now: in the past or NaN")
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._heap, [self.now + delay, seq, callback, args])

    def call_at(self, when: float, callback: Callable[..., None], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule_at` without an :class:`Event` handle."""
        self.call_later(when - self.now, callback, *args)

    def _note_cancel(self) -> None:
        """Account a cancellation; compact the heap when mostly stale."""
        self._stale += 1
        if self._stale >= _DRAIN_MIN and self._stale * 2 > len(self._heap):
            self._drain_cancelled()

    def _drain_cancelled(self) -> None:
        """Eagerly remove cancelled entries and re-heapify.

        Compacts in place: the dispatch loop and callers hold aliases to
        the heap list, so rebinding ``self._heap`` would strand them on
        a stale snapshot.
        """
        heap = self._heap
        heap[:] = [e for e in heap if e[_CALLBACK] is not None]
        _heapify(heap)
        self._stale = 0

    def peek_time(self) -> Optional[float]:
        """Time of the next pending (non-cancelled) event, or ``None``."""
        heap = self._heap
        while heap and heap[0][_CALLBACK] is None:
            _heappop(heap)
            self._stale -= 1
        return heap[0][_TIME] if heap else None

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Dispatch events until the heap empties or limits are reached.

        Parameters
        ----------
        until:
            Stop once the clock would pass this time.  The clock is
            advanced to ``until`` when the simulation ends early.
        max_events:
            Safety valve for runaway simulations.
        """
        heap = self._heap
        pop = _heappop
        push = _heappush
        stop = _INF if until is None else until
        budget = sys.maxsize if max_events is None else max_events
        dispatched = 0
        self._running = True
        try:
            while heap:
                entry = pop(heap)
                event_time, _, callback, args = entry
                if callback is None:
                    self._stale -= 1
                    continue
                if event_time > stop:
                    # Put it back for a later run() call and stop.
                    push(heap, entry)
                    self.now = stop
                    return
                self.now = event_time
                # Null the slot so a late cancel() of this handle is
                # a no-op instead of corrupting the pending count.
                entry[_CALLBACK] = None
                callback(*args)
                dispatched += 1
                if dispatched >= budget:
                    return
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._running = False
            self.events_dispatched += dispatched

    def pending(self) -> int:
        """Number of non-cancelled events still queued (O(1))."""
        return len(self._heap) - self._stale


class Process:
    """Base class for simulation components that schedule events.

    Subclasses receive the simulator and a name; :meth:`every` arranges a
    periodic callback that keeps rescheduling itself until cancelled via
    the returned handle.
    """

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self.sim = sim
        self.name = name or self.__class__.__name__

    def every(self, period: float, callback: Callable[[], None],
              start_delay: Optional[float] = None) -> "PeriodicTimer":
        """Run ``callback`` every ``period`` seconds until stopped."""
        return PeriodicTimer(self.sim, period, callback,
                             start_delay if start_delay is not None else period)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.__class__.__name__} {self.name!r}>"


class PeriodicTimer:
    """Self-rescheduling timer; created through :meth:`Process.every`."""

    __slots__ = ("sim", "period", "callback", "_stopped", "_event", "_fire_cb")

    def __init__(self, sim: Simulator, period: float,
                 callback: Callable[[], None], start_delay: float) -> None:
        if period <= 0:
            raise SimulationError("timer period must be positive")
        self.sim = sim
        self.period = period
        self.callback = callback
        self._stopped = False
        self._fire_cb = self._fire
        self._event = sim.schedule(start_delay, self._fire_cb)

    def _fire(self) -> None:
        if self._stopped:
            return
        self.callback()
        if not self._stopped:
            self._event = self.sim.schedule(self.period, self._fire_cb)

    def stop(self) -> None:
        """Stop the timer; no further callbacks fire."""
        self._stopped = True
        self._event.cancel()
