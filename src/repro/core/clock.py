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
* :class:`SelectorClock` — ``now`` from ``time.monotonic`` (origin at
  construction, immune to NTP steps), both timer calls on its own heap
  and fd readers and writers on one selector, run by its own
  :meth:`~SelectorClock.run`: every live process — a router shard, the
  load generator (server, client, gateway, supervisor) and the
  loopback session, each socket served by a :class:`DatagramEndpoint`
  or a shard's own reader — and ``pels serve``, whose HTTP connections
  and WebSocket tails are its readers, writers and timers, so no
  process of the repo runs an asyncio loop;
* :class:`WallClock` — the same ``now``, both timer calls on the
  running asyncio loop (imported at the first of them): left only for
  the perf ledger's router probe and the tests that drive a component
  on asyncio's own loop;
* :class:`ManualClock` — ``now`` only, hand-advanced: enough for the
  synchronous steps (``advance``, ``close_epoch``, ``tick``) of a
  component that is never started.

A ``SelectorClock`` and a ``Simulator`` both ``run(until=t)``, each in
its own time.  Datagrams cross sockets served by
:class:`DatagramEndpoint` on a ``SelectorClock``, and a :class:`SimNet`
on a ``Simulator``: the live endpoints see the same transport on both.
"""

from __future__ import annotations

import time
from heapq import heappop, heappush
from typing import NamedTuple, Optional, Protocol, runtime_checkable

__all__ = ["Clock", "WallClock", "SelectorClock", "DatagramEndpoint",
           "SimNet", "ManualClock"]


@runtime_checkable
class Clock(Protocol):
    """Anything exposing monotonic seconds as ``.now``.

    Satisfied structurally by :class:`~repro.sim.engine.Simulator`
    (virtual time), :class:`SelectorClock` and :class:`WallClock` (real
    time) and :class:`ManualClock` (test time) — callers holding a
    ``Clock`` cannot tell which world they run in, which is the point.
    A started live component also arms timers on it
    (``call_later``/``call_at``, see the module docstring), which all
    but the last provide.
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
    calls need a running event loop; asyncio is imported at the first
    of them, so a clock that only reads ``now`` (the gateway's, say)
    loads none of it.  Its remaining timer users are the perf ledger's
    router probe and the tests that drive a component on asyncio's own
    loop; every live process and ``pels serve`` run on
    :class:`SelectorClock`.
    """

    __slots__ = ("_origin", "_running_loop")

    def __init__(self) -> None:
        self._origin = time.monotonic()
        self._running_loop = None

    @property
    def now(self) -> float:
        return time.monotonic() - self._origin

    def _loop(self):
        if self._running_loop is None:
            from asyncio import get_running_loop

            self._running_loop = get_running_loop
        return self._running_loop()

    def call_later(self, delay: float, fn, *args) -> None:
        """Run ``fn(*args)`` ``delay`` seconds from now."""
        self._loop().call_later(delay, fn, *args)

    def call_at(self, when: float, fn, *args) -> None:
        """Run ``fn(*args)`` at clock time ``when``.

        The loop's own clock has another origin, so the deadline is
        translated through the time left until it; one already past
        fires on the next loop iteration.
        """
        self._loop().call_later(when - self.now, fn, *args)


class SelectorClock:
    """Real time since construction, timers on a heap, fds on a selector.

    A real-time driver with the :class:`~repro.sim.engine.Simulator`'s
    timer contract and nothing else: ``now`` as :class:`WallClock`
    reads it, ``call_later``/``call_at`` push ``(when, seq, fn, args)``
    on one heap, ``add_reader(fd, fn)`` registers ``fn()`` to run when
    ``fd`` is readable and ``add_writer(fd, fn)`` when it is writable
    (one fd may carry one of each).  :meth:`run` turns until
    :meth:`stop` (or a given clock time): each turn is one ``select``
    with the time left to the earliest deadline as its timeout, then
    the ready fds (an fd's reader before its writer), then the timers
    that were due when the ``select`` returned.  :meth:`close`
    releases the selector.

    The ordering is asyncio's: a timer armed during a turn waits for
    the next ``select`` even if its deadline has passed, so a chain of
    zero-delay timers cannot starve a readable fd; equal deadlines fire
    in the order they were armed.  A callback that raises ends
    :meth:`run` with that exception; nothing is logged and skipped.
    ``selectors`` is imported on construction, so the simulator's
    import of this module does not load it.
    """

    __slots__ = ("_origin", "_heap", "_seq", "_selector", "_events",
                 "_running")

    def __init__(self) -> None:
        from selectors import EVENT_READ, EVENT_WRITE, DefaultSelector

        self._origin = time.monotonic()
        self._heap: list = []
        self._seq = 0
        self._selector = DefaultSelector()
        self._events = (EVENT_READ, EVENT_WRITE)
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
        self._watch(fd, 0, fn)

    def remove_reader(self, fd: int) -> None:
        """Stop reading ``fd``; a no-op if it is not read."""
        self._watch(fd, 0, None)

    def add_writer(self, fd: int, fn) -> None:
        """Run ``fn()`` on every turn that finds ``fd`` writable."""
        self._watch(fd, 1, fn)

    def remove_writer(self, fd: int) -> None:
        """Stop writing ``fd``; a no-op if it is not written."""
        self._watch(fd, 1, None)

    def _watch(self, fd: int, which: int, fn) -> None:
        """Set ``fd``'s reader (``which`` 0) or writer (1) to ``fn``.

        An fd's key holds one ``[reader, writer]`` list, changed in
        place, so a callback removed during a turn does not run later
        in it.
        """
        selector = self._selector
        try:
            callbacks = selector.get_key(fd).data
        except (KeyError, ValueError):
            if fn is not None:
                callbacks = [None, None]
                callbacks[which] = fn
                selector.register(fd, self._events[which], callbacks)
            return
        callbacks[which] = fn
        read, write = self._events
        events = (read if callbacks[0] else 0) | (write if callbacks[1] else 0)
        if events:
            selector.modify(fd, events, callbacks)
        else:
            selector.unregister(fd)

    def close(self) -> None:
        """Release the selector; the driver cannot run again."""
        self._selector.close()

    def stop(self) -> None:
        """End :meth:`run` once the running callback returns; timers
        not yet run stay armed for the next :meth:`run`."""
        self._running = False

    def run(self, until: Optional[float] = None) -> None:
        """Turn until :meth:`stop` — or, given ``until``, a stop timer
        armed for that clock time — as a ``Simulator`` runs until the
        time it is given; a callback's exception propagates."""
        if until is not None:
            self.call_at(until, self.stop)
        heap = self._heap
        select, monotonic = self._selector.select, time.monotonic
        origin = self._origin
        read, write = self._events
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
                for key, events in ready:
                    callbacks = key.data
                    if events & read and callbacks[0] is not None:
                        callbacks[0]()
                    if events & write and callbacks[1] is not None \
                            and self._running:
                        callbacks[1]()
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


class DatagramEndpoint:
    """A UDP socket served by a :class:`SelectorClock`, with asyncio's
    ``DatagramTransport`` contract towards its protocol.

    The protocol is anything with ``connection_made(transport)``,
    ``datagram_received(data, addr)`` and ``error_received(exc)``;
    ``connection_made(self)`` is called on construction.  Each turn
    that finds the socket readable makes one ``recvfrom``, as asyncio
    does.  :meth:`sendto` sends at once; a datagram the kernel refuses
    with EAGAIN is queued, not lost, and the queue is flushed in order
    from a writer callback that is removed once it empties (while it
    holds anything, later datagrams queue behind it).  Any other
    ``OSError``, on either path, goes to ``error_received``.
    :meth:`close` removes both callbacks, drops what is still queued
    and closes the socket.
    """

    __slots__ = ("_clock", "_sock", "_fd", "_protocol", "_queue")

    #: Largest datagram one ``recvfrom`` takes (asyncio's too).
    MAX_SIZE = 256 * 1024

    def __init__(self, clock: SelectorClock, sock, protocol) -> None:
        sock.setblocking(False)
        self._clock = clock
        self._sock = sock
        self._fd = sock.fileno()
        self._protocol = protocol
        self._queue: list = []
        clock.add_reader(self._fd, self._on_readable)
        protocol.connection_made(self)

    def get_extra_info(self, name: str, default=None):
        """``"sockname"``, as asyncio names it."""
        return self._sock.getsockname() if name == "sockname" else default

    def _on_readable(self) -> None:
        try:
            data, addr = self._sock.recvfrom(self.MAX_SIZE)
        except (BlockingIOError, InterruptedError):
            return
        except OSError as exc:
            self._protocol.error_received(exc)
            return
        self._protocol.datagram_received(data, addr)

    def sendto(self, data, addr) -> None:
        """Send one datagram to ``addr`` now, or queue it behind EAGAIN."""
        if not self._queue:
            try:
                self._sock.sendto(data, addr)
                return
            except (BlockingIOError, InterruptedError):
                self._clock.add_writer(self._fd, self._flush)
            except OSError as exc:
                self._protocol.error_received(exc)
                return
        self._queue.append((bytes(data), addr))

    def _flush(self) -> None:
        """Writer callback: send the queue in order until EAGAIN."""
        queue = self._queue
        while queue:
            data, addr = queue[0]
            try:
                self._sock.sendto(data, addr)
            except (BlockingIOError, InterruptedError):
                return
            except OSError as exc:
                self._protocol.error_received(exc)
            del queue[0]
        self._clock.remove_writer(self._fd)

    def close(self) -> None:
        """Stop serving the socket and close it; the queue is dropped."""
        self._clock.remove_reader(self._fd)
        self._clock.remove_writer(self._fd)
        self._queue.clear()
        self._sock.close()


class SimNet:
    """Address-routed datagrams on a :class:`~repro.sim.engine.Simulator`:
    what the loopback interface is to :class:`DatagramEndpoint`.

    :meth:`attach` gives a datagram protocol an address and calls its
    ``connection_made`` with a transport whose ``sendto(data, addr)``
    hands ``data`` to ``datagram_received(data, sender)`` of whichever
    protocol holds ``addr`` ``delay`` seconds later.  A datagram to an
    address nobody holds by then (never attached, or :meth:`detach` ed
    as a killed shard's is) vanishes, as it does on a dead port.  No
    socket and no sleep: a run on it is a pure function of its inputs.
    """

    def __init__(self, sim, delay: float = 0.0) -> None:
        self.sim, self.delay = sim, delay
        self._receivers: dict = {}
        self._ports = 0

    def attach(self, protocol, host: str = "127.0.0.1") -> tuple:
        """Put ``protocol`` on the net at the next port of ``host``;
        returns the address."""
        self._ports += 1
        addr = (host, self._ports)
        self._receivers[addr] = protocol.datagram_received
        protocol.connection_made(_SimPort(self, addr))
        return addr

    def detach(self, addr: tuple) -> None:
        """Take ``addr`` off the net; a no-op if nobody holds it."""
        self._receivers.pop(addr, None)

    def _deliver(self, data: bytes, sender: tuple, addr: tuple) -> None:
        receive = self._receivers.get(addr)
        if receive is not None:
            receive(data, sender)


class _SimPort(NamedTuple):
    """An attached protocol's transport on a :class:`SimNet`."""

    net: SimNet
    addr: tuple

    def sendto(self, data, addr) -> None:
        net = self.net
        net.sim.call_later(net.delay, net._deliver, bytes(data), self.addr,
                           addr)


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
