"""One supervised-child primitive: spawn, orphan rule, reap.

Every place that runs work in a child process — the runner's isolation
children, the service's workers and their job children, SV1's direct
runs, the live router shards — makes the same three decisions, so they
are made here once (``docs/architecture.md``, "Child processes", has
the long form).

**Spawn** (:func:`spawn`): ``fork`` where the platform has it, one
duplex pipe per child, and the only holders of a pipe are the two
processes it connects — so EOF means what it says.  **Orphan rule**: a
child whose parent's end closes exits; shards see the EOF in their
event loop, everything else calls :func:`exit_with_parent`.  **Reap**
(:meth:`Child.reap`): wait, SIGTERM, SIGKILL, each rung bounded by
``GRACE``; the exit code is read last.  **Wake** (:meth:`Child.wake`):
one byte down the same pipe, never blocking, which the child's
parent-watch thread turns into a ``threading.Event``.

:func:`run_task` is the task shape on top: ``fn(*args)`` in a
disposable child, an :class:`Outcome` back.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from multiprocessing.connection import Connection
from typing import Any, Callable, NamedTuple, Optional, Set, Tuple

__all__ = ["GRACE", "SLICE", "ORPHAN_EXIT", "Child", "Outcome", "spawn",
           "run_task", "exit_with_parent"]

#: Seconds each rung of :meth:`Child.reap` waits before escalating.
GRACE = 2.0
#: Babysitting slice of :func:`run_task`: the cadence of ``tick()`` and
#: of the deadline check (a result or a death wakes it immediately).
SLICE = 0.1
#: Exit code of a child that stopped because its parent vanished.
ORPHAN_EXIT = 2

# Process-wide on purpose: fork duplicates the whole descriptor table,
# so which ends are open — and who may fork right now — is a fact about
# the process, not about any one caller.
_spawn_lock = threading.Lock()
_parent_ends: Set[Connection] = set()


def _bootstrap(conn: Connection, target: Callable[..., None],
               args: Tuple) -> None:
    """Child entry: drop inherited parent ends, then run the target.

    Under ``fork`` this process holds copies of every parent end open
    at the time (its own pipe's and its siblings'), plus the spawn lock
    in its held state; under ``spawn`` both are fresh and empty.
    """
    global _spawn_lock
    for end in _parent_ends:
        end.close()
    _parent_ends.clear()
    _spawn_lock = threading.Lock()
    target(conn, *args)


class Child:
    """Parent-side handle of one supervised child."""

    def __init__(self, process, conn: Connection) -> None:
        self._process = process
        #: The parent's end of the child's duplex pipe.
        self.conn = conn

    @property
    def pid(self) -> int:
        return self._process.pid

    @property
    def alive(self) -> bool:
        return self._process.is_alive()

    @property
    def exitcode(self) -> Optional[int]:
        """The exit code (negative signal number), None while running."""
        return self._process.exitcode

    def reap(self, wait: float = 0.0) -> Optional[int]:
        """Make the child gone; returns its exit code.

        ``wait`` is how long a child that was asked to exit (through
        the caller's own protocol) or is about to (it delivered its
        result) gets before SIGTERM.  Blocks at most
        ``wait + 2 * GRACE``.
        """
        process = self._process
        process.join(wait)
        if process.is_alive():
            process.terminate()
            process.join(GRACE)
        if process.is_alive():
            process.kill()
            process.join(GRACE)
        with _spawn_lock:  # a fork must not copy a half-closed end
            self.conn.close()
            _parent_ends.discard(self.conn)
        return process.exitcode

    def kill(self) -> Optional[int]:
        """SIGKILL without asking (the child is presumed hung), reap."""
        if self._process.is_alive():
            self._process.kill()
        return self.reap(GRACE)

    def wake(self) -> None:
        """Set the event :func:`exit_with_parent` returned in the child.

        Never blocks and never raises: the token is one byte written to
        a non-blocking descriptor, so it cannot be half sent; a full
        pipe means wakes the child has not read yet, which is a pending
        wake already; a reaped or dead child has nothing to wake.
        """
        try:
            fd = self.conn.fileno()
            os.set_blocking(fd, False)
            os.write(fd, b"\0")
        except OSError:  # BlockingIOError: full; otherwise: child gone
            pass


def spawn(target: Callable[..., None], args: Tuple = (), *, daemon: bool,
          name: Optional[str] = None) -> Child:
    """Start ``target(conn, *args)`` in a child; ``conn`` is its pipe end.

    ``daemon`` children die with a normally exiting parent but may not
    have children of their own, so: shards ``True``, anything that may
    itself spawn ``False``.
    """
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
    # One step under the lock: a sibling forked between Pipe() and the
    # close below would inherit both ends, unregistered — and keep
    # this child's EOF (either direction) from ever arriving.
    with _spawn_lock:
        conn, child_conn = ctx.Pipe()
        _parent_ends.add(conn)
        process = ctx.Process(target=_bootstrap,
                              args=(child_conn, target, args),
                              daemon=daemon, name=name)
        try:
            process.start()
        except BaseException:
            _parent_ends.discard(conn)
            conn.close()
            raise
        finally:
            child_conn.close()
    return Child(process, conn)


def exit_with_parent(conn: Connection) -> threading.Event:
    """Apply the orphan rule to this (child) process.

    Starts a watcher thread that blocks on ``conn`` and ``os._exit``s
    the moment the parent's end closes — the parent was SIGKILLed, or
    reaped this child.  ``os._exit`` because the work in flight must
    stop *now*: an orphaned job must not write the artifact its
    requeued twin is about to produce.

    Anything the parent does send (:meth:`Child.wake`) sets the
    returned event; however many bytes arrived before the child looks,
    it is set once.  The child clears it before it looks for work and
    waits on it after finding none, so a wake is never lost.
    """
    wake = threading.Event()

    def watch() -> None:
        try:
            # Raw reads: tokens are single bytes, not pickled messages.
            while os.read(conn.fileno(), 4096):
                wake.set()
        except OSError:
            pass
        os._exit(ORPHAN_EXIT)

    threading.Thread(target=watch, daemon=True, name="parent-watch").start()
    return wake


class Outcome(NamedTuple):
    """How a :func:`run_task` child ended."""

    #: ``"ok"`` (``value`` is the return value), ``"died"`` (exited
    #: without delivering one: crash, raise, external kill, unpicklable
    #: value), ``"timeout"`` or ``"cancelled"``.
    kind: str
    value: Any
    exitcode: Optional[int]


def _task_main(conn: Connection, fn: Callable[..., Any],
               args: Tuple) -> None:
    exit_with_parent(conn)
    conn.send(fn(*args))


def run_task(fn: Callable[..., Any], args: Tuple = (), *,
             deadline: Optional[float] = None,
             tick: Optional[Callable[[], bool]] = None) -> Outcome:
    """Run ``fn(*args)`` in a disposable child and wait for it.

    ``deadline`` is the child's wall-clock budget in seconds (None: no
    limit).  ``tick`` is called every ``SLICE`` so the caller can
    heartbeat; returning true cancels the task.  However it ends, the
    child is reaped before this returns.
    """
    # Non-daemonic: tasks (experiments) may spawn shards and sweep chunks.
    child = spawn(_task_main, (fn, args), daemon=False)
    expires = None if deadline is None else time.monotonic() + deadline
    kind, value = "died", None
    try:
        while True:
            if tick is not None and tick():
                kind = "cancelled"
                break
            # Liveness as well as the pipe: a crashed child's own
            # descendants (a sweep chunk) may still hold its pipe end.
            if child.conn.poll(SLICE) or not child.alive:
                try:
                    if child.conn.poll():
                        # recv before join: a large value blocks the
                        # child in send() until it is read.
                        kind, value = "ok", child.conn.recv()
                except (EOFError, OSError):
                    pass
                break
            if expires is not None and time.monotonic() > expires:
                kind = "timeout"
                break
    finally:
        exitcode = child.reap(GRACE if kind == "ok" else 0.0)
    return Outcome(kind, value, exitcode)
