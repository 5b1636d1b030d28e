"""One supervised-child primitive: spawn, orphan rule, reap.

Every place that runs work in a child process — the runner's isolation
children, the service's workers and their job children, SV1's direct
runs, the live router shards — makes the same decisions, so they are
made here once (``docs/architecture.md``, "Child processes", has the
long form), on ``os.fork`` and one ``socket.socketpair`` per child.

**Spawn** (:func:`spawn`): the child's end of the socketpair is its
:class:`Channel`, and the only holders of a socketpair are the two
processes it connects — so EOF means what it says.  The child closes
the parent ends it inherited, reads stdin from ``/dev/null``, runs the
target and always leaves through ``os._exit``.  **Orphan rule**, the
one way a child ends with its parent (nothing joins children at
exit): a child whose parent's end closes exits; shards see the EOF in
their event loop, everything else calls :func:`exit_with_parent`.
**Reap** (:meth:`Child.reap`): wait, SIGTERM, SIGKILL, each rung
bounded by ``GRACE``; the exit code is read last.  **Wake**
(:meth:`Child.wake`): one byte down the same socket, never blocking,
which the child's parent-watch thread turns into a
``threading.Event``.

A message on a channel is a 4-byte length and a pickle.  ``pickle``
loads with the first one, so a process that only wakes its children
(``pels serve``) never loads it.

:func:`run_task` is the task shape on top: ``fn(*args)`` in a
disposable child, an :class:`Outcome` back.
"""

from __future__ import annotations

import os
import select
import socket
import sys
import threading
import time
from typing import Any, Callable, NamedTuple, NoReturn, Optional, Set, Tuple

__all__ = ["GRACE", "SLICE", "ORPHAN_EXIT", "Channel", "Child", "Outcome",
           "spawn", "run_task", "exit_with_parent"]

#: Seconds each rung of :meth:`Child.reap` waits before escalating.
GRACE = 2.0
#: Babysitting slice of :func:`run_task`: the cadence of ``tick()`` and
#: of the deadline check (a result or a death wakes it immediately).
SLICE = 0.1
#: Exit code of a child that stopped because its parent vanished.
ORPHAN_EXIT = 2


class Channel:
    """One end of a child's socketpair: pickled messages, each behind
    its 4-byte big-endian length."""

    def __init__(self, fd: int) -> None:
        self._fd: Optional[int] = fd

    @property
    def closed(self) -> bool:
        return self._fd is None

    def fileno(self) -> int:
        if self._fd is None:
            raise OSError("channel is closed")
        return self._fd

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def send(self, obj: Any) -> None:
        import pickle
        data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
        view = memoryview(len(data).to_bytes(4, "big") + data)
        while view:
            view = view[os.write(self.fileno(), view):]

    def recv(self) -> Any:
        """The next message; ``EOFError`` once the other end closed."""
        import pickle
        return pickle.loads(self._read(int.from_bytes(self._read(4), "big")))

    def poll(self, timeout: Optional[float] = 0.0) -> bool:
        """Whether :meth:`recv` would not block (a message or EOF),
        waiting up to ``timeout`` seconds (None: for ever)."""
        poller = select.poll()
        poller.register(self.fileno(), select.POLLIN)
        return bool(poller.poll(None if timeout is None else timeout * 1e3))

    def _read(self, size: int) -> bytes:
        chunks = []
        while size:
            chunk = os.read(self.fileno(), size)
            if not chunk:
                raise EOFError
            chunks.append(chunk)
            size -= len(chunk)
        return b"".join(chunks)


# Process-wide on purpose: fork duplicates the whole descriptor table,
# so which ends are open — and who may fork right now — is a fact about
# the process, not about any one caller.
_spawn_lock = threading.Lock()
_parent_ends: Set[Channel] = set()


def _flush_stdio() -> None:
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, ValueError, OSError):
            pass  # None, closed or broken: nothing to lose


def _child_main(conn: Channel, target: Callable[..., None],
                args: Tuple) -> NoReturn:
    """Child entry: drop inherited parent ends, run the target, exit.

    A fork holds copies of every parent end open at the time (its own
    socketpair's and its elder siblings'), plus the spawn lock in its
    held state.  The exit code is 0, ``SystemExit``'s, or 1 with the
    traceback on stderr; ``os._exit`` runs none of the parent's
    ``atexit`` work a second time.
    """
    global _spawn_lock
    code = 1
    try:
        for end in _parent_ends:
            end.close()
        _parent_ends.clear()
        _spawn_lock = threading.Lock()
        devnull = os.open(os.devnull, os.O_RDONLY)
        if devnull != 0:  # no terminal input for a background child
            os.dup2(devnull, 0)
            os.close(devnull)
        target(conn, *args)
        code = 0
    except SystemExit as exc:
        if exc.code is None:
            code = 0
        elif isinstance(exc.code, int):
            code = exc.code
        else:
            sys.stderr.write(f"{exc.code}\n")
    except BaseException:
        import traceback
        traceback.print_exc()
    finally:
        _flush_stdio()
        os._exit(code)


class Child:
    """Parent-side handle of one supervised child."""

    def __init__(self, pid: int, conn: Channel) -> None:
        self.pid = pid
        #: The parent's end of the child's socketpair.
        self.conn = conn
        self._exitcode: Optional[int] = None

    @property
    def alive(self) -> bool:
        return self.exitcode is None

    @property
    def exitcode(self) -> Optional[int]:
        """The exit code (negative signal number), None while running."""
        if self._exitcode is None:
            try:
                pid, status = os.waitpid(self.pid, os.WNOHANG)
            except ChildProcessError:  # another thread's call reaped it
                return self._exitcode
            if pid:
                self._exitcode = os.waitstatus_to_exitcode(status)
        return self._exitcode

    def reap(self, wait: float = 0.0) -> Optional[int]:
        """Make the child gone; returns its exit code.

        ``wait`` is how long a child that was asked to exit (through
        the caller's own protocol) or is about to (it delivered its
        result) gets before SIGTERM.  Blocks at most
        ``wait + 2 * GRACE``.
        """
        if self._wait(wait) is None:
            self._signal(kill=False)
            if self._wait(GRACE) is None:
                self._signal(kill=True)
                self._wait(GRACE)
        with _spawn_lock:  # a fork must not copy a half-closed end
            self.conn.close()
            _parent_ends.discard(self.conn)
        return self.exitcode

    def kill(self) -> Optional[int]:
        """SIGKILL without asking (the child is presumed hung), reap."""
        self._signal(kill=True)
        return self.reap(GRACE)

    def wake(self) -> None:
        """Set the event :func:`exit_with_parent` returned in the child.

        Never blocks and never raises: the token is one byte written to
        a non-blocking descriptor, so it cannot be half sent; a full
        socket means wakes the child has not read yet, which is a
        pending wake already; a reaped or dead child has nothing to
        wake.
        """
        try:
            fd = self.conn.fileno()
            os.set_blocking(fd, False)
            os.write(fd, b"\0")
        except OSError:  # BlockingIOError: full; otherwise: child gone
            pass

    def _wait(self, timeout: float) -> Optional[int]:
        """The exit code once the child is gone; None after ``timeout``."""
        deadline = time.monotonic() + timeout
        delay = 1e-4
        while self.exitcode is None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            time.sleep(min(delay, remaining))
            delay = min(2 * delay, 0.05)
        return self.exitcode

    def _signal(self, kill: bool) -> None:
        import signal  # the escalation path only
        if self.exitcode is None:  # unreaped, so the pid is still ours
            os.kill(self.pid, signal.SIGKILL if kill else signal.SIGTERM)


def spawn(target: Callable[..., None], args: Tuple = (), *,
          daemon: Optional[bool] = None) -> Child:
    """Fork a child that runs ``target(conn, *args)``; ``conn`` is its
    :class:`Channel`.

    ``daemon`` is ignored: every child ends with its parent by the
    orphan rule, and none is joined at exit.
    """
    _flush_stdio()  # or the child writes the parent's buffer again
    # One step under the lock: a sibling forked between socketpair()
    # and the close below would inherit both ends, unregistered — and
    # keep this child's EOF (either direction) from ever arriving.
    with _spawn_lock:
        ours, theirs = socket.socketpair()
        conn, child_conn = Channel(ours.detach()), Channel(theirs.detach())
        _parent_ends.add(conn)
        try:
            pid = os.fork()
        except BaseException:
            _parent_ends.discard(conn)
            conn.close()
            child_conn.close()
            raise
        if pid == 0:
            _child_main(child_conn, target, args)
        child_conn.close()
    return Child(pid, conn)


def exit_with_parent(conn: Channel) -> threading.Event:
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


def _task_main(conn: Channel, fn: Callable[..., Any], args: Tuple) -> None:
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
    child = spawn(_task_main, (fn, args))
    expires = None if deadline is None else time.monotonic() + deadline
    kind, value = "died", None
    try:
        while True:
            if tick is not None and tick():
                kind = "cancelled"
                break
            # Liveness as well as the socket: a crashed child's own
            # descendants (a sweep chunk) may still hold its end.
            if child.conn.poll(SLICE) or not child.alive:
                try:
                    if child.conn.poll():
                        # recv before reap: a large value blocks the
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
