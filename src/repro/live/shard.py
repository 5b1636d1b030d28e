"""Router shard processes: one ``LiveRouter`` + bottleneck per core.

One process tops out well below the packet rates the gateway admits,
so the bottleneck tier is sharded across processes: each shard process
runs one :class:`~repro.live.router.LiveRouter` bound to its own UDP
socket (the batched raw-socket mode), with its own Eq. 11 feedback
identity (``router_id`` = shard id, so labels from different shards
never alias in the per-flow
:class:`~repro.core.feedback.FeedbackTracker`).  What runs it is a
:class:`~repro.core.clock.SelectorClock` — one timer heap and one
selector over the data socket and the control channel — so a shard
process runs no asyncio loop and imports no asyncio of its own (one
forked from a process that loaded asyncio still inherits its pages).

The split between the planes is strict:

* **data** never touches the channel — senders transmit straight to the
  shard's UDP port, the shard forwards straight to the receiver address
  the gateway routed for that flow id;
* **control** is the ``core/proc.py`` channel carrying small tuples:
  route installs/removals from the gateway, stats requests, heartbeat
  pings, shed-level commands, stop.  The child drains the channel from a
  readiness callback on its driver, so control messages interleave
  with packet service without threads.

:class:`RouterShard` is the parent-side handle (spawn, route, stats,
stop); :func:`_shard_main` is the child entry point.  Spawning and
reaping are :mod:`repro.core.proc`'s; the control protocol is here,
written once as :func:`apply_control`.  :class:`SimulatedShard` is the
same handle with its child in this process, its router on a
:class:`~repro.core.clock.SimNet`: the gateway on simulated time.

Supervision support: the handle carries both the synchronous request
path (``stats()``/``stop()``, which block for their reply) and a
fire-and-forget path (:meth:`ping`, :meth:`request_stats`,
:meth:`set_shed_level`) whose replies are collected later by
:meth:`poll_messages` — the supervisor's poll loop must never block on
a shard that may be hung, that is the failure it exists to detect.
Because both paths share one channel, the synchronous
:meth:`~RouterShard._request` skips-and-dispatches any asynchronous
replies (stale pongs, stats snapshots) it drains while waiting for its
own answer.
"""

from __future__ import annotations

import pickle  # noqa: F401 - the control channel's framing; see below
import socket
import time
from collections import deque
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, List, Optional, Tuple

from ..core import proc
from ..core.clock import SelectorClock
from ..core.params import ControlParams
from ..core.pels_queue import PelsQueueConfig
# At module scope, not in the child: the forked shard inherits the
# router and the port's modules (and ``pickle``) from its parent
# instead of importing them itself, which keeps each shard's peak RSS
# down.
from .router import LiveRouter

__all__ = ["ShardConfig", "ShardStats", "RouterShard", "SimulatedShard",
           "apply_control", "bound_udp_socket"]

#: Socket buffer request for shard data sockets (and the load
#: generator's endpoints): enough to ride out multi-millisecond
#: scheduler stalls at 10k pkts/s x ~250-byte datagrams.
SOCKET_BUFFER_BYTES = 1 << 21

#: Seconds :meth:`RouterShard.start` waits for the child's ``ready``.
START_TIMEOUT = 15.0


@dataclass
class ShardConfig:
    """Everything a shard child needs to build its router (picklable)."""

    shard_id: int = 1
    host: str = "127.0.0.1"
    bottleneck_bps: float = 2_000_000.0
    queue: PelsQueueConfig = field(default_factory=PelsQueueConfig)
    feedback_interval: float = ControlParams.feedback_interval
    feedback_window: int = ControlParams.feedback_window
    #: Burst granularity under backlog: the router's credit timer runs
    #: only while datagrams wait for link credit (an uncongested shard
    #: forwards on arrival, an idle one sleeps in the selector).
    service_tick: float = 0.002
    recv_batch: int = 64

    def __post_init__(self) -> None:
        if self.shard_id < 1:
            raise ValueError("shard ids start at 1 (they are router ids)")


@dataclass
class ShardStats:
    """A stats snapshot shipped back over the control pipe."""

    shard_id: int
    port: int
    #: Packet counters indexed by raw color byte (green, yellow, red,
    #: best-effort) — same layout as ``LiveRouter``'s lists.
    arrivals: List[int]
    drops: List[int]
    forwarded: List[int]
    routes: int
    #: CPU seconds consumed by the shard *process* (user + system) and
    #: the wall seconds it has been serving — their ratio is the
    #: shard's utilization.
    cpu_seconds: float
    wall_seconds: float
    #: Instantaneous queue occupancy by raw color (packets) and the
    #: layered shedding counters/level (see ``LiveRouter.set_shed_level``).
    #: Defaulted to an idle shard's values for the builders that leave
    #: them out: the zero snapshot of a shard that never reported
    #: (``loadgen._no_stats``) and test fixtures.
    depths: List[int] = field(default_factory=lambda: [0, 0, 0, 0])
    shed_packets: List[int] = field(default_factory=lambda: [0, 0, 0, 0])
    shed_bytes: List[int] = field(default_factory=lambda: [0, 0, 0, 0])
    shed_level: int = 0
    #: Forwards the data socket refused (``LiveRouter.send_errors``):
    #: datagrams that left the queues but never reached the wire.
    send_errors: int = 0

    @property
    def total_forwarded(self) -> int:
        return sum(self.forwarded)


def _snapshot(router, config: ShardConfig, port: int, started: float,
              cpu: Callable[[], float] = time.process_time) -> ShardStats:
    """The router's counters as a :class:`ShardStats`; ``started`` is
    when it began serving on its own clock, ``cpu`` what the shard has
    burnt (its process's CPU time)."""
    return ShardStats(
        shard_id=config.shard_id, port=port,
        arrivals=list(router.arrivals), drops=list(router.drops),
        forwarded=list(router.forwarded),
        routes=len(router.flow_routes),
        cpu_seconds=cpu(),
        wall_seconds=router.clock.now - started,
        depths=router.queue_depths(),
        shed_packets=list(router.shed_packets),
        shed_bytes=list(router.shed_bytes),
        shed_level=router.shed_level,
        send_errors=router.send_errors)


def bound_udp_socket(host: str) -> socket.socket:
    """A UDP socket bound to an ephemeral port on ``host``, its buffers
    asked for ``SOCKET_BUFFER_BYTES`` each way."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    for opt in (socket.SO_RCVBUF, socket.SO_SNDBUF):
        try:
            sock.setsockopt(socket.SOL_SOCKET, opt, SOCKET_BUFFER_BYTES)
        except OSError:
            pass  # the OS cap applies; default sizes still work
    sock.bind((host, 0))
    return sock


def apply_control(router, message: tuple,
                  snapshot: Callable[[], ShardStats]) -> Optional[tuple]:
    """Apply one control message to ``router``; return its reply, if
    it has one.

    The shard's whole control protocol, whichever side of a process
    boundary the router runs on: route installs and removals, the
    default route, the shed level, stats (``snapshot()``), heartbeat
    pings and ``stop``, answered with the final snapshot (ending the
    router's service is the caller's).
    """
    kind = message[0]
    if kind == "route":
        router.flow_routes[message[1]] = message[2]
    elif kind == "unroute":
        router.flow_routes.pop(message[1], None)
    elif kind == "routes":
        # Bulk install: one message re-homes a whole failed shard's
        # worth of flows during failover.
        router.flow_routes.update(message[1])
    elif kind == "default":
        router.dst_addr = message[1]
    elif kind == "shed":
        router.set_shed_level(message[1])
    elif kind == "stats":
        return ("stats", snapshot())
    elif kind == "ping":
        # Heartbeat: echo the supervisor's timestamp.  A stalled event
        # loop (or SIGSTOP'd process) simply stops answering, which is
        # exactly the signal.
        return ("pong", message[1])
    elif kind == "stop":
        return ("stopped", snapshot())
    return None


def _router(config: ShardConfig, clock) -> LiveRouter:
    """The shard's router on ``clock``: its label identity is the
    shard id."""
    return LiveRouter(clock, config.bottleneck_bps, config.queue,
                      interval=config.feedback_interval,
                      router_id=config.shard_id,
                      window_intervals=config.feedback_window,
                      service_tick=config.service_tick,
                      recv_batch=config.recv_batch)


def _shard_main(conn, config: ShardConfig) -> None:
    """Child process entry point: one clock, one router."""
    clock = SelectorClock()
    sock = bound_udp_socket(config.host)
    port = sock.getsockname()[1]
    router = _router(config, clock)
    router.bind_socket(sock, clock)
    router.start()
    snapshot = partial(_snapshot, router, config, port, clock.now)

    def on_control() -> None:
        try:
            while conn.poll():
                message = conn.recv()
                reply = apply_control(router, message, snapshot)
                if reply is not None:
                    conn.send(reply)
                if message[0] == "stop":
                    clock.stop()
                    return
        except (EOFError, OSError):
            clock.stop()  # parent vanished: shut down cleanly

    clock.add_reader(conn.fileno(), on_control)
    conn.send(("ready", port))
    try:
        # A callback that raises ends run() with it: the child exits
        # non-zero and its supervisor sees a death, not a silent stall.
        clock.run()
    finally:
        clock.close()
        sock.close()
        conn.close()


class RouterShard:
    """Parent-side handle of one shard process.

    The handle is the only thing the gateway sees: it exposes the
    shard's data address, the route-install control verbs, and stats.
    All control calls are synchronous pipe round-trips (or one-way
    sends); the data plane never passes through this object.  What
    :meth:`start` builds is :meth:`_spawn`'s: a forked child here, an
    in-process one in :class:`SimulatedShard`.
    """

    def __init__(self, config: ShardConfig) -> None:
        self.config = config
        self._conn = None
        #: The running child (:meth:`_spawn`'s), None when stopped.  A
        #: fault that kills it goes around the handle, which then learns
        #: of the death as a supervisor does: from ``exitcode``/``alive``.
        self.child: Optional[proc.Child] = None
        self._port: Optional[int] = None
        #: Timestamp payload of the latest heartbeat reply (the value
        #: the supervisor passed to :meth:`ping`), updated by
        #: :meth:`poll_messages`.  ``None`` until the first pong.
        self.last_pong: Optional[float] = None
        #: Latest asynchronously collected stats snapshot (from
        #: :meth:`request_stats` + :meth:`poll_messages`).
        self.last_stats: Optional[ShardStats] = None

    # -- identity ----------------------------------------------------------

    @property
    def shard_id(self) -> int:
        return self.config.shard_id

    @property
    def capacity_bps(self) -> float:
        """The shard's PELS capacity (admission budgets against this)."""
        return self.config.bottleneck_bps * self.config.queue.pels_share()

    @property
    def addr(self) -> Tuple[str, int]:
        if self._port is None:
            raise RuntimeError("shard not started")
        return (self.config.host, self._port)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "RouterShard":
        if self.child is not None:
            raise RuntimeError("shard already started")
        self.child = self._spawn()
        self._conn = self.child.conn
        kind, port = self._request(None, expect="ready",
                                   timeout=START_TIMEOUT)
        self._port = port
        return self

    def _spawn(self) -> proc.Child:
        """The child this handle runs: a forked :func:`_shard_main`."""
        return proc.spawn(_shard_main, (self.config,))

    def respawn(self, shard_id: int) -> "RouterShard":
        """A started shard of this one's kind and config under
        ``shard_id``: the supervisor's replacement for this slot."""
        return RouterShard(replace(self.config, shard_id=shard_id)).start()

    def stop(self, timeout: float = 10.0) -> Optional[ShardStats]:
        """Stop the child; returns its final stats (None if it died).

        A polite stop request first; ``Child.reap`` then escalates
        until the process is truly gone (a SIGSTOP'd child cannot
        answer and leaves SIGTERM pending, but SIGKILL lands).
        """
        if self.child is None:
            return None
        stats: Optional[ShardStats] = None
        try:
            _, stats = self._request(("stop",), expect="stopped",
                                     timeout=timeout)
        except (RuntimeError, BrokenPipeError, EOFError, OSError):
            pass
        self.child.reap(timeout)
        self.child = None
        return stats

    def kill(self) -> None:
        """SIGKILL the child and reap it (supervisor failover path).

        Unlike :meth:`stop` this never talks to the pipe — the child is
        presumed dead or unresponsive — and leaves the handle in the
        stopped state immediately.
        """
        if self.child is None:
            return
        self.child.kill()
        self.child = None

    @property
    def alive(self) -> bool:
        return self.child is not None and self.child.alive

    @property
    def exitcode(self) -> Optional[int]:
        """The child's exit code (None while running or never started)."""
        return None if self.child is None else self.child.exitcode

    @property
    def pid(self) -> Optional[int]:
        return None if self.child is None else self.child.pid

    # -- control verbs -----------------------------------------------------

    def install_route(self, flow_id: int, addr: Tuple[str, int]) -> None:
        self._conn.send(("route", flow_id, addr))

    def install_routes(self, routes: dict) -> None:
        """Bulk route install ({flow_id: addr}) in one pipe message."""
        self._conn.send(("routes", dict(routes)))

    def remove_route(self, flow_id: int) -> None:
        self._conn.send(("unroute", flow_id))

    def set_default_route(self, addr: Tuple[str, int]) -> None:
        self._conn.send(("default", addr))

    def stats(self, timeout: float = 10.0) -> ShardStats:
        _, stats = self._request(("stats",), expect="stats",
                                 timeout=timeout)
        return stats

    # -- supervision (non-blocking) ----------------------------------------

    def ping(self, now: float) -> bool:
        """Send a heartbeat; the pong lands via :meth:`poll_messages`."""
        return self._send(("ping", now))

    def request_stats(self) -> bool:
        """Ask for stats without blocking; see :attr:`last_stats`."""
        return self._send(("stats",))

    def set_shed_level(self, level: int) -> bool:
        """Command the child's router shed level (fire-and-forget)."""
        if not 0 <= level <= 2:
            raise ValueError("shed level must be 0, 1 or 2")
        return self._send(("shed", level))

    def poll_messages(self) -> int:
        """Drain pending pipe replies without blocking; return count.

        Dispatches pongs into :attr:`last_pong` and stats snapshots
        into :attr:`last_stats`.  Errors (EOF, closed pipe, a dead
        child) are swallowed — liveness is judged from
        :attr:`exitcode` / pong age, not from pipe exceptions.
        """
        if self._conn is None or self._conn.closed:
            return 0
        drained = 0
        try:
            while self._conn.poll():
                self._dispatch(self._conn.recv())
                drained += 1
        except (EOFError, BrokenPipeError, OSError):
            pass
        return drained

    # -- plumbing ----------------------------------------------------------

    def _dispatch(self, reply) -> None:
        kind = reply[0]
        if kind == "pong":
            self.last_pong = reply[1]
        elif kind == "stats":
            self.last_stats = reply[1]
        # Anything else ("ready" after a restart race, "stopped") is
        # stale and dropped.

    def _send(self, message) -> bool:
        """Best-effort one-way send; False if the pipe is gone."""
        if self._conn is None or self._conn.closed:
            return False
        try:
            self._conn.send(message)
            return True
        except (BrokenPipeError, OSError):
            return False

    def _request(self, message, expect: str, timeout: float):
        """Send + wait for a specific reply kind, with a deadline.

        The pipe also carries asynchronous supervision replies (pongs,
        stats snapshots from :meth:`request_stats`), so a mismatched
        reply is dispatched and skipped rather than treated as a
        protocol error; only silence past the deadline or EOF raise.
        """
        if message is not None:
            try:
                self._conn.send(message)
            except (BrokenPipeError, OSError) as exc:
                raise RuntimeError(
                    f"shard {self.shard_id}: control pipe closed sending "
                    f"{message[0]!r} (child alive: {self.alive})") from exc
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not self._conn.poll(max(remaining, 0.0)):
                raise RuntimeError(
                    f"shard {self.shard_id}: no {expect!r} reply in "
                    f"{timeout:.1f}s (child alive: {self.alive})")
            try:
                reply = self._conn.recv()
            except EOFError:
                raise RuntimeError(
                    f"shard {self.shard_id}: pipe EOF while waiting for "
                    f"{expect!r} (child alive: {self.alive})")
            if reply[0] == expect:
                return reply
            self._dispatch(reply)


class _InProcessChild:
    """A shard child in this process: its router attached to a
    :class:`~repro.core.clock.SimNet`, on the net's simulator.

    It is the ``core/proc.py`` :class:`~repro.core.proc.Channel`
    (``send``/``recv``/``poll``/``closed``) and the
    :class:`~repro.core.proc.Child` (``alive``/``exitcode``/``kill``/
    ``reap``/``pid``, its own ``conn``) at once: ``send`` applies the
    message through :func:`apply_control` at once and queues its
    reply.  Once it exits (``stop``, :meth:`kill`, :meth:`reap`) its
    address has left the net, so datagrams sent there vanish, and
    ``send`` raises ``BrokenPipeError`` as a dead child's pipe does.
    It has no process: ``pid`` is None and its CPU time reads 0.
    """

    pid = None
    exitcode: Optional[int] = None
    alive, closed = True, False

    def __init__(self, net, config: ShardConfig) -> None:
        self.net, self.conn = net, self
        self.router = _router(config, net.sim)
        self.addr = net.attach(self.router, config.host)
        self.router.start()
        self._snapshot = partial(_snapshot, self.router, config,
                                 self.addr[1], net.sim.now,
                                 cpu=lambda: 0.0)
        self._replies = deque([("ready", self.addr[1])])

    def send(self, message: tuple) -> None:
        if self.closed:
            raise BrokenPipeError("the shard child has exited")
        reply = apply_control(self.router, message, self._snapshot)
        if reply is not None:
            self._replies.append(reply)
        if message[0] == "stop":
            self._exit(0)

    def recv(self):
        """The next queued reply; ``EOFError`` once none is left."""
        if not self._replies:
            raise EOFError
        return self._replies.popleft()

    def poll(self, timeout: Optional[float] = 0.0) -> bool:
        """A reply is queued, or the child is gone (EOF): never waits,
        since nothing arrives later."""
        return bool(self._replies) or self.closed

    def reap(self, wait: float = 0.0) -> Optional[int]:
        if self.alive:
            self._exit(-9)  # as a SIGKILLed process reads
        return self.exitcode

    kill = reap

    def _exit(self, code: int) -> None:
        self.net.detach(self.addr)
        self.router.halt()
        self.exitcode, self.alive, self.closed = code, False, True


class SimulatedShard(RouterShard):
    """A :class:`RouterShard` whose child runs in this process on
    ``net`` (a :class:`~repro.core.clock.SimNet`): the same handle, so
    the gateway, the supervisor and :func:`apply_control` cannot tell.
    Stalls are not modelled: the child answers every ping."""

    def __init__(self, config: ShardConfig, net) -> None:
        super().__init__(config)
        self.net = net

    def _spawn(self) -> _InProcessChild:
        return _InProcessChild(self.net, self.config)

    def respawn(self, shard_id: int) -> "SimulatedShard":
        """The replacement joins this shard's net."""
        return SimulatedShard(replace(self.config, shard_id=shard_id),
                              self.net).start()
