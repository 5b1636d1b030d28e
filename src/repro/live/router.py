"""The userspace software router: Fig. 4's output port over real UDP.

One datagram endpoint plays the bottleneck router: datagrams arriving
from the server are offered to the same clock-free
:class:`~repro.core.pels_queue.PelsQueueCore` the simulator's
bottleneck drives — tri-color strict priority plus the Internet FIFO
under deficit weighted round-robin — with the raw datagram as the item,
and the port is drained by a token bucket filled at the bottleneck link
rate.  Every ``T`` a timer on the router's clock steps
:meth:`LiveRouter.close_epoch`, which closes the Eq. 11 measurement
interval through the clock-free :class:`~repro.core.feedback.EpochLog`
(the same epoch close the simulator's ``RouterFeedback`` runs from the
event heap), and the fresh ``(router_id, z, p)`` label is stamped into
every PELS datagram on the forwarding path with the max-loss override
rule.  The router owns no task: its timers are the clock's
(:mod:`repro.core.clock`), so a :class:`~repro.sim.engine.Simulator`
drives it as readily as the :class:`~repro.core.clock.SelectorClock`
of a live process.

Two deliberate wall-clock defenses:

* the epoch step passes the *measured* interval length to the close,
  so timer jitter cannot read as an arrival-rate change;
* service is credit-based — every ingest wake (and, only while a backlog
  waits for credit, a ``service_tick`` timer) converts elapsed time into
  byte tokens and drains whatever they cover — so an uncongested port
  forwards on arrival and timer overshoot never loses capacity.

The per-datagram paths are written for throughput (a shard process must
sustain >=10k pkts/s; ``benchmarks/test_bench_live.py`` gates it):

* classification peeks the raw color byte and hands it to the core as
  a plain index — no ``Color`` enum, no header decode;
* the forwarding path peeks the flow id with a cached 4-byte ``Struct``
  for the route lookup and re-stamps the label with ``pack_into`` —
  the 48-byte header is never fully unpacked inside the router;
* when bound to a raw socket (:meth:`bind_socket`, the shard-process
  mode), one readiness wake-up of the driver drains a whole batch
  of datagrams instead of paying the loop overhead per packet;
* ``_drain`` is a straight-line byte-credit loop: peek the core's next
  datagram, and if the credit covers it, dequeue and forward.

Overload defense — **layered load shedding**: under supervisor command
(:meth:`set_shed_level`) the core discards red, then red *and* yellow,
at ingest; green and the Internet FIFO are never shed.  Shedding happens
*after* the Eq. 11 arrival accounting, so the virtual loss keeps
reporting the true offered load and the senders keep backing off while
the shard recovers; shed traffic is counted apart from buffer-overflow
drops (``shed_packets`` / ``shed_bytes`` per color).
"""

from __future__ import annotations

import socket
from typing import Dict, List, Optional, Tuple

from ..core.clock import Clock
from ..core.feedback import EpochLog
from ..core.params import ControlParams
from ..core.pels_queue import PelsQueueConfig, PelsQueueCore
from ..obs.metrics import current_registry
from ..obs.trace import current_tracer
from ..sim.packet import Color
from .wire import (BE_COLOR, COLOR_OFFSET, HEADER_SIZE, peek_flow_id,
                   stamp_label)

__all__ = ["LiveRouter"]


class LiveRouter:
    """The wall-clock driver of :class:`PelsQueueCore`: items are raw
    datagrams; adds the sockets, the token bucket, label stamping and
    the Eq. 11 epoch cadence.

    It is a datagram protocol by shape (``connection_made``,
    ``datagram_received``, ``error_received``), so a
    :class:`~repro.core.clock.DatagramEndpoint` serves it (the loopback
    session) as well as :meth:`bind_socket` does (a shard).

    Parameters
    ----------
    clock:
        The session :class:`~repro.core.clock.Clock` (shared with the
        server and client so one-way delays are measurable).
    bottleneck_bps:
        Raw link rate of the output port; WRR splits it between the
        PELS aggregate and the Internet FIFO per ``config``.
    config:
        Buffer sizes and WRR weights — the same
        :class:`~repro.core.pels_queue.PelsQueueConfig` the simulator
        uses, so live and simulated bottlenecks are parameterized
        identically.
    interval:
        ``T``, the Eq. 11 feedback computation period (clock seconds).
    router_id:
        Label identity; must be >= 1 (0 marks "never stamped").
    service_tick:
        Burst granularity under backlog: a timer of this period serves
        the bucket only while queued datagrams wait for credit; with
        credit in hand the ingesting wake forwards them at once.
    recv_batch:
        Datagrams read per readiness wake in :meth:`bind_socket` mode
        (one reader callback drains up to this many before yielding).

    Forwarding destinations: :attr:`flow_routes` maps a flow id to the
    receiver address the gateway registered for it; datagrams whose
    flow id has no route (cross traffic, the single-session stack) fall
    back to :attr:`dst_addr`.
    """

    def __init__(self, clock: Clock, bottleneck_bps: float,
                 config: Optional[PelsQueueConfig] = None,
                 interval: float = ControlParams.feedback_interval,
                 router_id: int = 1,
                 window_intervals: int = ControlParams.feedback_window,
                 service_tick: float = 0.002,
                 recv_batch: int = 64) -> None:
        if bottleneck_bps <= 0:
            raise ValueError("bottleneck rate must be positive")
        if router_id < 1:
            raise ValueError("router ids start at 1 (0 = unstamped)")
        if service_tick <= 0:
            raise ValueError("service tick must be positive")
        if recv_batch < 1:
            raise ValueError("recv batch must be at least one datagram")
        self.clock = clock
        self.bottleneck_bps = bottleneck_bps
        self.config = config or PelsQueueConfig()
        self.interval = interval
        self.service_tick = service_tick
        self.recv_batch = recv_batch
        self._trace = current_tracer()
        self.feedback = EpochLog(
            bottleneck_bps * self.config.pels_share(), interval=interval,
            router_id=router_id, window_intervals=window_intervals,
            trace=self._trace)
        self._pels_bytes = 0
        self._epoch_at = clock.now

        #: The port.  Items are the raw datagrams as bytearrays (so
        #: labels can be stamped in place at service time); every count
        #: below is indexed by the raw color byte — ``Color`` is an
        #: IntEnum, so enum subscripts work for callers too.
        self.core = PelsQueueCore(self.config)
        self.shed_packets = self.core.shed_packets
        self.shed_bytes = self.core.shed_bytes
        #: Forwards the socket refused: wire loss, not queue drops.
        self.send_errors = 0
        # Token bucket.  Credit cap: a few ticks' worth, so an idle link
        # absorbs a burst without exceeding the configured average rate.
        self._byte_rate = bottleneck_bps / 8
        self._burst_bytes = max(4 * self._byte_rate * service_tick,
                                2 * self.config.quantum_bytes)
        self._credit = 0.0
        self._served_at = clock.now
        #: Backlog timer armed / coalesced protocol-mode service call.
        self._timer = False
        self._service_scheduled = False

        #: Per-flow forwarding destinations (gateway-installed routes).
        self.flow_routes: Dict[int, Tuple[str, int]] = {}
        self.dst_addr: Optional[Tuple[str, int]] = None
        self.transport = None
        self._sock: Optional[socket.socket] = None
        self._recv_view = memoryview(bytearray(65536))
        #: What watches ``_sock`` (raw-socket mode only): anything with
        #: ``add_reader``/``remove_reader``.
        self._loop = None
        registry = current_registry()
        self._forwarded_counter = registry.counter("live_router_forwarded") \
            if registry is not None else None
        self._running = False

    # -- datagram protocol -------------------------------------------------

    def connection_made(self, transport) -> None:
        self.transport = transport

    def error_received(self, exc) -> None:
        pass

    def datagram_received(self, data: bytes, addr) -> None:
        self._ingest(data)
        # One service call per loop iteration, however many arrive in it.
        if self._running and not self._service_scheduled:
            self._service_scheduled = True
            self.clock.call_later(0.0, self._service)

    # -- raw-socket mode (shard processes) ---------------------------------

    def bind_socket(self, sock: socket.socket, loop) -> None:
        """Serve a non-blocking UDP socket with batched reads.

        Registers on ``loop`` (a shard's
        :class:`~repro.core.clock.SelectorClock`, or anything with
        ``add_reader``) a readiness callback that drains up to
        ``recv_batch`` datagrams per wake — a datagram endpoint pays
        one callback (and one driver turn) per packet,
        which at thousands of packets per second is the dominant cost.
        The socket is also the forwarding transport (``sock.sendto``).
        """
        if self.transport is not None:
            raise RuntimeError("router already has a datagram transport")
        sock.setblocking(False)
        self._sock = sock
        self._loop = loop
        loop.add_reader(sock.fileno(), self._on_readable)

    def _on_readable(self) -> None:
        """One readiness wake: ingest a batch in place, then serve it."""
        recv_into = self._sock.recv_into
        ingest = self._ingest
        view = self._recv_view
        try:
            for _ in range(self.recv_batch):
                ingest(view[:recv_into(view)])
        except OSError:
            pass  # socket drained dry (or gone): serve what arrived
        if self._running:
            self._service()

    # -- ingest (hot path) -------------------------------------------------

    def _ingest(self, data: bytes) -> None:
        """Classify + enqueue; malformed datagrams are dropped.

        Peeks the raw color byte instead of decoding the header.
        """
        size = len(data)
        if size < HEADER_SIZE:
            return
        color = data[COLOR_OFFSET]
        if color > BE_COLOR:
            return
        if color != BE_COLOR:
            # Eq. 11 counts PELS arrivals at the port, before any shed
            # or drop (senders keep seeing honest virtual loss), exactly
            # as RouterFeedback.observe counts in the simulator.
            self._pels_bytes += size
        accepted = self.core.enqueue(color, bytearray(data), size)
        if self._trace is not None:
            if accepted:
                self._trace.enqueue("live-router", color, -1, True)
            else:
                self._trace.drop(
                    "live-router",
                    "shed" if self.core.sheds[color] else "overflow",
                    color, -1)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Open the token bucket, arm the Eq. 11 epoch timer (once)."""
        if self._running:
            raise RuntimeError("router already started")
        self._running = True
        self._served_at = self._epoch_at = self.clock.now
        self.clock.call_later(self.interval, self._epoch)

    async def stop(self) -> None:
        """Stop serving; timers already armed fire into a no-op.

        Nothing in it waits: it is a coroutine only because the perf
        ledger's router probe awaits it.  A live process stops its
        router by ending its clock's run and closing the socket.
        """
        self._running = False
        if self._sock is not None and self._loop is not None:
            self._loop.remove_reader(self._sock.fileno())
        self._loop = None

    # -- service path ------------------------------------------------------

    def _drain(self, credit: float) -> float:
        """Forward every datagram ``credit`` bytes cover; return the rest.

        Synchronous so the service loop stays a straight token-credit
        computation per wake (and so the port is unit-testable under a
        :class:`~repro.core.clock.ManualClock` without sockets or
        sleeps).  A datagram the link has no credit for yet is never
        taken out of the core: it stays where WRR will serve it next.
        """
        core = self.core
        forward = self._forward
        while True:
            head = core.peek()
            if head is None or credit < len(head):
                return credit
            credit -= len(head)
            forward(core.dequeue())

    def _service(self) -> None:
        """Token-bucket pacing at the bottleneck link rate: turn the clock
        time since the last call into byte credit and drain what it
        covers.  Every ingest wake calls this; a backlog left waiting
        for credit arms the one ``service_tick`` timer."""
        self._service_scheduled = False
        now = self.clock.now
        credit = min(self._credit + (now - self._served_at) * self._byte_rate,
                     self._burst_bytes)
        self._served_at = now
        self._credit = self._drain(credit)
        if not self._timer and self._running and len(self.core):
            self._timer = True
            self.clock.call_later(self.service_tick, self._on_timer)

    def _on_timer(self) -> None:
        self._timer = False
        if self._running:
            self._service()

    def _forward(self, datagram: bytearray) -> None:
        color = datagram[COLOR_OFFSET]
        if color != BE_COLOR:
            stamp_label(datagram, self.feedback.label)
            if self._trace is not None:
                self._trace.dequeue("live-router", color, -1)
        if self._forwarded_counter is not None:
            self._forwarded_counter.inc()
        routes = self.flow_routes
        dst = routes.get(peek_flow_id(datagram), self.dst_addr) if routes \
            else self.dst_addr
        if dst is None:
            return
        if self._sock is not None:
            try:
                self._sock.sendto(datagram, dst)
            except OSError:
                self.send_errors += 1  # full socket buffer == wire loss
        elif self.transport is not None:
            self.transport.sendto(datagram, dst)

    # -- Eq. 11 epochs -----------------------------------------------------

    def _epoch(self) -> None:
        if self._running:
            self.close_epoch(self.clock.now)
            self.clock.call_later(self.interval, self._epoch)

    def close_epoch(self, now: float) -> None:
        """One Eq. 11 epoch, synchronously: the PELS bytes counted since
        the last step and the *measured* interval go to the shared
        epoch close; the physical-loss windows close with it."""
        elapsed = now - self._epoch_at
        self._epoch_at = now
        self.feedback.close_epoch(self._pels_bytes, now, elapsed)
        self._pels_bytes = 0
        self.core.losses.sample(now)

    # -- overload shedding -------------------------------------------------

    def set_shed_level(self, level: int) -> None:
        """Set layered shedding: 0 = off, 1 = red, 2 = red + yellow."""
        self.core.set_shed_level(level)

    @property
    def shed_level(self) -> int:
        return self.core.shed_level

    # -- introspection -----------------------------------------------------

    @property
    def arrivals(self) -> List[int]:
        """Datagrams offered per color (shed and dropped ones included)."""
        return [fifo.stats.arrivals for fifo in self.core.fifos]

    @property
    def drops(self) -> List[int]:
        """Buffer-overflow drops per color (shed traffic not included)."""
        return [fifo.stats.drops for fifo in self.core.fifos]

    @property
    def forwarded(self) -> List[int]:
        return [fifo.stats.departures for fifo in self.core.fifos]

    def queue_depth(self, color: Color) -> int:
        return len(self.core.fifos[color])

    def queue_depths(self) -> List[int]:
        """Current occupancy of all four queues, indexed by raw color."""
        return [len(fifo) for fifo in self.core.fifos]
