"""The userspace software router: Fig. 4's output port over real UDP.

One datagram endpoint plays the bottleneck router: datagrams arriving
from the server are classified into the tri-color PELS queues (green,
yellow, red — served strict-priority) or the Internet FIFO, and the
composite is drained under deficit weighted round-robin, paced by a
token bucket filled at the bottleneck link rate.  Every
``T`` wall-seconds an epoch task closes the Eq. 11 measurement interval
through the clock-free :class:`~repro.core.feedback.FeedbackComputer`
(the same object the simulator's ``RouterFeedback`` drives from the
event heap) and the fresh ``(router_id, z, p)`` label is stamped into
every PELS datagram on the forwarding path with the max-loss override
rule.

Two deliberate wall-clock defenses:

* the epoch task passes the *measured* interval length to
  ``FeedbackComputer.close`` so asyncio timer jitter cannot read as an
  arrival-rate change;
* service is credit-based — every ingest wake (and, only while a backlog
  waits for credit, a ``service_tick`` timer) converts elapsed time into
  byte tokens and drains whatever they cover — so an uncongested port
  forwards on arrival and timer overshoot never loses capacity.

The per-datagram paths are written for throughput (a shard process must
sustain >=10k pkts/s; ``benchmarks/test_bench_live.py`` gates it):

* classification peeks the raw color byte and indexes flat lists — no
  ``Color`` enum construction, no dict hashing, no header decode;
* the forwarding path peeks the flow id with a cached 4-byte ``Struct``
  for the route lookup and re-stamps the label with ``pack_into`` —
  the 48-byte header is never fully unpacked inside the router;
* when bound to a raw socket (:meth:`bind_socket`, the shard-process
  mode), one readiness wake-up of the event loop drains a whole batch
  of datagrams instead of paying the loop overhead per packet;
* the service loop's queue handles and counters are pre-bound locals —
  ``_drain`` is a straight-line byte-credit loop.

Overload defense — **layered load shedding**: under supervisor command
(:meth:`set_shed_level`) the router discards enhancement-layer traffic
in-line at ingest, cheapest layer first — level 1 sheds red (the FGS
probing band), level 2 sheds red *and* yellow — while green base-layer
packets (and the Internet FIFO) are never shed at any level.  Shedding
happens *after* the Eq. 11 arrival accounting, so the virtual loss
keeps reporting the true offered load and the senders' control loops
keep backing off while the shard recovers; shed traffic is counted
separately from buffer-overflow drops (``shed_packets`` /
``shed_bytes`` per color) so base-layer-protection assertions stay
exact.
"""

from __future__ import annotations

import asyncio
import socket
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..core.clock import Clock
from ..core.feedback import FeedbackComputer
from ..core.pels_queue import PelsQueueConfig
from ..obs.metrics import current_registry
from ..obs.trace import current_tracer
from ..sim.packet import Color
from ..sim.stats import TimeSeries
from .wire import HEADER_SIZE, peek_flow_id, stamp_label

__all__ = ["LiveRouter"]

#: Queue service order inside the PELS aggregate (strict priority).
_PELS_COLORS = (Color.GREEN, Color.YELLOW, Color.RED)

#: Raw color byte of best-effort traffic (= int(Color.BEST_EFFORT)).
_BE = 3

#: Byte offset of the color mark in the wire header (see wire.py).
_COLOR_OFFSET = 20


class LiveRouter(asyncio.DatagramProtocol):
    """Tri-color strict-priority + FIFO under WRR, on a wall clock.

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
        ``T``, the Eq. 11 feedback computation period (wall seconds).
    router_id:
        Label identity; must be >= 1 (0 marks "never stamped").
    service_tick:
        Burst granularity under backlog: a timer of this period serves
        the bucket only while queued datagrams wait for credit; with
        credit in hand the ingesting wake forwards them at once.
    recv_batch:
        Datagrams read per event-loop wake in :meth:`bind_socket` mode
        (one reader callback drains up to this many before yielding).

    Forwarding destinations: :attr:`flow_routes` maps a flow id to the
    receiver address the gateway registered for it; datagrams whose
    flow id has no route (cross traffic, the single-session stack) fall
    back to :attr:`dst_addr`.
    """

    def __init__(self, clock: Clock, bottleneck_bps: float,
                 config: Optional[PelsQueueConfig] = None,
                 interval: float = 0.030, router_id: int = 1,
                 window_intervals: int = 5,
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
        self.feedback = FeedbackComputer(
            bottleneck_bps * self.config.pels_share(), interval=interval,
            router_id=router_id, window_intervals=window_intervals)
        self._pels_bytes = 0

        cfg = self.config
        #: Per-color drop-tail queues of raw datagrams (as bytearrays,
        #: so labels can be stamped in place at service time), indexed
        #: by the raw color byte — ``Color`` is an IntEnum, so enum
        #: subscripts keep working for callers while the hot path uses
        #: plain ints.
        self._queues: List[Deque[bytearray]] = [deque(), deque(),
                                                deque(), deque()]
        self._green, self._yellow, self._red, self._internet = self._queues
        self._limits = [cfg.green_buffer, cfg.yellow_buffer,
                        cfg.red_buffer, cfg.internet_buffer]
        self.arrivals = [0, 0, 0, 0]
        self.drops = [0, 0, 0, 0]
        self.forwarded = [0, 0, 0, 0]
        #: Forwards the socket refused: wire loss, not queue drops.
        self.send_errors = 0
        #: Layered shedding state: 0 = off, 1 = shed red, 2 = shed
        #: red + yellow.  Green and best-effort are never shed.
        self.shed_level = 0
        self._shed = [False, False, False, False]
        self.shed_packets = [0, 0, 0, 0]
        self.shed_bytes = [0, 0, 0, 0]
        # Deficit WRR between the PELS aggregate and the Internet FIFO,
        # mirroring WeightedRoundRobinScheduler: each aggregate earns
        # quantum * weight per round and spends it in bytes.
        total = cfg.pels_weight + cfg.internet_weight
        self._quanta = (cfg.quantum_bytes * cfg.pels_weight / total,
                        cfg.quantum_bytes * cfg.internet_weight / total)
        self._deficit = [0.0, 0.0]
        self._wrr_turn = 0
        # Token bucket.  Credit cap: a few ticks' worth, so an idle link
        # absorbs a burst without exceeding the configured average rate.
        self._byte_rate = bottleneck_bps / 8
        self._burst_bytes = max(4 * self._byte_rate * service_tick,
                                2 * cfg.quantum_bytes)
        self._credit = 0.0
        self._served_at = clock.now
        #: Pending backlog timer / coalesced protocol-mode service call.
        self._timer: Optional[asyncio.TimerHandle] = None
        self._service_scheduled = False

        #: Per-flow forwarding destinations (gateway-installed routes).
        self.flow_routes: Dict[int, Tuple[str, int]] = {}
        self.dst_addr: Optional[Tuple[str, int]] = None
        self.transport: Optional[asyncio.DatagramTransport] = None
        self._sock: Optional[socket.socket] = None
        self._recv_view = memoryview(bytearray(65536))
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.loss_series = TimeSeries("virtual-loss")
        self.rate_series = TimeSeries("pels-arrival-rate")
        self._trace = current_tracer()
        registry = current_registry()
        self._forwarded_counter = registry.counter("live_router_forwarded") \
            if registry is not None else None
        self._tasks: List[asyncio.Task] = []
        self._running = False

    # -- asyncio protocol --------------------------------------------------

    def connection_made(self, transport) -> None:
        self.transport = transport

    def datagram_received(self, data: bytes, addr) -> None:
        self._ingest(data)
        # One service call per loop iteration, however many arrive in it.
        if self._running and not self._service_scheduled:
            self._service_scheduled = True
            self._loop.call_soon(self._service)

    # -- raw-socket mode (shard processes) ---------------------------------

    def bind_socket(self, sock: socket.socket,
                    loop: Optional[asyncio.AbstractEventLoop] = None) -> None:
        """Serve a non-blocking UDP socket with batched reads.

        Registers a readiness callback that drains up to ``recv_batch``
        datagrams per event-loop wake — the asyncio datagram protocol
        pays one callback (and one loop iteration) per packet, which at
        thousands of packets per second is the dominant cost.  The
        socket is also the forwarding transport (``sock.sendto``).
        """
        if self.transport is not None:
            raise RuntimeError("router already has a datagram transport")
        sock.setblocking(False)
        self._sock = sock
        self._loop = loop or asyncio.get_running_loop()
        self._loop.add_reader(sock.fileno(), self._on_readable)

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

        Peeks the raw color byte instead of decoding the header; all
        bookkeeping is flat-list indexing on it.
        """
        if len(data) < HEADER_SIZE:
            return
        color = data[_COLOR_OFFSET]
        if color > _BE:
            return
        self.arrivals[color] += 1
        if color != _BE:
            # Eq. 11 counts PELS arrivals at the port, before any drop,
            # exactly as RouterFeedback.observe counts in the simulator.
            self._pels_bytes += len(data)
        if self._shed[color]:
            # Overload shedding: discard at ingest, after the offered-
            # load accounting above (senders keep seeing honest virtual
            # loss) but before the queue ever holds the bytes.
            self.shed_packets[color] += 1
            self.shed_bytes[color] += len(data)
            if self._trace is not None:
                self._trace.drop("live-router", "shed", color, -1)
            return
        queue = self._queues[color]
        if len(queue) >= self._limits[color]:
            self.drops[color] += 1
            if self._trace is not None:
                self._trace.drop("live-router", "overflow", color, -1)
            return
        queue.append(bytearray(data))
        if self._trace is not None:
            self._trace.enqueue("live-router", color, -1, True)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Open the token bucket, arm the epoch task (once, in a loop)."""
        if self._running:
            raise RuntimeError("router already started")
        self._running = True
        self._loop = self._loop or asyncio.get_running_loop()
        self._served_at = self.clock.now
        self._tasks = [asyncio.ensure_future(self._epochs())]

    async def stop(self) -> None:
        self._running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks = []
        if self._sock is not None and self._loop is not None:
            self._loop.remove_reader(self._sock.fileno())
        self._loop = None

    # -- service path ------------------------------------------------------

    def _dequeue_pels(self) -> Optional[bytearray]:
        for color in (0, 1, 2):
            queue = self._queues[color]
            if queue:
                self.forwarded[color] += 1
                if self._trace is not None:
                    self._trace.dequeue("live-router", color, -1)
                return queue.popleft()
        return None

    def _dequeue_internet(self) -> Optional[bytearray]:
        queue = self._internet
        if queue:
            self.forwarded[_BE] += 1
            return queue.popleft()
        return None

    def _next_datagram(self) -> Optional[bytearray]:
        """One deficit-WRR service decision across the two aggregates."""
        green, yellow, red = self._green, self._yellow, self._red
        for _ in range(2):
            turn = self._wrr_turn
            if turn == 0:
                dequeue = self._dequeue_pels
                queue_empty = not (green or yellow or red)
            else:
                dequeue = self._dequeue_internet
                queue_empty = not self._internet
            if queue_empty:
                # Empty aggregates forfeit their deficit (standard DRR),
                # so an idle Internet queue cannot bank credit.
                self._deficit[turn] = 0.0
                self._wrr_turn = 1 - turn
                continue
            head_size = len(self._head(turn))
            if self._deficit[turn] < head_size:
                self._deficit[turn] += self._quanta[turn]
                if self._deficit[turn] < head_size:
                    self._wrr_turn = 1 - turn
                    continue
            datagram = dequeue()
            assert datagram is not None
            self._deficit[turn] -= len(datagram)
            return datagram
        return None

    def _head(self, turn: int) -> bytearray:
        if turn == 1:
            return self._internet[0]
        for queue in (self._green, self._yellow, self._red):
            if queue:
                return queue[0]
        raise AssertionError("head() on empty aggregate")

    def _drain(self, credit: float) -> float:
        """Forward every datagram ``credit`` bytes cover; return the rest.

        Synchronous so the service loop stays a straight token-credit
        computation per wake (and so WRR/put-back behavior is unit-
        testable under a :class:`~repro.core.clock.ManualClock` without
        sockets or sleeps).  A datagram dequeued under WRR that the
        link has no credit for yet is put back at the head of its
        queue with its deficit refunded — it was not serviced.
        """
        next_datagram = self._next_datagram
        forward = self._forward
        while True:
            pending = next_datagram()
            if pending is None:
                return credit
            size = len(pending)
            if credit < size:
                color = pending[_COLOR_OFFSET]
                self._queues[color].appendleft(pending)
                self.forwarded[color] -= 1
                self._deficit[0 if color != _BE else 1] += size
                return credit
            credit -= size
            forward(pending)

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
        if self._timer is None and self._running and any(self._queues):
            self._timer = self._loop.call_later(self.service_tick,
                                                self._on_timer)

    def _on_timer(self) -> None:
        self._timer = None
        self._service()

    def _forward(self, datagram: bytearray) -> None:
        if datagram[_COLOR_OFFSET] != _BE:
            stamp_label(datagram, self.feedback.label)
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

    async def _epochs(self) -> None:
        last = self.clock.now
        while self._running:
            await asyncio.sleep(self.interval)
            now = self.clock.now
            elapsed = now - last
            last = now
            label = self.feedback.close(self._pels_bytes, elapsed=elapsed)
            self._pels_bytes = 0
            self.loss_series.record(now, label.loss)
            self.rate_series.record(now, self.feedback.rate_bps)
            if self._trace is not None:
                self._trace.epoch(now, label.router_id, label.epoch,
                                  self.feedback.rate_bps, label.loss)

    # -- overload shedding -------------------------------------------------

    def set_shed_level(self, level: int) -> None:
        """Set layered shedding: 0 = off, 1 = red, 2 = red + yellow.

        Green base-layer packets and the Internet FIFO are never shed
        at any level — the whole point of the layered codec is that the
        enhancement bands are the cheap thing to lose.
        """
        if not 0 <= level <= 2:
            raise ValueError("shed level must be 0, 1 or 2")
        self.shed_level = level
        self._shed[int(Color.RED)] = level >= 1
        self._shed[int(Color.YELLOW)] = level >= 2

    # -- introspection -----------------------------------------------------

    def queue_depth(self, color: Color) -> int:
        return len(self._queues[color])

    def queue_depths(self) -> List[int]:
        """Current occupancy of all four queues, indexed by raw color."""
        return [len(queue) for queue in self._queues]

    def mean_virtual_loss(self, t_start: float = 0.0) -> float:
        return self.loss_series.mean(t_start, float("inf"))

    def total_forwarded(self) -> int:
        return sum(self.forwarded)
